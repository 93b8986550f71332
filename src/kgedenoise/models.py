"""Embedding models: scores, losses, hand-derived gradients, sparse Adam.

Three score functions are supported:

* translation (``TransE``):     f(h,r,t) = -||h + r - t||  (L1 or L2)
* bilinear diagonal (``DistMult``): f(h,r,t) = sum_i h_i r_i t_i
* complex rotation (``RotatE``): f(h,r,t) = -||h o r - t||_L1 over complex
  coordinates, with relations stored as phases so |r_i| = 1 holds by
  construction.

Losses: margin hinge with one uniform negative per positive (TransE),
softplus over +-1 labeled triples plus an L2 term on touched rows
(DistMult), and a sigmoid margin loss with k uniform negatives per
positive (RotatE). Every loss draws its negatives through
``corrupt_batch``. Gradients are returned sparsely, only for rows that a
batch actually touches; the subgradient at hinge and L1 kinks is 0.
What depends on a batch's ids alone, the ids each gather reads and each
gradient sum's sort and CSR pattern (``_pattern``), is its plan
(``ModelKind.plan``), which ``sampler``'s helper process may make ahead.
Every model takes the same lazy Adam step, ``adam_step``, whose beta1, beta2
and epsilon are Kingma & Ba's defaults; callers pass only the learning rate.

Each model kind is a frozen dataclass of its hyperparameters that also
carries its own code: entity row width, relation init range, checkpoint
fields, row scorer and the context it takes once per call, loss body,
relation-feature lift and entity projection. The functions below read the
kind and never branch on it. A new kind touches four places: its class,
its name in ``config.MODELS``, its config-to-class step in
``trainer.model_kind`` and its kind code in ``_kind_from_fields``.
One-vs-all scoring is ``score_batch`` over the (|E|, 3) candidate rows, so
it has the bits of triple scoring.

Entity and relation rows of one width (TransE, DistMult) share one
(|E|+|R|, d) table of parameters and one per Adam moment, relation r at row
|E|+r; their gradient is one ``SparseGrad`` keyed ``"entities"`` whose rows
from |E| on are relations. RotatE's (|E|, 2d) and (|R|, d) tables have
gradients keyed ``"entities"`` and ``"relations"``.

A training step works in cache-sized pieces. Each loss body goes through
its positive and negative blocks in chunks of ``_ROW_BLOCK`` rows, writing
scores into a batch-wide vector and gradient rows straight into their rows
of a row-major contribution buffer per table; RotatE takes the trig of the
relation table once per call. TransE scores a chunk's positives and
negatives as one (2, rows, d) block and writes 3n contribution rows for
its 5n ids (g_pos, g_neg and g_pos - g_neg), which the ids read through
signed references. RotatE reads its (|E|, 2d) entity table as (2|E|, d)
half rows, entity e's real half at row 2e and its imaginary half at
2e + 1, so each half is gathered and written as contiguous rows: its ids
hp, tp, hn and tn become the half rows [2e..., 2e + 1...], and half-row id
i reads contribution row i, (gh_re, gh_im) for a head and (da, db) with
sign -1.0 for a tail. Their (2k, d) sums, pair after pair, are the (k, 2d)
rows of the entity gradient. Paired, the ids keep ``_accumulate``'s 16-bit
radix sort up to |E| = 32,768 (FB15k-237 has 14,541), and beyond it are
sorted on 32 bits by comparison. ``_accumulate`` sums a buffer's rows per
touched row in one pass of the plan's CSR pattern, in one call for a small
gradient and else in ranges of touched rows that each zero-fill their own
rows of the sums; DistMult's L2 term gathers and squares the touched rows in row
chunks; ``adam_step`` gathers, updates and checks each table's rows chunk by
chunk and scatters them back in the same chunks. ``score_batch`` scores
in the same row chunks.

The workspace. The contribution buffers, DistMult's gathered L2 rows and
their squares, and Adam's gathered rows are carved from one flat float64
buffer per thread (``_scratch``), grown on demand in blocks of
``_WORKSPACE_BLOCK`` values and reused by every later step of that
thread, so a large batch's buffers stay mapped rather than being mapped,
zero-filled and unmapped on every batch. It belongs to the thread, not to
a store, so two threads can train two stores at once; the contribution
buffers are spent once ``_accumulate`` has returned, and the L2 term and
then ``adam_step`` carve their buffers from the same memory. Nothing a
public function returns lives there: gradient values and scores are
freshly allocated, since they may outlive the next step.

Threads. Every such loop hands its chunks to ``_run_chunks``, which runs
them on a process-wide pool when there are two or more (the calling
thread takes chunks too, and the CPU affinity mask caps the threads) and
inline otherwise, as at the synthetic preset's sizes. The calling thread
alone draws every random number and plans every batch (``corrupt_batch``
and ``plan``; ``sampler`` says when a helper process does both ahead for
an epoch), makes every buffer (from its own workspace), takes every loss
sum (DistMult's L2 sums over the squares its chunks wrote) and decides
the non-finite verdict. The
gradient sums' zero fill, the L2 gather and TransE's projection run in
chunks; of the functions a tracer may wrap, only the projection, which
``adam_step`` is given, may run in a pool thread, and ``adam_step`` runs
one call of it at a time, so a tracer sees those spans one by one inside
the step's span. A chunk only writes its own rows of buffers made before
it runs, every element goes through the same operations in the same
order whichever thread runs it, and a row's norm is one reduction over
that row alone. So losses, gradients and stores are bitwise equal for
any thread count, and to an unchunked, row-major step over separate
entity and relation matrices.

Checkpoint layout (all little-endian, documented here and in README):

    magic   4 bytes  b"KGDN"
    version u32      1
    kind    u8       0=translation, 1=bilinear, 2=rotation
    norm    u8       1 or 2 for TransE's norm, 0 otherwise
    param_a f64      margin (TransE/RotatE) or l2 coefficient (DistMult)
    param_k u32      negatives per positive (0 for TransE)
    n_ent   u64 | n_rel u64 | dim u64 | step u64 | step u64
    entities, relations, m_ent, v_ent, m_rel, v_rel  raw <f8 matrices

The one Adam step count is written twice. ``load_store`` refuses a file
whose remaining size differs from the matrix bytes its header declares,
before it reads or allocates any matrix, and a header whose step counts
differ or whose norm or negatives field is invalid for its kind.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
from scipy.special import expit

from .atomic import atomic_write
from .errors import DataError, NumericError
from .graph import KnowledgeGraph, open_input


# Adam's moment decays and denominator floor (Kingma & Ba's defaults); every
# model and stage shares them, and only the learning rate differs.
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class EmbeddingStore:
    """Entity/relation parameters plus their Adam state, in one table or two.

    ``tables`` lists (gradient key, parameters, m, v) per table, laid out as
    the module docstring says; ``entities``, ``relations`` and their moments
    are row views of them. One Adam step count serves every table.

    Mutation is single-writer; scoring against a store that is not being
    updated is safe for any number of concurrent readers.
    """

    def __init__(self, kind: ModelKind, dim: int, entities: np.ndarray, relations: np.ndarray):
        shared = entities.shape[1] == relations.shape[1]
        params = [np.concatenate([entities, relations])] if shared else [entities, relations]
        self._adopt(kind, dim, len(entities),
                    [(p, np.zeros_like(p), np.zeros_like(p)) for p in params], 0)

    def _adopt(self, kind, dim, n_entities, tables, step) -> None:
        self.kind, self.dim, self.step = kind, dim, step
        self.tables = [(name, *arrays) for name, arrays in zip(("entities", "relations"), tables)]
        if len(tables) == 1:
            tables = [[a[:n_entities] for a in tables[0]], [a[n_entities:] for a in tables[0]]]
        (self.entities, self.m_ent, self.v_ent), (self.relations, self.m_rel, self.v_rel) = tables
        self.n_entities, self.n_relations = len(self.entities), len(self.relations)

    def copy(self) -> "EmbeddingStore":
        store = EmbeddingStore.__new__(EmbeddingStore)
        store._adopt(self.kind, self.dim, self.n_entities,
                     [[a.copy() for a in table[1:]] for table in self.tables], self.step)
        return store

    def matrices(self):
        return (("entities", self.entities, self.m_ent, self.v_ent),
                ("relations", self.relations, self.m_rel, self.v_rel))


def init_embeddings(n_entities: int, n_relations: int, dim: int, kind: ModelKind,
                    seed: int) -> EmbeddingStore:
    """Uniform init: entities in [-6/sqrt(d), 6/sqrt(d)], relations in
    ``kind.relation_range`` (the same, or rotation phases in [0, 2pi)).

    Entities are drawn before relations, so a fixed seed reproduces the
    store bit for bit.
    """
    if dim < 1:
        raise DataError("embedding dimension must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    entities = rng.uniform(-bound, bound, size=(n_entities, kind.entity_parts * dim))
    relations = rng.uniform(*kind.relation_range(bound), size=(n_relations, dim))
    return EmbeddingStore(kind, dim, entities, relations)


# -- scoring -------------------------------------------------------------------


def score_batch(kind: ModelKind, store: EmbeddingStore, triples: np.ndarray) -> np.ndarray:
    """Scores for an (n, 3) array of id triples, computed in row chunks."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    out = np.empty(len(triples))
    context = kind.score_context(store)  # once per call

    def chunk(rows):
        out[rows] = kind.score_rows(store, context, *triples[rows].T)

    _run_chunks(chunk, _row_chunks(len(triples)))
    return out


def score(kind: ModelKind, store: EmbeddingStore, head: int, relation: int, tail: int) -> float:
    return float(score_batch(kind, store, np.array([[head, relation, tail]]))[0])


def score_all_tails(kind: ModelKind, store: EmbeddingStore, head: int, relation: int) -> np.ndarray:
    """Score (head, relation, t) for every entity t."""
    candidates = np.full((store.n_entities, 3), (head, relation, 0), dtype=np.int64)
    candidates[:, 2] = np.arange(store.n_entities)
    return score_batch(kind, store, candidates)


def score_all_heads(kind: ModelKind, store: EmbeddingStore, relation: int, tail: int) -> np.ndarray:
    """Score (h, relation, tail) for every entity h."""
    candidates = np.full((store.n_entities, 3), (0, relation, tail), dtype=np.int64)
    candidates[:, 0] = np.arange(store.n_entities)
    return score_batch(kind, store, candidates)


def relation_features(store: EmbeddingStore, relations: np.ndarray) -> np.ndarray:
    """Relation rows lifted to the entity row width, as agent states and
    relation clustering read them."""
    return store.kind.lift_relations(store.relations[np.asarray(relations, dtype=np.int64)])


# -- negative sampling -----------------------------------------------------------

_MAX_RESAMPLES = 10


def corrupt_batch(graph: KnowledgeGraph, triples: np.ndarray, rng: np.random.Generator,
                  count: int = 1) -> np.ndarray:
    """``count`` negatives per positive, row-major.

    Each negative replaces the head or the tail (fair coin) with a uniform
    entity. A corruption that is a known positive is redrawn up to 10
    times, and the last draw is returned regardless. The first draw is
    made for the whole batch at once, and one ``searchsorted`` pass of its
    codes through the graph's sorted positive index (``known_rows``) finds
    the rows it makes known positives; those are then redrawn row by row,
    in ascending order, each redraw checked against the same index.
    """
    out = np.asarray(triples, dtype=np.int64).reshape(-1, 3).repeat(count, axis=0)
    n = len(out)
    replace_head = rng.random(n) < 0.5
    candidates = rng.integers(0, graph.n_entities, size=n)
    np.copyto(out[:, 0], candidates, where=replace_head)
    np.copyto(out[:, 2], candidates, where=~replace_head)

    # One sorted lookup in the positive index picks out the known positives,
    # in ascending row order; only those rows enter the redraw loop, on plain
    # ints, so the generator is drawn as before.
    hits = graph.known_rows(graph.encode_array(out))
    if not len(hits):
        return out
    for i, (h, r, t), head in zip(hits.tolist(), out[hits].tolist(),
                                  replace_head[hits].tolist()):
        for _ in range(_MAX_RESAMPLES):
            candidate = rng.integers(0, graph.n_entities).item()
            if head:
                h = candidate
            else:
                t = candidate
            if not graph.is_positive(h, r, t):
                break
        out[i, 0], out[i, 2] = h, t
    return out


# -- losses and gradients ----------------------------------------------------------


@dataclass
class SparseGrad:
    """Gradient over the touched rows of one parameter table."""

    rows: np.ndarray    # (k,) unique row ids, ascending
    values: np.ndarray  # (k, width)


# Contribution cells per range of touched rows that _accumulate sums in one
# piece: at most _CELL_BLOCK (8 MB of contributions), and about a quarter of
# a gradient's cells once that quarter exceeds _MIN_CELL_BLOCK, so an
# FB-scale gradient's ranges spread over the chunk pool while a small
# batch's gradient stays one range. A range holds whole rows, so one row
# with more contributions makes a larger range.
_CELL_BLOCK = 1 << 20
_MIN_CELL_BLOCK = 1 << 17
# Rows per chunk of the loss bodies and of adam_step. A chunk's temporaries
# stay within the per-core cache at d=100, and a batch of 32 positives with
# 10 negatives each is a single chunk.
_ROW_BLOCK = 384


def _row_chunks(n: int):
    """Consecutive slices of ``_ROW_BLOCK`` rows covering ``range(n)``; the
    last one may reach past ``n``, so slice only arrays of length ``n``."""
    return map(slice, range(0, n, _ROW_BLOCK), range(_ROW_BLOCK, n + _ROW_BLOCK, _ROW_BLOCK))


# -- the chunk pool ------------------------------------------------------------

# Threads the pool adds to the calling thread, decided on first use: one
# fewer than _step_threads(), so that caller and pool together run at most
# one thread per usable CPU. None until then, and again in a forked child, whose
# copy of the parent's pool has no threads behind it; _pool is None while
# _helpers is 0 or None.
_helpers: int | None = None
_pool: ThreadPoolExecutor | None = None
_max_threads: int | None = None  # a cap that only tests set; None means every usable CPU
_drawing_ahead = False  # while sampler's helper process draws, the pool lends it a thread
_projecting = threading.Lock()  # held by adam_step around each call of project_entities


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _step_threads() -> int:
    """Threads that run chunks: the CPUs in the process's affinity mask
    (``taskset -c`` or ``os.sched_setaffinity`` caps them), or fewer under
    ``_max_threads``.

    ``sampler``'s helper process, which draws negatives ahead, counts as one
    of the threads and starts only with two or more.
    """
    cpus = _usable_cpus()
    return cpus if _max_threads is None else min(cpus, _max_threads)


def _forget_pool() -> None:
    global _helpers, _pool
    _helpers = _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _run_chunks(body, pieces) -> list:
    """``[body(piece) for piece in pieces]``, spread over the chunk pool.

    With two or more pieces and two or more threads, the calling thread and
    the pool's threads take pieces from one queue until it is empty; a pool
    thread runs them in a copy of the caller's context, so the caller's
    ``np.errstate`` holds there too. Once every piece has returned, the
    results come back in piece order, or the exception of the first piece
    that raised is raised. Otherwise the pieces run inline, in order. The
    pieces must be independent: each may write only its own part of shared
    buffers, and none may draw random numbers or call this function.
    """
    global _helpers, _pool
    pieces = list(pieces)
    if len(pieces) > 1 and _helpers is None:
        _helpers = _step_threads() - 1
        _pool = ThreadPoolExecutor(_helpers, "kgedenoise-chunk") if _helpers else None
    if len(pieces) < 2 or _pool is None:
        return list(map(body, pieces))
    results, errors = [None] * len(pieces), [None] * len(pieces)
    todo = deque(range(len(pieces)))  # popleft is atomic

    def drain():
        while todo:
            try:
                i = todo.popleft()
            except IndexError:  # another thread took the last piece
                return
            try:
                results[i] = body(pieces[i])
            except BaseException as exc:  # raised in the caller below
                errors[i] = exc

    helpers = [_pool.submit(contextvars.copy_context().run, drain)
               for _ in range(min(_helpers - _drawing_ahead, len(pieces) - 1))]
    drain()
    # A helper that has not started by now finds nothing to do: cancel it
    # rather than wait for a thread the scheduler has not yet run.
    wait([helper for helper in helpers if not helper.cancel()])
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# -- the workspace ---------------------------------------------------------------

# Values per block of a workspace (64 MiB). Allocating a block only reserves
# address space: a page becomes resident when a buffer first writes it and
# then stays so, where a buffer allocated per batch above glibc's mmap
# threshold is mapped, zero-filled and unmapped on every batch.
_WORKSPACE_BLOCK = 1 << 23
_MAX_VIEW_SETS = 256  # memoised view sets per workspace; more clears them


class _Workspace(threading.local):
    """One thread's flat float64 buffer and the views carved from it."""

    def __init__(self):
        self.flat = np.empty(0)
        self.views = {}


_workspace = _Workspace()


def _scratch(*shapes: tuple[int, int]) -> tuple:
    """Row-major views of the calling thread's workspace, one per
    ``(rows, cols)`` shape, back to back from its start.

    The views of one call are disjoint, but every call starts at the same
    place, so a caller must be done with its views before its thread calls
    again. Nothing a public function returns may live here. The views of
    given arguments are memoised, since building them costs as much as a
    small batch's ``np.empty`` calls.
    """
    workspace = _workspace
    views = workspace.views.get(shapes)
    if views is not None:
        return views
    total = sum(rows * cols for rows, cols in shapes)
    if total > len(workspace.flat):
        workspace.flat = np.empty(-(-total // _WORKSPACE_BLOCK) * _WORKSPACE_BLOCK)
        workspace.views.clear()
    elif len(workspace.views) >= _MAX_VIEW_SETS:
        workspace.views.clear()
    views, start = [], 0
    for rows, cols in shapes:
        views.append(workspace.flat[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    workspace.views[shapes] = views = tuple(views)
    return views


class _Pattern(NamedTuple):
    """A gradient sum's touched rows, ascending, and its CSR matrix over
    ``n_contribs`` contribution rows: a row per touched row, its ids'
    contribution rows (``order``) and +-1.0 (``data``) in id order."""

    unique: np.ndarray
    indptr: np.ndarray
    order: np.ndarray
    data: np.ndarray
    n_contribs: int


def _pattern(rows: np.ndarray, n_rows: int, n_contribs: int,
             refs: np.ndarray | None = None, signs: np.ndarray | None = None) -> _Pattern:
    """The ``_Pattern`` of ``_accumulate``'s arguments but ``contribs``, of
    ``n_contribs`` rows. One stable sort of the ids, run on their narrowest
    unsigned copy (which numpy radix-sorts up to 16 bits), lines up each
    touched row's contributions in input order."""
    n = len(rows)
    counts = np.bincount(rows, minlength=n_rows)
    # Else the sort key would wrap an id, or the kernel read past the contributions.
    sizes = {n_contribs} if refs is None else {len(refs), len(signs)}
    if len(counts) != n_rows or sizes != {n}:
        raise ValueError(f"want one contribution per row id in [0, {n_rows}), "
                         f"got {n} ids up to {len(counts) - 1}")
    unique = counts.nonzero()[0]
    order = rows.astype(np.min_scalar_type(n_rows - 1)).argsort(kind="stable")
    indptr = np.empty(len(unique) + 1, dtype=np.intp)
    indptr[0] = 0
    counts[unique].cumsum(out=indptr[1:])
    if refs is None:
        return _Pattern(unique, indptr, order, np.ones(n), n_contribs)
    return _Pattern(unique, indptr, refs.take(order), signs.take(order), n_contribs)


def _accumulate(rows: np.ndarray | _Pattern, contribs: np.ndarray, n_rows: int,
                refs: np.ndarray | None = None, signs: np.ndarray | None = None) -> SparseGrad:
    """Sum the contributions of the ids in ``rows`` per row id in ``[0, n_rows)``.

    Id i contributes ``contribs[i]``, or ``signs[i] * contribs[refs[i]]``
    given signed references (a row of ``contribs`` and a +-1.0 per id).
    ``rows`` may instead be the ids' ``_pattern``, made ahead; one made for
    another number of contribution rows raises ``ValueError``.
    ``csr_matvecs`` multiplies the pattern's CSR matrix by the row-major
    ``contribs`` into zeros, so each sum is 0.0 + s1*c1 + s2*c2 + ... in
    input order: bitwise ``np.add.at`` of the signed rows into zeros, as a
    product with +-1.0 is exact. Up to one range's cells are summed in one
    call; more in ranges of touched rows, sized as the ``_CELL_BLOCK``
    comment says, on the chunk pool, each zero-filling its own rows of the
    fresh result just before the kernel adds into them.
    """
    if not isinstance(rows, _Pattern):
        rows = _pattern(rows, n_rows, len(contribs), refs, signs)
    unique, indptr, order, data, n_contribs = rows
    if n_contribs != len(contribs):
        raise ValueError(f"the pattern reads {n_contribs} contribution rows, got {len(contribs)}")
    n, k, width = len(order), len(unique), contribs.shape[1]
    cells = min(_CELL_BLOCK, max(_MIN_CELL_BLOCK, n * width // 4))
    if n * width <= cells:
        acc = np.zeros((k, width))
        _csr_matvecs(k, n_contribs, width, indptr, order, data, contribs, acc)
        return SparseGrad(unique, acc)
    acc = np.empty((k, width))
    # A range starts at each touched row that holds a contribution numbered
    # a multiple of cells // width: the row whose end lies past it.
    firsts = np.searchsorted(indptr[1:], np.arange(0, n, max(1, cells // width)), "right")
    bounds = [*dict.fromkeys(firsts.tolist()), k]

    def range_sum(piece):
        lo, hi = piece
        out = acc[lo:hi]
        out.fill(0.0)
        _csr_matvecs(hi - lo, n_contribs, width, indptr[lo:hi + 1], order, data, contribs, out)

    _run_chunks(range_sum, zip(bounds, bounds[1:]))
    return SparseGrad(unique, acc)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


# Each loss body below works through its triples in row chunks, on the chunk
# pool. A chunk writes its scores into a batch-wide vector and its gradient
# rows straight into their rows of one row-major contribution buffer per
# table, carved from the workspace; every loss sum is taken once, in the
# calling thread, over the whole vector, as numpy's pairwise sum depends on
# its length. Negatives are drawn before any chunk runs. Rows are gathered
# with ``ndarray.take``, which copies the same values as fancy indexing in
# about half the time at the synthetic preset's sizes.


# -- model kinds -----------------------------------------------------------------


class ModelKind:
    """What a model kind supplies, with TransE's and DistMult's defaults.

    Each kind also defines ``header_fields`` (its checkpoint kind, norm
    code, float parameter and negatives), ``score_rows``, ``plan`` (the ids
    its gathers read, then each gradient table's ``_pattern``) and
    ``loss_grad``, which makes the plan itself when not given one.
    """

    entity_parts = 1            # entity row width in units of dim
    negatives = 1               # negatives per positive
    projects_entities = False   # training projects updated entity rows (TransE)

    def relation_range(self, bound: float) -> tuple[float, float]:
        """Init range of relation rows; entity rows draw from [-bound, bound]."""
        return -bound, bound

    def score_context(self, store: EmbeddingStore):
        """What ``score_rows`` needs from the whole store, taken once per call."""
        return None

    def lift_relations(self, rows: np.ndarray) -> np.ndarray:
        """Relation rows as real vectors of the entity row width."""
        return rows


@functools.lru_cache(maxsize=8)
def _transe_refs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed references of a TransE batch of ``n``: ids hp, tp, hn, tn and r
    read rows g_pos, g_pos, g_neg, g_neg and g_pos - g_neg as +, -, -, +, +."""
    refs = np.arange(3 * n).reshape(3, n)[[0, 0, 1, 1, 2]].ravel()
    return refs, np.repeat([1.0, -1.0, -1.0, 1.0, 1.0], n)


@dataclass(frozen=True)
class TransE(ModelKind):
    norm: str = "l1"  # "l1" or "l2"
    margin: float = 1.0

    projects_entities = True

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise DataError(f"unsupported norm {self.norm!r}")

    def header_fields(self):
        return 0, 1 if self.norm == "l1" else 2, self.margin, 0

    def score_rows(self, store, context, h, r, t):
        delta = store.entities[h] + store.relations[r] - store.entities[t]
        return (-np.abs(delta).sum(axis=1) if self.norm == "l1"
                else -np.sqrt((delta * delta).sum(axis=1)))

    def plan(self, positives, negatives, n_entities, n_relations):
        # The ids hp, tp, hn, tn and r + |E| read rows of the shared table.
        n = len(positives)
        ids = np.concatenate([positives[:, 0], positives[:, 2], negatives[:, 0], negatives[:, 2],
                              positives[:, 1] + n_entities])
        return ids, _pattern(ids, n_entities + n_relations, 3 * n, *_transe_refs(n))

    def loss_grad(self, store, positives, negatives, plan=None):
        ids, pattern = plan or self.plan(positives, negatives, store.n_entities,
                                         store.n_relations)
        ent, rel = store.entities, store.relations
        n, r = len(positives), positives[:, 1]
        # Positives over negatives: heads (hp, hn) and tails (tp, tn) of shape (2, n).
        quads = ids[:4 * n].reshape(4, n)
        heads, tails = quads[0::2], quads[1::2]
        violation = np.empty(n)
        # Rows g_pos (the gradient in h of the positives' distances), g_neg and
        # g_pos - g_neg; inactive rows hold zeros. The ids hp, tp, hn, tn and r
        # add them as +g_pos, -g_pos, -g_neg, +g_neg and +(g_pos - g_neg).
        contrib, = _scratch((3 * n, store.dim))
        grads, g_r = contrib[:2 * n].reshape(2, n, store.dim), contrib[2 * n:]

        def chunk(rows):
            # Distances ||h + r - t|| of positives and negatives as one block.
            delta = ent.take(heads[:, rows], 0)
            delta += rel.take(r[rows], 0)
            delta -= ent.take(tails[:, rows], 0)
            grad = grads[:, rows]
            if self.norm == "l1":
                np.sign(delta, out=grad)
                dist = np.abs(delta, out=delta).sum(axis=2)
            else:
                dist = np.sqrt((delta * delta).sum(axis=2))
                live = dist > 0.0
                np.divide(delta, np.where(live, dist, 1.0)[..., None], out=grad)
                grad[~live] = 0.0
            # f_neg - f_pos + margin with f = -distance, bit for bit.
            v = np.subtract(dist[0], dist[1], out=violation[rows])
            v += self.margin
            grad[:, ~(v > 0.0)] = 0.0
            np.subtract(grad[0], grad[1], out=g_r[rows])

        _run_chunks(chunk, _row_chunks(n))
        loss = float(violation[violation > 0.0].sum())
        return loss, {"entities": _accumulate(pattern, contrib,
                                              store.n_entities + store.n_relations)}


@dataclass(frozen=True)
class DistMult(ModelKind):
    l2_coeff: float = 1e-5
    negatives: int = 10

    def header_fields(self):
        return 1, 0, self.l2_coeff, self.negatives

    def score_rows(self, store, context, h, r, t):
        return (store.entities[h] * store.relations[r] * store.entities[t]).sum(axis=1)

    def plan(self, positives, negatives, n_entities, n_relations):
        # The ids h, t and r + |E| of the labeled triples read rows of the shared table.
        labeled = np.concatenate([positives, negatives])
        ids = np.concatenate([labeled[:, 0], labeled[:, 2], labeled[:, 1] + n_entities])
        return ids, _pattern(ids, n_entities + n_relations, len(ids))

    def loss_grad(self, store, positives, negatives, plan=None):
        ids, pattern = plan or self.plan(positives, negatives, store.n_entities,
                                         store.n_relations)
        neg_y = np.repeat([-1.0, 1.0], [len(positives), len(negatives)])  # -label
        params = store.tables[0][1]
        n = len(positives) + len(negatives)
        h, t, r = ids.reshape(3, n)

        z = np.empty(n)
        # Rows h, t and r of the labeled triples.
        contrib, = _scratch((3 * n, store.dim))
        g_h, g_t, g_r = contrib[:n], contrib[n:2 * n], contrib[2 * n:]

        def chunk(rows):
            # (eh er et summed per row, in the rows of h) and then dldf (er et),
            # (dldf eh) er and (dldf eh) et.
            eh, er, et = params.take(h[rows], 0), params.take(r[rows], 0), params.take(t[rows], 0)
            gh = np.multiply(eh, er, out=g_h[rows])
            gh *= et
            y_rows = neg_y[rows]
            z_rows = np.multiply(y_rows, gh.sum(axis=1), out=z[rows])
            dldf = (y_rows * expit(z_rows))[:, None]
            np.multiply(dldf, er, out=gh)
            gh *= et
            eh *= dldf
            np.multiply(eh, er, out=g_t[rows])
            np.multiply(eh, et, out=g_r[rows])

        _run_chunks(chunk, _row_chunks(n))
        loss = float(_softplus(z).sum())
        grad = _accumulate(pattern, contrib, len(params))
        loss += self._l2_term(store, grad)
        return loss, {"entities": grad}

    def _l2_term(self, store, grad):
        """L2 loss over the distinct touched rows; adds its gradient 2 l2 p to ``grad``.

        The rows are gathered and squared in row chunks, into workspace
        buffers: the contribution buffers are spent once ``_accumulate`` has
        returned. Entity and relation rows are summed apart, each in one
        pairwise sum over all of its rows.
        """
        params, rows, values = store.tables[0][1], grad.rows, grad.values
        touched, squares = _scratch(values.shape, values.shape)
        scale = 2.0 * self.l2_coeff

        def chunk(part):
            p = params.take(rows[part], 0, touched[part], "clip")
            np.square(p, out=squares[part])
            p *= scale
            values[part] += p

        _run_chunks(chunk, _row_chunks(len(rows)))
        split = np.searchsorted(rows, store.n_entities)
        return self.l2_coeff * float(squares[:split].sum() + squares[split:].sum())


def _rotate_trig(store: EmbeddingStore):
    """(cos, sin) of every relation phase, one row per relation."""
    return np.cos(store.relations), np.sin(store.relations)


_HALVES = np.array([[0], [1]])


def _half_rows(ids: np.ndarray) -> np.ndarray:
    """Rows of entity ``ids`` in the (2|E|, d) half-row view of RotatE's
    entity table: real halves 2e over imaginary halves 2e + 1, shape (2, n)."""
    return 2 * ids + _HALVES


@functools.lru_cache(maxsize=8)
def _rotate_refs(n_pos: int, n_neg: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed references of a RotatE batch: half-row id i reads contribution
    row i, as + for the heads (hp, hn) and - for the tails (tp, tn)."""
    signs = np.repeat([1.0, -1.0, 1.0, -1.0], [n_pos, n_pos, n_neg, n_neg])
    return np.arange(2 * len(signs)), np.tile(signs, 2)


@dataclass(frozen=True)
class RotatE(ModelKind):
    margin: float = 5.0
    negatives: int = 10

    entity_parts = 2  # real and imaginary halves

    def relation_range(self, bound):
        return 0.0, 2.0 * np.pi

    def score_context(self, store):
        return _rotate_trig(store)

    def lift_relations(self, rows):
        # Phases as (cos, sin) pairs: real vectors comparable across relations.
        return np.concatenate([np.cos(rows), np.sin(rows)], axis=1)

    def header_fields(self):
        return 2, 0, self.margin, self.negatives

    def _residual(self, store: EmbeddingStore, trig, h: np.ndarray, r: np.ndarray, t: np.ndarray):
        """Per-dimension residual (a, b) of h o r - t and its modulus.

        ``r`` is an index array; ``h`` and ``t`` are (2, n) half-row ids
        (``_half_rows``), so one ``take`` on the (2|E|, d) view of the entity
        table gathers both halves of each as contiguous rows. ``trig`` is
        ``score_context(store)``; its rows are gathered, so the trig is taken
        once per relation rather than once per triple.
        """
        halves = store.entities.reshape(-1, store.dim)
        h_re, h_im = halves.take(h, 0)
        t_re, t_im = halves.take(t, 0)
        cos, sin = trig[0].take(r, 0), trig[1].take(r, 0)
        # a = h_re cos - h_im sin - t_re, b = h_re sin + h_im cos - t_im and
        # sqrt(a a + b b), evaluated in that order, reusing the gathered halves
        # of h once they are spent.
        a = h_re * cos
        modulus = h_im * sin
        a -= modulus
        a -= t_re
        b = np.multiply(h_re, sin, out=h_re)
        b += np.multiply(h_im, cos, out=h_im)
        b -= t_im
        np.multiply(a, a, out=modulus)
        modulus += np.multiply(b, b, out=h_im)
        np.sqrt(modulus, out=modulus)
        return a, b, modulus, cos, sin, t_re, t_im

    def score_rows(self, store, context, h, r, t):
        """-||h o r - t||_L1 of entity ids ``h``, ``t`` and relation ids ``r``,
        their entity rows gathered as half rows."""
        return -self._residual(store, context, _half_rows(h), r, _half_rows(t))[2].sum(axis=1)

    def plan(self, positives, negatives, n_entities, n_relations):
        # Half rows of the ids hp, tp, hn, tn, real over imaginary. Entity
        # contribution row i belongs to id i: (gh_re, gh_im) for a head and
        # (da, db) for a tail, which reads it with sign -1.0.
        n_pos, n_neg = len(positives), len(negatives)
        ids = _half_rows(np.concatenate([positives[:, 0], positives[:, 2],
                                         negatives[:, 0], negatives[:, 2]])).ravel()
        rel_rows = np.concatenate([positives[:, 1], negatives[:, 1]])
        return (ids, _pattern(ids, 2 * n_entities, len(ids), *_rotate_refs(n_pos, n_neg)),
                _pattern(rel_rows, n_relations, len(rel_rows)))

    def loss_grad(self, store, positives, negatives, plan=None):
        ids, ent_pattern, rel_pattern = plan or self.plan(positives, negatives,
                                                          store.n_entities, store.n_relations)
        k = self.negatives
        eta = self.margin
        trig = self.score_context(store)
        d = store.dim
        n_pos, n_neg = len(positives), len(negatives)
        n = n_pos + n_neg
        ids = ids.reshape(2, 2 * n)
        ent_contrib, rel_contrib = _scratch((4 * n, d), (n, d))
        ent_blocks = ent_contrib.reshape(2, 2 * n, d)

        def terms(tr, heads, tails, dldf_of, g_r):
            """Scores of a triple block, chained into entity-row and phase gradients."""
            f = np.empty(len(tr))
            h, t, r = ids[:, heads], ids[:, tails], tr[:, 1]
            g_h, g_t = ent_blocks[:, heads], ent_blocks[:, tails]

            def chunk(rows):
                a, b, modulus, cos, sin, t_re, t_im = self._residual(
                    store, trig, h[:, rows], r[rows], t[:, rows])
                f_rows = np.negative(modulus.sum(axis=1), out=f[rows])
                neg_dldf = -dldf_of(f_rows)[:, None]
                # (da, db) = -(a, b) / modulus * dldf where the modulus is
                # nonzero and 0 * dldf elsewhere, as (a, b) / modulus, or -0.0,
                # times -dldf: the same products, sign for sign.
                zero = ~(modulus > 0.0)
                np.copyto(modulus, 1.0, where=zero)
                da = np.divide(a, modulus, out=g_t[0, rows])
                np.copyto(da, -0.0, where=zero)
                da *= neg_dldf
                db = np.divide(b, modulus, out=g_t[1, rows])
                np.copyto(db, -0.0, where=zero)
                db *= neg_dldf
                # Rows gr = db (a + t_re) - da (b + t_im) and gh = (da cos +
                # db sin, db cos - da sin), with the spent b as scratch; the
                # tails' gt = -(da, db) is the sign of their references.
                gr = np.add(a, t_re, out=g_r[rows])
                gr *= db
                b += t_im
                b *= da
                gr -= b
                gh_re, gh_im = g_h[:, rows]
                np.multiply(db, cos, out=gh_im)
                gh_im -= np.multiply(da, sin, out=b)
                np.multiply(da, cos, out=gh_re)
                gh_re += np.multiply(db, sin, out=b)

            _run_chunks(chunk, _row_chunks(len(tr)))
            return f

        f_pos = terms(positives, slice(0, n_pos), slice(n_pos, 2 * n_pos),
                      lambda f: -expit(-(eta + f)), rel_contrib[:n_pos])
        f_neg = terms(negatives, slice(2 * n_pos, n + n_pos), slice(n + n_pos, 2 * n),
                      lambda f: expit(eta + f) / k, rel_contrib[n_pos:])
        loss = float(_softplus(-(eta + f_pos)).sum() + _softplus(eta + f_neg).sum() / k)
        # Half rows 2e and 2e + 1 are both touched or neither, so their sums,
        # row after row, are the (k, 2d) rows of the entity gradient.
        halves = _accumulate(ent_pattern, ent_contrib, 2 * store.n_entities)
        return loss, {
            "entities": SparseGrad(halves.rows[::2] >> 1, halves.values.reshape(-1, 2 * d)),
            "relations": _accumulate(rel_pattern, rel_contrib, store.n_relations),
        }


def loss_and_grad(kind: ModelKind, store: EmbeddingStore, graph: KnowledgeGraph,
                  positives: np.ndarray, rng: np.random.Generator,
                  negatives: np.ndarray | None = None, *, plan: tuple | None = None):
    """Batch loss and sparse gradients over the rows the batch touches.

    Unless ``negatives`` holds the batch's draws, made ahead, they are drawn
    here with ``corrupt_batch`` against the graph's positive index. Unless
    ``plan`` holds ``kind.plan`` of the batch, made ahead with the negatives,
    the loss body makes it; the gradients' rows may be the plan's. The
    returned loss is the sum over the batch (Adam's update direction is
    invariant to that scale).
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    if len(positives) == 0:
        raise DataError("loss_and_grad requires a nonempty batch of positives")
    if negatives is None:
        negatives = corrupt_batch(graph, positives, rng, kind.negatives)
    if plan is None:
        return kind.loss_grad(store, positives, negatives)
    return kind.loss_grad(store, positives, negatives, plan)


# -- optimizer -----------------------------------------------------------------


def _non_finite_row(store: EmbeddingStore, name: str, rows: np.ndarray,
                    block: np.ndarray) -> str | None:
    """``<matrix> row <id>`` of the first non-finite ``block`` row, or None.

    A finite sum proves every entry finite, so the entrywise scan runs only
    when the sum is not: an entry is inf or nan, or finite entries overflow.
    Rows from |E| on of a shared table are named as relations.
    """
    if math.isfinite(block.sum()):
        return None
    bad = ~np.isfinite(block).all(axis=1)
    if not bad.any():
        return None
    row = int(rows[bad][0])
    if name == "entities" and row >= store.n_entities:
        name, row = "relations", row - store.n_entities
    return f"{name} row {row}"


def adam_step(store: EmbeddingStore, grads: dict[str, SparseGrad], learning_rate: float,
              project_entities=None) -> None:
    """Bias-corrected Adam update on touched rows only, at ``learning_rate``
    with beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-8.

    The store's step count advances once per call; rows absent from the
    gradient keep their parameters and moments bitwise unchanged
    (lazy/sparse Adam semantics). Each table's touched rows of parameters
    and moments are gathered, updated and checked in row chunks on the
    chunk pool, and scattered back in the same chunks only once every
    chunk has passed. ``project_entities``, if given, projects each
    chunk's updated entity rows in place once the chunk has passed its
    finite check, in whichever thread runs the chunk (TransE's unit-norm
    projection), never a shared table's relation rows; it must read and
    write only the block it is given. Its calls never overlap, so it may
    be a wrapper that is not thread-safe, such as a tracer's timer.
    A non-finite gradient or updated parameter raises ``NumericError``
    before anything of that table is stored; the first bad gradient row
    is reported before any bad parameter. The gradient is scanned only in
    a chunk whose updated parameters are not all finite, which an inf or
    nan gradient entry always makes so. A gradient whose rows are not 1-D,
    strictly ascending ids of its table, or whose values are not of shape
    (rows, table width), raises ``ValueError`` before the step count
    advances.
    """
    for name, params, _, _ in store.tables:
        grad = grads.get(name)
        if grad is None:
            continue
        # Else the "clip" gather would read the nearest row for an id out of
        # range, the scatter keep only the last update of a repeated id, and
        # values broadcast across the columns. count_nonzero costs about a
        # third of .all() at the synthetic preset's sizes.
        rows = grad.rows
        if rows.ndim != 1 or len(rows) and (
                rows[0] < 0 or rows[-1] >= len(params) or np.count_nonzero(rows[1:] <= rows[:-1])):
            raise ValueError(f"{name} gradient rows must be strictly ascending ids "
                             f"in [0, {len(params)})")
        if grad.values.shape != (len(rows), params.shape[1]):
            raise ValueError(f"{name} gradient values have shape {grad.values.shape}, "
                             f"want {(len(rows), params.shape[1])}")
    store.step += 1
    bias1 = 1.0 - _BETA1 ** store.step
    bias2 = 1.0 - _BETA2 ** store.step
    # An inf gradient entry makes inf / inf, which the scan reports as a
    # NumericError, not a warning. Pool threads run in a copy of this context.
    with np.errstate(invalid="ignore"):
        for name, params, m, v in store.tables:
            grad = grads.get(name)
            if grad is None or len(grad.rows) == 0:
                continue
            rows = grad.rows
            shape = (len(rows), params.shape[1])
            m_rows, v_rows, p_rows = _scratch(shape, shape, shape)
            # Rows below |E| are entities: a shared table's relations stay free.
            projected = (rows.searchsorted(store.n_entities)
                         if project_entities is not None and name == "entities" else 0)

            def update(chunk):
                """(bad gradient, bad parameter) messages of a chunk, or Nones."""
                ids, g = rows[chunk], grad.values[chunk]
                # The rows are checked in range above; "clip" lets take write
                # straight into the buffer, where "raise" would copy through a
                # temporary allocated in this thread. (Positional arguments: at
                # the synthetic preset's sizes, parsing keywords costs as much.)
                m_chunk = m.take(ids, 0, m_rows[chunk], "clip")
                v_chunk = v.take(ids, 0, v_rows[chunk], "clip")
                p_chunk = params.take(ids, 0, p_rows[chunk], "clip")
                # In place, but each element sees the same operations in the same
                # order as  m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*(g*g),
                # p -= lr * m_hat / (sqrt(v_hat) + eps).
                m_chunk *= _BETA1
                m_chunk += (1.0 - _BETA1) * g
                v_chunk *= _BETA2
                g_sq = g * g
                g_sq *= 1.0 - _BETA2
                v_chunk += g_sq
                delta = m_chunk / bias1
                delta *= learning_rate
                denom = v_chunk / bias2
                np.sqrt(denom, out=denom)
                denom += _EPSILON
                delta /= denom
                p_chunk -= delta
                # An inf or nan gradient entry makes its parameter nan (inf/inf in
                # the update, or nan throughout), so finite parameters prove the
                # gradient finite, and only a non-finite sum needs the scans.
                if not math.isfinite(p_chunk.sum()):
                    bad = _non_finite_row(store, name, ids, g)
                    if bad is not None:
                        return f"non-finite gradient for {bad}", None
                    bad = _non_finite_row(store, name, ids, p_chunk)
                    if bad is not None:
                        return None, f"non-finite parameter after update: {bad}"
                if chunk.start < projected:
                    with _projecting:
                        project_entities(p_chunk[:projected - chunk.start])
                return None, None

            def scatter(chunk):
                ids = rows[chunk]
                m[ids], v[ids], params[ids] = m_rows[chunk], v_rows[chunk], p_rows[chunk]

            chunks = list(_row_chunks(len(rows)))
            grad_bad, param_bad = zip(*_run_chunks(update, chunks))
            message = next(filter(None, grad_bad + param_bad), None)
            if message is not None:
                raise NumericError(message)
            _run_chunks(scatter, chunks)


# -- checkpoint IO ----------------------------------------------------------------

_MAGIC = b"KGDN"
_VERSION = 1
_HEADER = struct.Struct("<4sIBBdIQQQQQ")


def _kind_from_fields(code: int, norm: int, param_a: float, param_k: int) -> ModelKind:
    if code == 0:
        if norm not in (1, 2):
            raise DataError(f"TransE norm code must be 1 or 2, got {norm}")
        return TransE(norm="l1" if norm == 1 else "l2", margin=param_a)
    if code in (1, 2) and param_k < 1:
        raise DataError(f"negatives per positive must be >= 1, got {param_k}")
    if code == 1:
        return DistMult(l2_coeff=param_a, negatives=param_k)
    if code == 2:
        return RotatE(margin=param_a, negatives=param_k)
    raise DataError(f"unknown model kind code {code} in checkpoint")


def save_store(path, store: EmbeddingStore) -> None:
    header = _HEADER.pack(_MAGIC, _VERSION, *store.kind.header_fields(),
                          store.n_entities, store.n_relations, store.dim,
                          store.step, store.step)
    with atomic_write(path, binary=True) as handle:
        handle.write(header)
        write_matrices(handle, path, ((name, getattr(store, name)) for name in
                                      ("entities", "relations", "m_ent", "v_ent", "m_rel", "v_rel")))


def write_matrices(handle, path, named) -> None:
    """Write each ``(name, matrix)`` of ``named`` as raw <f8 bytes.

    A matrix is converted, then checked, then written: one that holds a
    non-finite value raises ``NumericError``, so no command writes a
    checkpoint that ``read_matrices`` refuses.
    """
    for name, matrix in named:
        data = np.ascontiguousarray(matrix, dtype="<f8")
        if not np.isfinite(data).all():
            raise NumericError(f"cannot write {path}: {name} holds a non-finite value")
        handle.write(data.tobytes())


def read_matrices(handle, path, shapes) -> list[np.ndarray]:
    """Read raw <f8 matrices of the given shapes that fill the rest of ``handle``.

    The declared size and every dimension are checked against the bytes
    left in the file before anything is read, so a forged header cannot
    demand a huge allocation or a matrix too large to shape. A non-finite
    value anywhere is refused too: nothing trained can hold one, and scores
    from it would rank every query 0.
    """
    declared = 8 * sum(rows * cols for rows, cols in shapes)
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if declared != left:
        raise DataError(f"{path}: header declares {declared} matrix bytes but {left} follow")
    if max(max(shape) for shape in shapes) > left:
        raise DataError(f"{path}: header declares a matrix dimension above the file size")
    matrices = []
    for rows, cols in shapes:
        data = handle.read(rows * cols * 8)
        matrix = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(rows, cols)
        if not np.isfinite(matrix).all():
            raise DataError(f"{path}: checkpoint holds a non-finite value")
        matrices.append(matrix)
    return matrices


def load_store(path) -> EmbeddingStore:
    with open_input(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DataError(f"{path}: truncated checkpoint header")
        magic, version, code, norm, param_a, param_k, n_ent, n_rel, dim, step_e, step_r = \
            _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise DataError(f"{path}: not a model checkpoint (bad magic)")
        if version != _VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        if step_e != step_r:
            raise DataError(f"{path}: step counts differ ({step_e} and {step_r})")
        kind = _kind_from_fields(code, norm, param_a, param_k)
        ent_shape = (n_ent, kind.entity_parts * dim)
        rel_shape = (n_rel, dim)
        entities, relations, *moments = read_matrices(
            handle, path, [ent_shape, rel_shape, ent_shape, ent_shape, rel_shape, rel_shape])
    store = EmbeddingStore(kind, dim, entities, relations)
    store.m_ent[...], store.v_ent[...], store.m_rel[...], store.v_rel[...] = moments
    store.step = step_e
    return store
