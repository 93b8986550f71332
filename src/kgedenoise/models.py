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

Entity and relation rows of one width (TransE, DistMult) share one
(|E|+|R|, d) table of parameters and one per Adam moment, relation r at row
|E|+r; their gradient is one ``SparseGrad`` keyed ``"entities"`` whose rows
from |E| on are relations. RotatE's (|E|, 2d) and (|R|, d) tables have
gradients keyed ``"entities"`` and ``"relations"``.

A training step works in cache-sized pieces. Each loss body goes through
its positive and negative blocks in chunks of ``_ROW_BLOCK`` rows, writing
scores into a batch-wide vector and gradient rows into a column-major
contribution buffer per table; RotatE takes the trig of the relation table
once per call. ``_accumulate`` sums a buffer's rows per touched row with
``np.bincount`` over column-major cells, and ``adam_step`` updates each
table's gathered rows chunk by chunk before one scatter. Losses, gradients
and stores are bitwise equal to an unchunked, row-major step over separate
entity and relation matrices. ``score_batch`` scores in the same chunks.

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

import math
import os
import struct
from dataclasses import dataclass
from itertools import compress
from typing import Union

import numpy as np
from scipy.special import expit

from .atomic import atomic_write
from .errors import DataError, NumericError
from .graph import KnowledgeGraph


@dataclass(frozen=True)
class TransE:
    norm: str = "l1"  # "l1" or "l2"
    margin: float = 1.0

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise DataError(f"unsupported norm {self.norm!r}")


@dataclass(frozen=True)
class DistMult:
    l2_coeff: float = 1e-5
    negatives: int = 10


@dataclass(frozen=True)
class RotatE:
    margin: float = 5.0
    negatives: int = 10


ModelKind = Union[TransE, DistMult, RotatE]

_KIND_CODES = {TransE: 0, DistMult: 1, RotatE: 2}


def entity_width(kind: ModelKind, dim: int) -> int:
    return 2 * dim if isinstance(kind, RotatE) else dim


@dataclass
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise DataError("Adam betas must lie strictly between 0 and 1")
        if self.epsilon <= 0.0:
            raise DataError("Adam epsilon must be positive")


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

    @classmethod
    def from_tables(cls, kind: ModelKind, dim: int, n_entities: int, tables,
                    step: int = 0) -> "EmbeddingStore":
        """A store holding the given (parameters, m, v) tables, uncopied."""
        store = cls.__new__(cls)
        store._adopt(kind, dim, n_entities, tables, step)
        return store

    def _adopt(self, kind, dim, n_entities, tables, step) -> None:
        self.kind, self.dim, self.step = kind, dim, step
        self.tables = [(name, *arrays) for name, arrays in zip(("entities", "relations"), tables)]
        if len(tables) == 1:
            tables = [[a[:n_entities] for a in tables[0]], [a[n_entities:] for a in tables[0]]]
        (self.entities, self.m_ent, self.v_ent), (self.relations, self.m_rel, self.v_rel) = tables
        self.n_entities, self.n_relations = len(self.entities), len(self.relations)

    def copy(self) -> "EmbeddingStore":
        return EmbeddingStore.from_tables(self.kind, self.dim, self.n_entities,
                                          [[a.copy() for a in table[1:]] for table in self.tables],
                                          self.step)

    def matrices(self):
        return (("entities", self.entities, self.m_ent, self.v_ent),
                ("relations", self.relations, self.m_rel, self.v_rel))


def init_embeddings(n_entities: int, n_relations: int, dim: int, kind: ModelKind,
                    seed: int) -> EmbeddingStore:
    """Uniform init in [-6/sqrt(d), 6/sqrt(d)]; rotation phases in [0, 2pi).

    Entities are drawn before relations, so a fixed seed reproduces the
    store bit for bit; a shared table's one draw gives the same numbers.
    """
    if dim < 1:
        raise DataError("embedding dimension must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    if isinstance(kind, RotatE):
        return EmbeddingStore(kind, dim, rng.uniform(-bound, bound, size=(n_entities, 2 * dim)),
                              rng.uniform(0.0, 2.0 * np.pi, size=(n_relations, dim)))
    table = rng.uniform(-bound, bound, size=(n_entities + n_relations, dim))
    return EmbeddingStore.from_tables(kind, dim, n_entities,
                                      [(table, np.zeros_like(table), np.zeros_like(table))])


# -- scoring -------------------------------------------------------------------


def _rotate_trig(store: EmbeddingStore):
    """(cos, sin) of every relation phase, one row per relation."""
    return np.cos(store.relations), np.sin(store.relations)


def _rotate_parts(store: EmbeddingStore, trig, h: np.ndarray, r: np.ndarray, t: np.ndarray):
    """Per-dimension residual (a, b) of h o r - t and its modulus.

    ``h``, ``r`` and ``t`` are index arrays. ``trig`` is
    ``_rotate_trig(store)``; its rows are gathered, so the trig is taken
    once per relation rather than once per triple.
    """
    d = store.dim
    ent = store.entities
    h_re, h_im = ent[h, :d], ent[h, d:]
    t_re, t_im = ent[t, :d], ent[t, d:]
    cos, sin = trig[0][r], trig[1][r]
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


def score_batch(kind: ModelKind, store: EmbeddingStore, triples: np.ndarray) -> np.ndarray:
    """Scores for an (n, 3) array of id triples, computed in row chunks."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    out, trig = np.empty(len(triples)), None
    for rows in _row_chunks(len(triples)):
        h, r, t = triples[rows].T
        if isinstance(kind, TransE):
            delta = store.entities[h] + store.relations[r] - store.entities[t]
            out[rows] = (-np.abs(delta).sum(axis=1) if kind.norm == "l1"
                         else -np.sqrt((delta * delta).sum(axis=1)))
        elif isinstance(kind, DistMult):
            out[rows] = (store.entities[h] * store.relations[r] * store.entities[t]).sum(axis=1)
        else:
            trig = trig or _rotate_trig(store)  # once per call
            out[rows] = -_rotate_parts(store, trig, h, r, t)[2].sum(axis=1)
    return out


def score(kind: ModelKind, store: EmbeddingStore, head: int, relation: int, tail: int) -> float:
    return float(score_batch(kind, store, np.array([[head, relation, tail]]))[0])


def score_all_tails(kind: ModelKind, store: EmbeddingStore, head: int, relation: int) -> np.ndarray:
    """Score (head, relation, t) for every entity t."""
    ent = store.entities
    if isinstance(kind, TransE):
        base = ent[head] + store.relations[relation]
        delta = base[None, :] - ent
        if kind.norm == "l1":
            return -np.abs(delta).sum(axis=1)
        return -np.sqrt((delta * delta).sum(axis=1))
    if isinstance(kind, DistMult):
        return ent @ (ent[head] * store.relations[relation])
    d = store.dim
    theta = store.relations[relation]
    cos, sin = np.cos(theta), np.sin(theta)
    h_re, h_im = ent[head, :d], ent[head, d:]
    rot_re = h_re * cos - h_im * sin
    rot_im = h_re * sin + h_im * cos
    a = rot_re[None, :] - ent[:, :d]
    b = rot_im[None, :] - ent[:, d:]
    return -np.sqrt(a * a + b * b).sum(axis=1)


def score_all_heads(kind: ModelKind, store: EmbeddingStore, relation: int, tail: int) -> np.ndarray:
    """Score (h, relation, tail) for every entity h."""
    ent = store.entities
    if isinstance(kind, TransE):
        base = store.relations[relation] - ent[tail]
        delta = ent + base[None, :]
        if kind.norm == "l1":
            return -np.abs(delta).sum(axis=1)
        return -np.sqrt((delta * delta).sum(axis=1))
    if isinstance(kind, DistMult):
        return ent @ (store.relations[relation] * ent[tail])
    d = store.dim
    theta = store.relations[relation]
    cos, sin = np.cos(theta), np.sin(theta)
    rot_re = ent[:, :d] * cos[None, :] - ent[:, d:] * sin[None, :]
    rot_im = ent[:, :d] * sin[None, :] + ent[:, d:] * cos[None, :]
    a = rot_re - ent[tail, :d][None, :]
    b = rot_im - ent[tail, d:][None, :]
    return -np.sqrt(a * a + b * b).sum(axis=1)


def relation_features(kind: ModelKind, store: EmbeddingStore, relations: np.ndarray) -> np.ndarray:
    """Relation rows lifted to the entity row width.

    Rotation phases are mapped to (cos, sin) pairs so that agent states
    and relation clustering see comparable real-valued vectors.
    """
    rows = store.relations[np.asarray(relations, dtype=np.int64)]
    if isinstance(kind, RotatE):
        return np.concatenate([np.cos(rows), np.sin(rows)], axis=1)
    return rows


# -- negative sampling -----------------------------------------------------------

_MAX_RESAMPLES = 10


def corrupt_batch(graph: KnowledgeGraph, triples: np.ndarray, rng: np.random.Generator,
                  count: int = 1) -> np.ndarray:
    """``count`` negatives per positive, row-major.

    Each negative replaces the head or the tail (fair coin) with a uniform
    entity. A corruption that is a known positive is redrawn up to 10
    times, and the last draw is returned regardless. The first draw is
    made for the whole batch at once; the rows it makes known positives
    are then redrawn row by row.
    """
    out = np.repeat(np.asarray(triples, dtype=np.int64).reshape(-1, 3), count, axis=0)
    n = len(out)
    replace_head = rng.random(n) < 0.5
    candidates = rng.integers(0, graph.n_entities, size=n)
    np.copyto(out[:, 0], candidates, where=replace_head)
    np.copyto(out[:, 2], candidates, where=~replace_head)

    # One C-level membership pass picks out the known positives; only those
    # rows enter the redraw loop, so the generator is drawn as before.
    known = map(graph.positive_index.__contains__, graph.encode_array(out).tolist())
    for i in compress(range(n), known):
        h, r, t = out[i]
        for _ in range(_MAX_RESAMPLES):
            candidate = int(rng.integers(graph.n_entities))
            if replace_head[i]:
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


# Cells summed per np.bincount call in _accumulate: caps the flat cell index
# at 8 MB however many rows and columns a batch's gradient has.
_CELL_BLOCK = 1 << 20
# Rows per chunk of the loss bodies and of adam_step. A chunk's temporaries
# stay within the per-core cache at d=100, and a batch of 32 positives with
# 10 negatives each is a single chunk.
_ROW_BLOCK = 384


def _row_chunks(n: int):
    """Consecutive slices of ``_ROW_BLOCK`` rows covering ``range(n)``; the
    last one may reach past ``n``, so slice only arrays of length ``n``."""
    return map(slice, range(0, n, _ROW_BLOCK), range(_ROW_BLOCK, n + _ROW_BLOCK, _ROW_BLOCK))


def _accumulate(rows: np.ndarray, contribs: np.ndarray, n_rows: int) -> SparseGrad:
    """Sum the ``contribs`` rows that share a row id in ``[0, n_rows)``.

    Each distinct row gets a slot from a dense first-touch index, and each
    (slot, column) cell is summed by ``np.bincount``, which adds a cell's
    terms in input order starting from 0.0, as ``np.add.at`` into zeros
    does, so the sums are bitwise equal to it. Cells are numbered column
    by column (``slot + k * column``) and the weights read in column-major
    order, so each column's writes stay within a k-sized region; the loss
    bodies build ``contribs`` column-major, which makes that read a view.
    Columns are summed in blocks of whole columns, which bounds the index
    without changing any cell's order of addition.
    """
    touched = np.zeros(n_rows, dtype=bool)
    touched[rows] = True
    unique = np.flatnonzero(touched)
    slot = np.empty(n_rows, dtype=np.intp)
    slot[unique] = np.arange(len(unique))
    inverse = slot[rows]
    k, width = len(unique), contribs.shape[1]
    acc = np.empty((k, width))
    block_cols = min(width, max(1, _CELL_BLOCK // len(rows)))
    # Every block numbers its cells alike; a narrower last block uses a prefix.
    block_cells = (np.arange(0, k * block_cols, k)[:, None] + inverse).ravel()
    for first in range(0, width, block_cols):
        block = contribs[:, first:first + block_cols]
        cols = block.shape[1]
        acc[:, first:first + cols] = np.bincount(
            block_cells[:cols * len(rows)], weights=block.ravel(order="F"),
            minlength=k * cols).reshape(cols, k).T
    return SparseGrad(unique, acc)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


# Each loss body below works through its triples in row chunks. A chunk
# writes its scores into a batch-wide vector and its gradient rows straight
# into one column-major contribution buffer; every loss sum is taken once
# over the whole vector, as numpy's pairwise sum depends on its length.
# The chunk bodies are functions so that their temporaries are freed before
# _accumulate allocates: left alive, they made the heap grow and shrink by
# their size on every small batch, at the cost of a page fault per 4 kB.


def _transe_loss_grad(kind: TransE, store, graph, positives, rng):
    negatives = corrupt_batch(graph, positives, rng, 1)
    ent, rel, n_ent = store.entities, store.relations, store.n_entities
    n, r = len(positives), positives[:, 1]

    def parts(tr, rel_rows):
        """Distances ||h + r - t|| of a triple chunk and their gradients in h."""
        delta = ent[tr[:, 0]] + rel_rows - ent[tr[:, 2]]
        if kind.norm == "l1":
            return np.abs(delta).sum(axis=1), np.sign(delta)
        norm = np.sqrt((delta * delta).sum(axis=1))
        safe = np.where(norm > 0.0, norm, 1.0)
        return norm, np.where(norm[:, None] > 0.0, delta / safe[:, None], 0.0)

    violation = np.empty(n)
    # Rows hp, tp, hn, tn of (g_pos, -g_pos, -g_neg, g_neg), then r of
    # g_pos - g_neg. Inactive rows contribute zeros; their signs cannot
    # reach the sums, which start from +0.0.
    contrib = np.empty((5 * n, store.dim), order="F")
    g_hp, g_tp, g_hn, g_tn, g_r = (contrib[i * n:(i + 1) * n] for i in range(5))

    def chunk(rows):
        rel_rows = rel[r[rows]]
        d_pos, g_pos = parts(positives[rows], rel_rows)
        d_neg, g_neg = parts(negatives[rows], rel_rows)
        # f_neg - f_pos + margin with f = -distance, bit for bit.
        v = np.subtract(d_pos, d_neg, out=violation[rows])
        v += kind.margin
        inactive = ~(v > 0.0)
        g_pos[inactive] = 0.0
        g_neg[inactive] = 0.0
        g_hp[rows] = g_pos
        g_tn[rows] = g_neg
        g_r[rows] = g_pos - g_neg
        g_tp[rows] = np.negative(g_pos, out=g_pos)
        g_hn[rows] = np.negative(g_neg, out=g_neg)

    for rows in _row_chunks(n):
        chunk(rows)
    loss = float(violation[violation > 0.0].sum())
    ids = np.concatenate([positives[:, 0], positives[:, 2], negatives[:, 0], negatives[:, 2],
                          r + n_ent])
    return loss, {"entities": _accumulate(ids, contrib, n_ent + store.n_relations)}


def _distmult_loss_grad(kind: DistMult, store, graph, positives, rng):
    negatives = corrupt_batch(graph, positives, rng, kind.negatives)
    labeled = np.concatenate([positives, negatives])
    neg_y = np.repeat([-1.0, 1.0], [len(positives), len(negatives)])  # -label
    ent, rel = store.entities, store.relations
    h, r, t = labeled[:, 0], labeled[:, 1], labeled[:, 2]
    n = len(labeled)

    z = np.empty(n)
    # Rows h, t and r of the labeled triples.
    contrib = np.empty((3 * n, store.dim), order="F")
    g_h, g_t, g_r = contrib[:n], contrib[n:2 * n], contrib[2 * n:]

    def chunk(rows):
        # (eh er et summed per row) and then dldf (er et), (dldf eh) er and
        # (dldf eh) et, built in a C-ordered block and copied into the
        # column-major buffer.
        eh, er, et = ent[h[rows]], rel[r[rows]], ent[t[rows]]
        block = eh * er
        block *= et
        y_rows = neg_y[rows]
        z_rows = np.multiply(y_rows, block.sum(axis=1), out=z[rows])
        dldf = (y_rows * expit(z_rows))[:, None]
        np.multiply(dldf, er, out=block)
        block *= et
        g_h[rows] = block
        eh *= dldf
        g_t[rows] = np.multiply(eh, er, out=block)
        g_r[rows] = np.multiply(eh, et, out=block)

    for rows in _row_chunks(n):
        chunk(rows)
    loss = float(_softplus(z).sum())
    n_ent = store.n_entities
    grad = _accumulate(np.concatenate([h, t, r + n_ent]), contrib, n_ent + store.n_relations)

    # L2 term over the distinct touched rows; entity and relation rows summed apart.
    touched = store.tables[0][1][grad.rows]
    split = np.searchsorted(grad.rows, n_ent)
    loss += kind.l2_coeff * float((touched[:split] ** 2).sum() + (touched[split:] ** 2).sum())
    grad.values += 2.0 * kind.l2_coeff * touched
    return loss, {"entities": grad}


def _rotate_loss_grad(kind: RotatE, store, graph, positives, rng):
    k = kind.negatives
    eta = kind.margin
    negatives = corrupt_batch(graph, positives, rng, k)
    trig = _rotate_trig(store)
    d = store.dim
    n_pos, n_neg = len(positives), len(negatives)
    # Rows hp, tp, hn, tn of the entity contributions and rp, rn of the phase ones.
    ent_contrib = np.empty((2 * (n_pos + n_neg), 2 * d), order="F")
    rel_contrib = np.empty((n_pos + n_neg, d), order="F")

    def terms(tr, dldf_of, g_h, g_t, g_r):
        """Scores of a triple block, chained into entity-row and phase gradients."""
        f = np.empty(len(tr))
        for rows in _row_chunks(len(tr)):
            a, b, modulus, cos, sin, t_re, t_im = _rotate_parts(
                store, trig, tr[rows, 0], tr[rows, 1], tr[rows, 2])
            f_rows = np.negative(modulus.sum(axis=1), out=f[rows])
            neg_dldf = -dldf_of(f_rows)[:, None]
            # (da, db) = -(a, b) / modulus * dldf where the modulus is
            # nonzero and 0 * dldf elsewhere, as (a, b) / modulus, or -0.0,
            # times -dldf: the same products, sign for sign.
            zero = ~(modulus > 0.0)
            np.copyto(modulus, 1.0, where=zero)
            da = np.divide(a, modulus)
            np.copyto(da, -0.0, where=zero)
            da *= neg_dldf
            db = np.divide(b, modulus, out=modulus)
            np.copyto(db, -0.0, where=zero)
            db *= neg_dldf
            # Rows gr = db (a + t_re) - da (b + t_im), gh = (da cos + db sin,
            # db cos - da sin) and gt = -(da, db), built in the spent C-ordered
            # arrays and copied once into the column-major buffers.
            a += t_re
            a *= db
            b += t_im
            b *= da
            a -= b
            g_r[rows] = a
            gh, gt = g_h[rows], g_t[rows]
            block = np.multiply(db, cos, out=t_re)
            block -= np.multiply(da, sin, out=b)
            gh[:, d:] = block
            np.multiply(da, cos, out=block)
            block += np.multiply(db, sin, out=b)
            gh[:, :d] = block
            gt[:, :d] = np.negative(da, out=da)
            gt[:, d:] = np.negative(db, out=db)
        return f

    f_pos = terms(positives, lambda f: -expit(-(eta + f)),
                  ent_contrib[:n_pos], ent_contrib[n_pos:2 * n_pos], rel_contrib[:n_pos])
    f_neg = terms(negatives, lambda f: expit(eta + f) / k,
                  ent_contrib[2 * n_pos:2 * n_pos + n_neg], ent_contrib[2 * n_pos + n_neg:],
                  rel_contrib[n_pos:])
    loss = float(_softplus(-(eta + f_pos)).sum() + _softplus(eta + f_neg).sum() / k)
    ent_rows = np.concatenate([positives[:, 0], positives[:, 2], negatives[:, 0], negatives[:, 2]])
    rel_rows = np.concatenate([positives[:, 1], negatives[:, 1]])
    return loss, {
        "entities": _accumulate(ent_rows, ent_contrib, store.n_entities),
        "relations": _accumulate(rel_rows, rel_contrib, store.n_relations),
    }


def loss_and_grad(kind: ModelKind, store: EmbeddingStore, graph: KnowledgeGraph,
                  positives: np.ndarray, rng: np.random.Generator):
    """Batch loss and sparse gradients over the rows the batch touches.

    Negatives are drawn inside against the graph's positive index. The
    returned loss is the sum over the batch (Adam's update direction is
    invariant to that scale).
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    if len(positives) == 0:
        raise DataError("loss_and_grad requires a nonempty batch of positives")
    if isinstance(kind, TransE):
        return _transe_loss_grad(kind, store, graph, positives, rng)
    if isinstance(kind, DistMult):
        return _distmult_loss_grad(kind, store, graph, positives, rng)
    return _rotate_loss_grad(kind, store, graph, positives, rng)


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


def adam_step(store: EmbeddingStore, grads: dict[str, SparseGrad], config: AdamConfig,
              project_entities=None) -> None:
    """Bias-corrected Adam update on touched rows only.

    The store's step count advances once per call; rows absent from the
    gradient keep their parameters and moments bitwise unchanged
    (lazy/sparse Adam semantics). Each table's touched rows of parameters
    and moments are gathered once, updated in row chunks and scattered
    once. ``project_entities``, if given, projects updated entity rows in
    place (TransE's unit-norm projection), never a shared table's relation
    rows. A non-finite gradient or updated parameter raises
    ``NumericError`` before anything of that table is stored; a bad
    gradient anywhere is reported before a bad parameter.
    """
    store.step += 1
    for name, params, m, v in store.tables:
        grad = grads.get(name)
        if grad is None or len(grad.rows) == 0:
            continue
        rows = grad.rows
        m_rows, v_rows, p_rows = m[rows], v[rows], params[rows]
        bad_param = None
        for chunk in _row_chunks(len(rows)):
            g = grad.values[chunk]
            bad = _non_finite_row(store, name, rows[chunk], g)
            if bad is not None:
                raise NumericError(f"non-finite gradient for {bad}")
            # In place, but each element sees the same operations in the same
            # order as  m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*(g*g),
            # p -= lr * m_hat / (sqrt(v_hat) + eps).
            m_chunk, v_chunk, p_chunk = m_rows[chunk], v_rows[chunk], p_rows[chunk]
            m_chunk *= config.beta1
            m_chunk += (1.0 - config.beta1) * g
            v_chunk *= config.beta2
            g_sq = g * g
            g_sq *= 1.0 - config.beta2
            v_chunk += g_sq
            update = m_chunk / (1.0 - config.beta1 ** store.step)
            update *= config.learning_rate
            denom = v_chunk / (1.0 - config.beta2 ** store.step)
            np.sqrt(denom, out=denom)
            denom += config.epsilon
            update /= denom
            p_chunk -= update
            if bad_param is None:
                bad_param = _non_finite_row(store, name, rows[chunk], p_chunk)
        if bad_param is not None:
            raise NumericError(f"non-finite parameter after update: {bad_param}")
        if project_entities is not None and name == "entities":
            project_entities(p_rows[:np.searchsorted(rows, store.n_entities)])
        m[rows] = m_rows
        v[rows] = v_rows
        params[rows] = p_rows


# -- checkpoint IO ----------------------------------------------------------------

_MAGIC = b"KGDN"
_VERSION = 1
_HEADER = struct.Struct("<4sIBBdIQQQQQ")


def _kind_to_fields(kind: ModelKind):
    if isinstance(kind, TransE):
        return _KIND_CODES[TransE], 1 if kind.norm == "l1" else 2, kind.margin, 0
    if isinstance(kind, DistMult):
        return _KIND_CODES[DistMult], 0, kind.l2_coeff, kind.negatives
    return _KIND_CODES[RotatE], 0, kind.margin, kind.negatives


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
    code, norm, param_a, param_k = _kind_to_fields(store.kind)
    header = _HEADER.pack(_MAGIC, _VERSION, code, norm, param_a, param_k,
                          store.n_entities, store.n_relations, store.dim,
                          store.step, store.step)
    with atomic_write(path, binary=True) as handle:
        handle.write(header)
        for arr in (store.entities, store.relations, store.m_ent, store.v_ent,
                    store.m_rel, store.v_rel):
            handle.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_matrices(handle, path, shapes) -> list[np.ndarray]:
    """Read raw <f8 matrices of the given shapes that fill the rest of ``handle``.

    The declared size and every dimension are checked against the bytes
    left in the file before anything is read, so a forged header cannot
    demand a huge allocation or a matrix too large to shape.
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
        matrices.append(np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(rows, cols))
    return matrices


def load_store(path) -> EmbeddingStore:
    with open(path, "rb") as handle:
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
        ent_shape = (n_ent, entity_width(kind, dim))
        rel_shape = (n_rel, dim)
        entities, relations, *moments = read_matrices(
            handle, path, [ent_shape, rel_shape, ent_shape, ent_shape, rel_shape, rel_shape])
    store = EmbeddingStore(kind, dim, entities, relations)
    store.m_ent[...], store.v_ent[...], store.m_rel[...], store.v_rel[...] = moments
    store.step = step_e
    return store
