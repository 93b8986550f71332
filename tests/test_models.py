import os
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import chunk_threads, make_graph, random_graph
from kgedenoise import models, trainer
from kgedenoise.errors import DataError, NumericError
from kgedenoise.evaluation import link_prediction
from kgedenoise.models import (DistMult, EmbeddingStore, RotatE, SparseGrad,
                               TransE, adam_step, corrupt_batch, init_embeddings,
                               load_store, loss_and_grad, save_store,
                               score, score_all_heads, score_all_tails, score_batch)

FD_STEP = 1e-5
FD_TOL = 1e-4
KINK_MARGIN = 1e-4


def make_store(kind, entities, relations, dim=None):
    entities = np.asarray(entities, dtype=np.float64)
    relations = np.asarray(relations, dtype=np.float64)
    if dim is None:
        dim = relations.shape[1]
    return EmbeddingStore(kind, dim, entities, relations)


def split_grads(store, grads):
    """Per-matrix gradients: the rows from |E| on of a shared table's
    ``"entities"`` gradient are relations."""
    if "relations" in grads:
        return grads
    grad, n_ent = grads["entities"], store.n_entities
    split = np.searchsorted(grad.rows, n_ent)
    return {"entities": SparseGrad(grad.rows[:split], grad.values[:split]),
            "relations": SparseGrad(grad.rows[split:] - n_ent, grad.values[split:])}


ALL_KINDS = pytest.mark.parametrize(
    "kind", [TransE("l1", 1.0), TransE("l2", 1.0), DistMult(l2_coeff=1e-3, negatives=3),
             RotatE(margin=2.0, negatives=3)],
    ids=["transe-l1", "transe-l2", "distmult", "rotate"])


# -- initialization -----------------------------------------------------------------


def test_init_bounds_d36():
    store = init_embeddings(50, 5, 36, TransE(), seed=0)
    assert np.abs(store.entities).max() <= 1.0
    assert np.abs(store.relations).max() <= 1.0


def test_init_bounds_d100():
    store = init_embeddings(50, 5, 100, DistMult(), seed=0)
    assert np.abs(store.entities).max() <= 0.6
    assert np.abs(store.relations).max() <= 0.6


def test_init_rotation_phases_and_width():
    store = init_embeddings(10, 4, 8, RotatE(), seed=3)
    assert store.entities.shape == (10, 16)
    assert store.relations.shape == (4, 8)
    assert store.relations.min() >= 0.0
    assert store.relations.max() < 2.0 * np.pi


def test_shared_table_layout():
    # TransE and DistMult rows share one table, relation r at row |E| + r;
    # RotatE's rows differ in width and keep two tables.
    for kind in (TransE(), DistMult()):
        store = init_embeddings(5, 3, 4, kind, seed=1)
        (name, params, m, v), = store.tables
        assert name == "entities" and params.shape == m.shape == v.shape == (8, 4)
        for view, table in ((store.entities, params), (store.m_ent, m), (store.v_ent, v)):
            assert view.base is table and np.shares_memory(view, table[:5])
        for view, table in ((store.relations, params), (store.m_rel, m), (store.v_rel, v)):
            assert view.base is table and np.shares_memory(view, table[5:])
    store = init_embeddings(5, 3, 4, RotatE(), seed=1)
    assert [(name, p.shape) for name, p, _, _ in store.tables] == [("entities", (5, 8)),
                                                                   ("relations", (3, 4))]


def test_init_deterministic():
    a = init_embeddings(20, 3, 16, TransE(), seed=42)
    b = init_embeddings(20, 3, 16, TransE(), seed=42)
    assert np.array_equal(a.entities, b.entities)
    assert np.array_equal(a.relations, b.relations)


def test_init_rejects_bad_dim():
    with pytest.raises(DataError):
        init_embeddings(5, 2, 0, TransE(), seed=0)


# -- exact score values ---------------------------------------------------------------


def test_translation_l1_score_exact():
    store = make_store(TransE("l1"), [[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0]])
    assert score(TransE("l1"), store, 0, 0, 1) == -3.0


def test_bilinear_score_exact():
    store = make_store(DistMult(), [[1.0, 2.0], [5.0, 6.0]], [[3.0, 4.0]])
    assert score(DistMult(), store, 0, 0, 1) == 63.0


def test_rotation_exact_rotation_scores_zero():
    # h = (1, i), phases (pi/2, pi/2), t = (i, -1): h o r == t
    kind = RotatE()
    entities = [[1.0, 0.0, 0.0, 1.0],   # re | im
                [0.0, -1.0, 1.0, 0.0]]
    store = make_store(kind, entities, [[np.pi / 2, np.pi / 2]], dim=2)
    assert score(kind, store, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_translation_invariance_under_shift():
    rng = np.random.default_rng(5)
    kind = TransE("l1")
    ent = rng.normal(size=(4, 6))
    rel = rng.normal(size=(2, 6))
    delta = rng.normal(size=6)
    shifted = ent + delta
    s1 = score(kind, make_store(kind, ent, rel), 1, 0, 3)
    s2 = score(kind, make_store(kind, shifted, rel), 1, 0, 3)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_bilinear_symmetry():
    rng = np.random.default_rng(6)
    kind = DistMult()
    store = make_store(kind, rng.normal(size=(5, 4)), rng.normal(size=(3, 4)))
    for h, r, t in [(0, 0, 1), (2, 1, 3), (4, 2, 0)]:
        assert score(kind, store, h, r, t) == score(kind, store, t, r, h)


def test_one_vs_all_scorers_match_batch():
    rng = np.random.default_rng(7)
    for kind in (TransE("l1"), TransE("l2"), DistMult(), RotatE()):
        store = init_embeddings(9, 3, 4, kind, seed=11)
        all_tails = score_all_tails(kind, store, 2, 1)
        all_heads = score_all_heads(kind, store, 1, 5)
        tail_triples = np.array([[2, 1, t] for t in range(9)])
        head_triples = np.array([[h, 1, 5] for h in range(9)])
        assert np.array_equal(bits(all_tails), bits(score_batch(kind, store, tail_triples)))
        assert np.array_equal(bits(all_heads), bits(score_batch(kind, store, head_triples)))


@ALL_KINDS
def test_one_vs_all_scoring_ignores_chunk_size_and_thread_count(kind):
    # 30 candidates make five chunks of 7 rows, which run on the chunk pool.
    graph = random_graph(np.random.default_rng(5), n_entities=30, n_relations=3,
                         n_train=40, n_valid=4, n_test=6)
    store = init_embeddings(30, 3, 5, kind, seed=2)

    def one_vs_all():
        queries = graph.test.tolist()
        scores = ([score_all_heads(kind, store, r, t) for _, r, t in queries]
                  + [score_all_tails(kind, store, h, r) for h, r, _ in queries])
        return bits(np.array(scores)), link_prediction(kind, store, graph).ranks

    expected_scores, expected_ranks = one_vs_all()
    run_chunks = models._run_chunks
    pieces = []

    def counting(body, chunks):
        chunks = list(chunks)
        pieces.append(len(chunks))
        return run_chunks(body, chunks)

    for threads in (1, 2):
        with chunk_threads(threads), mock.patch.object(models, "_ROW_BLOCK", 7), \
                mock.patch.object(models, "_run_chunks", counting):
            scores, ranks = one_vs_all()
        assert np.array_equal(scores, expected_scores)
        assert np.array_equal(ranks, expected_ranks)
    assert min(pieces) == 5


@ALL_KINDS
def test_score_batch_chunks_are_bitwise_equal_to_one_chunk(kind):
    store = init_embeddings(12, 3, 5, kind, seed=6)
    triples = np.random.default_rng(2).integers(0, [12, 3, 12], size=(50, 3))
    expected = score_batch(kind, store, triples)
    with mock.patch.object(models, "_ROW_BLOCK", 7), \
            mock.patch.object(models, "_rotate_trig", wraps=models._rotate_trig) as trig:
        chunked = score_batch(kind, store, triples)
    assert np.array_equal(bits(chunked), bits(expected))
    assert trig.call_count == (1 if isinstance(kind, RotatE) else 0)
    assert score_batch(kind, store, np.empty((0, 3))).shape == (0,)


def test_score_batch_peak_memory_is_bounded():
    # FB15k-237 shape: scoring the whole batch at once peaked at 122 MB here.
    store = init_embeddings(14_541, 237, 100, RotatE(), seed=0)
    triples = np.random.default_rng(1).integers(0, [14_541, 237, 14_541], size=(20_000, 3))
    tracemalloc.start()
    try:
        score_batch(RotatE(), store, triples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


# -- negative sampling ----------------------------------------------------------------


def test_corrupt_batch_changes_exactly_one_slot(tiny_graph):
    out = corrupt_batch(tiny_graph, tiny_graph.train, np.random.default_rng(0), count=1)
    for row, neg in zip(tiny_graph.train, out):
        changed_head = neg[0] != row[0]
        changed_tail = neg[2] != row[2]
        assert neg[1] == row[1]
        assert changed_head != changed_tail or not tiny_graph.is_positive(*neg)


def test_corrupt_batch_deterministic(tiny_graph):
    a = corrupt_batch(tiny_graph, tiny_graph.train[:1], np.random.default_rng(3), count=1)
    b = corrupt_batch(tiny_graph, tiny_graph.train[:1], np.random.default_rng(3), count=1)
    assert np.array_equal(a, b)


def test_corrupt_batch_fallback_when_everything_positive():
    # |E| = 2 and all four (h,r,t) combinations are known positives
    graph = make_graph([(0, 0, 1), (1, 0, 0)], [(0, 0, 0)], [(1, 0, 1)], 2, 1)
    neg = corrupt_batch(graph, np.array([[0, 0, 1]]), np.random.default_rng(1), count=1)[0]
    assert graph.is_positive(*neg)  # returned anyway after 10 redraws


def test_corrupt_batch_matches_policy(tiny_graph):
    rng = np.random.default_rng(2)
    out = corrupt_batch(tiny_graph, tiny_graph.train, rng, count=3)
    assert out.shape == (3 * len(tiny_graph.train), 3)
    rep = np.repeat(tiny_graph.train, 3, axis=0)
    differs = (out != rep).sum(axis=1)
    assert set(differs.tolist()) <= {0, 1}  # at most one slot changed
    assert np.array_equal(out[:, 1], rep[:, 1])


def reference_corrupt_batch(graph, triples, rng, count):
    """Row-by-row twin of ``corrupt_batch``: every row's membership is tested
    in Python. Also returns which rows used up all their redraws."""
    rep = np.repeat(np.asarray(triples, dtype=np.int64).reshape(-1, 3), count, axis=0)
    n = len(rep)
    replace_head = rng.random(n) < 0.5
    candidates = rng.integers(0, graph.n_entities, size=n)
    out = rep.copy()
    out[replace_head, 0] = candidates[replace_head]
    out[~replace_head, 2] = candidates[~replace_head]
    exhausted = np.zeros(n, dtype=bool)
    for i in range(n):
        h, r, t = (int(x) for x in out[i])
        if not graph.is_positive(h, r, t):
            continue
        exhausted[i] = True
        for _ in range(10):
            candidate = int(rng.integers(graph.n_entities))
            if replace_head[i]:
                h = candidate
            else:
                t = candidate
            if not graph.is_positive(h, r, t):
                exhausted[i] = False
                break
        out[i, 0], out[i, 2] = h, t
    return out, exhausted


def frozenset_corrupt_batch(graph, triples, rng, count):
    """``corrupt_batch`` with membership in a frozenset of the graph's
    (h, r, t) tuples, the scalar reference for the sorted code index. Also
    returns how many first draws hit a known positive."""
    known = frozenset(row for split in (graph.train, graph.valid, graph.test)
                      for row in map(tuple, split.tolist()))
    out = np.asarray(triples, dtype=np.int64).reshape(-1, 3).repeat(count, axis=0)
    replace_head = rng.random(len(out)) < 0.5
    candidates = rng.integers(0, graph.n_entities, size=len(out))
    np.copyto(out[:, 0], candidates, where=replace_head)
    np.copyto(out[:, 2], candidates, where=~replace_head)
    hits = [i for i, row in enumerate(map(tuple, out.tolist())) if row in known]
    for i in hits:
        h, r, t = out[i].tolist()
        for _ in range(10):
            candidate = rng.integers(0, graph.n_entities).item()
            if replace_head[i]:
                h = candidate
            else:
                t = candidate
            if (h, r, t) not in known:
                break
        out[i, 0], out[i, 2] = h, t
    return out, len(hits)


@pytest.mark.parametrize("count", [1, 10])
@pytest.mark.parametrize("seed", range(4))
def test_corrupt_batch_equals_the_frozenset_reference(seed, count):
    # Three quarters of the 4 x 2 x 4 cube are known, split over train, valid
    # and test with triples repeated across splits, so first draws often hit.
    rng = np.random.default_rng(seed)
    cube = [(h, r, t) for h in range(4) for r in range(2) for t in range(4)]
    known = [cube[i] for i in rng.permutation(len(cube))[:24]]
    valid, test = known[14:19] + known[:3], known[19:] + known[2:5] + known[15:17]
    graph = make_graph(known[:14], valid, test, n_entities=4, n_relations=2)
    batch = graph.train[rng.integers(0, len(graph.train), 16)]

    run_rng, reference_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    out = corrupt_batch(graph, batch, run_rng, count)
    expected, first_hits = frozenset_corrupt_batch(graph, batch, reference_rng, count)
    assert first_hits > 0
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert run_rng.random() == reference_rng.random()  # same number of draws


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_corrupt_batch_matches_row_by_row_reference(data):
    # Small, dense graphs: many first draws are known positives, and with
    # two entities and every triple known, all ten redraws can hit one.
    n_ent = data.draw(st.integers(2, 5))
    n_rel = data.draw(st.integers(1, 2))
    triple = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                       st.integers(0, n_ent - 1))
    train = data.draw(st.lists(triple, min_size=1, max_size=n_ent * n_ent * n_rel, unique=True))
    graph = make_graph(train, n_entities=n_ent, n_relations=n_rel)
    batch = graph.train[data.draw(st.lists(st.integers(0, len(train) - 1), min_size=1,
                                           max_size=12))]
    count = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))

    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = corrupt_batch(graph, batch, rng, count)
    expected, exhausted = reference_corrupt_batch(graph, batch, reference_rng, count)
    assert np.array_equal(out, expected)
    assert rng.random() == reference_rng.random()  # same number of draws
    for row, used_up in zip(out.tolist(), exhausted):
        assert used_up or not graph.is_positive(*row)


# -- gradient accumulation ----------------------------------------------------------------


def add_at_reference(rows, contribs):
    unique, inverse = np.unique(rows, return_inverse=True)
    acc = np.zeros((len(unique), contribs.shape[1]))
    np.add.at(acc, inverse, contribs)
    return unique, acc


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_accumulate_bitwise_equals_add_at(data):
    n_rows = data.draw(st.integers(1, 10))
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=40)))
    width = data.draw(st.integers(1, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # Magnitudes over 16 decades, so the order of addition shows in the bits.
    shape = (len(rows), width)
    contribs = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    contribs[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    # The loss bodies pass row-major contributions; either order must sum alike.
    contribs = np.asarray(contribs, order=data.draw(st.sampled_from("CF")))
    # Small cell blocks split the touched rows into several ranges.
    cell_block = data.draw(st.sampled_from([1, 7, 64, models._CELL_BLOCK]))
    with mock.patch.object(models, "_CELL_BLOCK", cell_block):
        grad = models._accumulate(rows, contribs, n_rows)
    unique, expected = add_at_reference(rows, contribs)
    assert np.array_equal(grad.rows, unique)
    assert np.array_equal(grad.values.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_accumulate_bitwise_equals_add_at_across_sort_key_widths(data):
    # The ids are sorted as uint8 below 257 rows, uint16 below 65,537 and
    # uint32 above: draw n_rows on both sides of each boundary, and ids near
    # the top, so a key too narrow for them would misorder the sums.
    n_rows = data.draw(st.sampled_from([256, 65_536])) + data.draw(st.integers(-2, 2))
    pool = data.draw(st.lists(st.integers(0, n_rows - 1) | st.integers(n_rows - 3, n_rows - 1),
                              min_size=1, max_size=8))
    # Heavily repeated and unsorted.
    rows = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80)))
    width = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = (len(rows), width)
    contribs = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    contribs[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    contribs = np.asarray(contribs, order=data.draw(st.sampled_from("CF")))
    cell_block = data.draw(st.sampled_from([1, 7, 64]))
    with mock.patch.object(models, "_CELL_BLOCK", cell_block):
        grad = models._accumulate(rows, contribs, n_rows)
    unique, expected = add_at_reference(rows, contribs)
    assert np.array_equal(grad.rows, unique)
    assert np.array_equal(grad.values.view(np.uint64), expected.view(np.uint64))


def test_accumulate_refuses_ids_it_cannot_sum():
    # An id past n_rows would wrap in the narrow sort key, and more ids than
    # contribution rows would make the kernel read past the buffer.
    with pytest.raises(ValueError):
        models._accumulate(np.array([0, 256]), np.ones((2, 3)), 256)
    with pytest.raises(ValueError):
        models._accumulate(np.array([0, 1, 2]), np.ones((2, 3)), 5)


def test_accumulate_single_row():
    contribs = np.array([[1e16, -0.0, 3.0], [1.0, -0.0, -3.0], [-1e16, -0.0, 0.5]])
    grad = models._accumulate(np.array([4, 4, 4]), contribs, 5)
    assert grad.rows.tolist() == [4]
    assert np.array_equal(grad.values.view(np.uint64),
                          add_at_reference(np.array([4, 4, 4]), contribs)[1].view(np.uint64))


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def chunked_training_run(kind, row_block):
    """Two loss_and_grad + adam_step rounds with ``_ROW_BLOCK`` set to ``row_block``.

    Entities 0 and 1 are equal and relation 0 is the identity (zero offset,
    zero phase, zero scale), so the extra positives (0, 0, 1) and (1, 0, 0)
    have an exactly zero residual: the zero-modulus and zero-norm branches run.
    """
    graph = random_graph(np.random.default_rng(21), n_entities=12, n_relations=3,
                         n_train=24, n_valid=2, n_test=2)
    store = init_embeddings(12, 3, 5, kind, seed=6)
    store.entities[1] = store.entities[0]
    store.relations[0] = 0.0
    batch = np.concatenate([graph.train, [[0, 0, 1], [1, 0, 0]]])
    project = trainer._normalize_entity_rows if isinstance(kind, TransE) else None
    losses, grads = [], []
    with mock.patch.object(models, "_ROW_BLOCK", row_block):
        for step in range(2):
            loss, grad = loss_and_grad(kind, store, graph, batch, np.random.default_rng(step))
            adam_step(store, grad, 0.05, project)
            losses.append(loss)
            grads.append(grad)
    return losses, grads, store


@pytest.mark.parametrize("kind", [TransE("l1", 1.0), TransE("l2", 1.0),
                                  DistMult(l2_coeff=1e-3, negatives=3),
                                  RotatE(margin=2.0, negatives=3)],
                         ids=["transe-l1", "transe-l2", "distmult", "rotate"])
@pytest.mark.parametrize("row_block", [1, 7])
def test_row_chunks_are_bitwise_equal_to_one_chunk(kind, row_block):
    # 26 positives and up to 78 negatives: 1000 rows is a single chunk.
    expected_losses, expected_grads, expected = chunked_training_run(kind, 1000)
    losses, grads, store = chunked_training_run(kind, row_block)
    assert bits(losses).tolist() == bits(expected_losses).tolist()
    for grad, expected_grad in zip(grads, expected_grads):
        grad, expected_grad = split_grads(store, grad), split_grads(store, expected_grad)
        for name in ("entities", "relations"):
            assert np.array_equal(grad[name].rows, expected_grad[name].rows)
            assert np.array_equal(bits(grad[name].values), bits(expected_grad[name].values))
    for (_, *matrices), (_, *expected_matrices) in zip(store.matrices(), expected.matrices()):
        for matrix, expected_matrix in zip(matrices, expected_matrices):
            assert np.array_equal(bits(matrix), bits(expected_matrix))


@pytest.mark.parametrize("kind", [TransE("l1"), DistMult(negatives=3)],
                         ids=["transe", "distmult"])
def test_shared_table_batch_makes_one_accumulate_and_one_adam_pass(kind):
    graph = random_graph(np.random.default_rng(3), n_entities=6, n_relations=2,
                         n_train=10, n_valid=2, n_test=2)
    store = init_embeddings(6, 2, 4, kind, seed=4)
    with mock.patch.object(models, "_accumulate", wraps=models._accumulate) as accumulate:
        _, grads = loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(0))
    assert accumulate.call_count == 1 and list(grads) == ["entities"]
    # adam_step walks the row chunks of each table it gathers exactly once.
    with mock.patch.object(models, "_row_chunks", wraps=models._row_chunks) as chunks:
        adam_step(store, grads, 0.001)
    assert [c.args for c in chunks.call_args_list] == [(len(grads["entities"].rows),)]


@pytest.mark.parametrize("kind", [TransE("l1", 1.0), TransE("l2", 1.0),
                                  DistMult(l2_coeff=1e-3, negatives=3),
                                  RotatE(margin=2.0, negatives=3)],
                         ids=["transe-l1", "transe-l2", "distmult", "rotate"])
@pytest.mark.parametrize("threads", [2, 3])
def test_thread_count_does_not_change_any_bit(kind, threads):
    # Chunks of 7 rows and gradient-sum ranges of a few rows make every loop
    # of the step run many pieces on the pool.
    with mock.patch.object(models, "_CELL_BLOCK", 64), \
            mock.patch.object(models, "_MIN_CELL_BLOCK", 8):
        with chunk_threads(1):
            expected_losses, expected_grads, expected = chunked_training_run(kind, 7)
        pieces = []
        run_chunks = models._run_chunks

        def counting(body, chunks):
            chunks = list(chunks)
            pieces.append(len(chunks))
            return run_chunks(body, chunks)

        with chunk_threads(threads), mock.patch.object(models, "_run_chunks", counting):
            losses, grads, store = chunked_training_run(kind, 7)
    assert max(pieces) > 1
    assert bits(losses).tolist() == bits(expected_losses).tolist()
    for grad, expected_grad in zip(grads, expected_grads):
        assert list(grad) == list(expected_grad)
        for name in grad:
            assert np.array_equal(grad[name].rows, expected_grad[name].rows)
            assert np.array_equal(bits(grad[name].values), bits(expected_grad[name].values))
    for (_, *matrices), (_, *expected_matrices) in zip(store.matrices(), expected.matrices()):
        for matrix, expected_matrix in zip(matrices, expected_matrices):
            assert np.array_equal(bits(matrix), bits(expected_matrix))


def test_chunks_return_in_piece_order_and_raise_the_first_error():
    with chunk_threads(3):
        assert models._run_chunks(lambda i: i * i, range(50)) == [i * i for i in range(50)]

        def body(i):
            if i in (3, 7):
                raise KeyError(i)
            return i

        with pytest.raises(KeyError, match="3"):
            models._run_chunks(body, range(10))


def test_caller_errstate_holds_in_pool_threads():
    caller, helper_ran = threading.current_thread(), threading.Event()

    def body(x):
        if threading.current_thread() is caller:
            assert helper_ran.wait(10)  # a pool thread takes a piece first
            return x
        helper_ran.set()
        return np.float64(1e300) * x

    with chunk_threads(2), np.errstate(over="raise"), pytest.raises(FloatingPointError):
        models._run_chunks(body, [1e10] * 4)
    helper_ran.clear()
    with chunk_threads(2), np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(models._run_chunks(body, [1e10] * 4)).any()


def test_thread_cap_is_clamped_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(models, "_helpers", None)
    monkeypatch.setattr(models, "_pool", None)
    monkeypatch.setattr(models, "_max_threads", None)
    assert models._step_threads() == 2
    monkeypatch.setattr(models, "_max_threads", 64)
    assert models._step_threads() == 2
    names = set()
    models._run_chunks(lambda _: names.add(threading.current_thread().name), range(64))
    assert len(names) <= 2 and models._pool._max_workers == 1
    models._pool.shutdown()
    models._forget_pool()
    monkeypatch.setattr(models, "_max_threads", 1)
    assert models._step_threads() == 1
    models._run_chunks(lambda _: names.add(threading.current_thread().name), range(8))
    assert models._helpers == 0 and models._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool():
    with chunk_threads(2):
        pid = os.fork()
        if pid == 0:  # child: the parent's pool has no threads here
            os._exit(0 if models._pool is None and models._helpers is None else 1)
        assert os.waitpid(pid, 0)[1] == 0


# -- the workspace ------------------------------------------------------------------


def workspace_run(kind, graph, seed, steps=4, barrier=None):
    """``steps`` loss_and_grad + adam_step rounds on batches of 16; before
    each, waits at ``barrier`` if one is given."""
    store = init_embeddings(graph.n_entities, graph.n_relations, 6, kind, seed=seed)
    project = trainer._normalize_entity_rows if kind.projects_entities else None
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        batch = graph.train[rng.permutation(len(graph.train))[:16]]
        if barrier is not None:
            barrier.wait(timeout=60)
        loss, grads = loss_and_grad(kind, store, graph, batch, rng)
        adam_step(store, grads, 0.05, project)
        losses.append(loss)
    return losses, store


@ALL_KINDS
def test_returned_gradients_outlive_later_steps(kind):
    graph = random_graph(np.random.default_rng(8), n_entities=15, n_relations=3,
                         n_train=30, n_valid=2, n_test=2)
    store = init_embeddings(15, 3, 5, kind, seed=2)
    _, grads = loss_and_grad(kind, store, graph, graph.train[:12], np.random.default_rng(0))
    kept = {name: (grad.rows.copy(), bits(grad.values).copy()) for name, grad in grads.items()}
    adam_step(store, grads, 0.001)
    _, later = loss_and_grad(kind, store, graph, graph.train[12:], np.random.default_rng(1))
    adam_step(store, later, 0.001)
    for name, (rows, values) in kept.items():
        assert np.array_equal(grads[name].rows, rows)
        assert np.array_equal(bits(grads[name].values), values)


def test_two_threads_training_two_stores_match_one_after_the_other():
    # Each thread carves its buffers from its own workspace: two steps run at
    # once, chunked onto the shared pool, must not write into each other's.
    graph = random_graph(np.random.default_rng(9), n_entities=20, n_relations=3,
                         n_train=60, n_valid=2, n_test=2)
    runs = [(RotatE(margin=2.0, negatives=3), 11), (DistMult(l2_coeff=1e-3, negatives=2), 12)]
    switch = sys.getswitchinterval()
    with mock.patch.object(models, "_ROW_BLOCK", 5), chunk_threads(3):
        expected = [workspace_run(kind, graph, seed) for kind, seed in runs]
        barrier, results = threading.Barrier(len(runs)), [None] * len(runs)

        def train(i):
            kind, seed = runs[i]
            results[i] = workspace_run(kind, graph, seed, barrier=barrier)

        threads = [threading.Thread(target=train, args=(i,)) for i in range(len(runs))]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads) and None not in results
    for (losses, store), (expected_losses, expected_store) in zip(results, expected):
        assert bits(losses).tolist() == bits(expected_losses).tolist()
        for (_, *matrices), (_, *expected_matrices) in zip(store.matrices(),
                                                           expected_store.matrices()):
            for matrix, expected_matrix in zip(matrices, expected_matrices):
                assert np.array_equal(bits(matrix), bits(expected_matrix))


def test_warm_rotate_step_allocates_well_below_its_contribution_buffers():
    # 512 positives with 10 negatives each at d=64: the entity and phase
    # contribution buffers take 14.4 MB, which a warm step reuses. A step
    # that allocated them afresh peaked at 19 MB here, and one that reuses
    # them at about 3 MB.
    kind = RotatE(margin=2.0, negatives=10)
    graph = random_graph(np.random.default_rng(10), n_entities=1000, n_relations=20,
                         n_train=1024, n_valid=2, n_test=2)
    store = init_embeddings(1000, 20, 64, kind, seed=3)
    rng = np.random.default_rng(4)
    contrib_bytes = 8 * 11 * 512 * (2 * 2 * 64 + 64)
    _, grads = loss_and_grad(kind, store, graph, graph.train[:512], rng)  # warms the workspace
    adam_step(store, grads, 0.001)
    tracemalloc.start()
    try:
        _, grads = loss_and_grad(kind, store, graph, graph.train[512:], rng)
        adam_step(store, grads, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= contrib_bytes / 2


class ReferenceL2DistMult(DistMult):
    """DistMult with the L2 term as one fancy-index gather of the touched
    rows and whole-array temporaries: the reference for the chunked term."""

    def _l2_term(self, store, grad):
        touched = store.tables[0][1][grad.rows]
        split = np.searchsorted(grad.rows, store.n_entities)
        grad.values += 2.0 * self.l2_coeff * touched
        return self.l2_coeff * float((touched[:split] ** 2).sum() + (touched[split:] ** 2).sum())


def warm_step_peak(kind, store, graph, rng):
    """Peak traced bytes of a loss_and_grad + adam_step round, after one
    untraced round warms the workspace; also the touched rows' shape."""
    _, grads = loss_and_grad(kind, store, graph, graph.train[:512], rng)
    adam_step(store, grads, 0.001)
    tracemalloc.start()
    try:
        _, grads = loss_and_grad(kind, store, graph, graph.train[512:], rng)
        adam_step(store, grads, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, grads["entities"].values.shape


def test_warm_distmult_l2_term_allocates_no_touched_row_arrays():
    # 512 positives with 10 negatives each at d=64 over 3,000 entities touch
    # a few thousand rows. The reference term allocates the gathered rows
    # and a product of their size at once; the chunked term carves both from
    # the warm workspace.
    graph = random_graph(np.random.default_rng(10), n_entities=3000, n_relations=20,
                         n_train=1024, n_valid=2, n_test=2)
    peaks = []
    for kind in (DistMult(l2_coeff=1e-3), ReferenceL2DistMult(l2_coeff=1e-3)):
        store = init_embeddings(3000, 20, 64, kind, seed=3)
        peaks.append(warm_step_peak(kind, store, graph, np.random.default_rng(4)))
    (peak, (k, d)), (reference_peak, shape) = peaks
    assert shape == (k, d)
    assert peak <= reference_peak - 8 * k * d


@pytest.mark.parametrize("threads", [1, 2])
def test_chunked_distmult_l2_term_is_bitwise_the_reference(threads):
    graph = random_graph(np.random.default_rng(11), n_entities=40, n_relations=5,
                         n_train=30, n_valid=2, n_test=2)
    runs = []
    for kind in (DistMult(l2_coeff=1e3, negatives=3),
                 ReferenceL2DistMult(l2_coeff=1e3, negatives=3)):
        store = init_embeddings(40, 5, 16, kind, seed=2)
        with mock.patch.object(models, "_ROW_BLOCK", 7), chunk_threads(threads):
            runs.append(loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(8)))
    (loss, grads), (expected_loss, expected_grads) = runs
    assert len(grads["entities"].rows) > 7  # several L2 chunks
    assert bits(loss).tolist() == bits(expected_loss).tolist()
    assert np.array_equal(grads["entities"].rows, expected_grads["entities"].rows)
    assert np.array_equal(bits(grads["entities"].values), bits(expected_grads["entities"].values))


class ReferenceTransE(TransE):
    """TransE with positives and negatives scored apart and every id's
    contribution row written out (hp, tp, hn, tn and r of g_pos, -g_pos,
    -g_neg, g_neg and g_pos - g_neg): the reference for the stacked loss and
    its signed references."""

    def loss_grad(self, store, positives, negatives):
        ent, rel, n_ent = store.entities, store.relations, store.n_entities
        n, r = len(positives), positives[:, 1]

        def parts(tr, rel_rows, grad):
            delta = ent.take(tr[:, 0], 0) + rel_rows - ent.take(tr[:, 2], 0)
            if self.norm == "l1":
                np.sign(delta, out=grad)
                return np.abs(delta).sum(axis=1)
            norm = np.sqrt((delta * delta).sum(axis=1))
            live = norm > 0.0
            np.divide(delta, np.where(live, norm, 1.0)[:, None], out=grad)
            grad[~live] = 0.0
            return norm

        violation = np.empty(n)
        contrib = np.empty((5 * n, store.dim))
        g_hp, g_tp, g_hn, g_tn, g_r = (contrib[i * n:(i + 1) * n] for i in range(5))

        def chunk(rows):
            rel_rows = rel.take(r[rows], 0)
            g_pos, g_neg = g_hp[rows], g_tn[rows]
            d_pos = parts(positives[rows], rel_rows, g_pos)
            d_neg = parts(negatives[rows], rel_rows, g_neg)
            v = np.subtract(d_pos, d_neg, out=violation[rows])
            v += self.margin
            inactive = ~(v > 0.0)
            g_pos[inactive] = 0.0
            g_neg[inactive] = 0.0
            np.subtract(g_pos, g_neg, out=g_r[rows])
            np.negative(g_pos, out=g_tp[rows])
            np.negative(g_neg, out=g_hn[rows])

        models._run_chunks(chunk, models._row_chunks(n))
        loss = float(violation[violation > 0.0].sum())
        ids = np.concatenate([positives[:, 0], positives[:, 2], negatives[:, 0], negatives[:, 2],
                              r + n_ent])
        return loss, {"entities": models._accumulate(ids, contrib, n_ent + store.n_relations)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_transe_loss_is_bitwise_the_reference(data):
    norm = data.draw(st.sampled_from(["l1", "l2"]))
    # Distances here lie between 0 and a few dozen: the extreme margins leave
    # every row inactive or every row active, the others some of each.
    margin = data.draw(st.sampled_from([-1e3, 0.0, 0.5, 2.0, 1e3]))
    n_ent, n_rel = data.draw(st.integers(6, 20)), data.draw(st.integers(1, 4))
    graph = random_graph(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                         n_entities=n_ent, n_relations=n_rel,
                         n_train=data.draw(st.integers(1, 30)), n_valid=2, n_test=2)
    batch = graph.train[data.draw(st.lists(st.integers(0, len(graph.train) - 1), min_size=1,
                                           max_size=40))]
    dim = data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    zero_residuals = data.draw(st.booleans())
    if zero_residuals:  # as in chunked_training_run: the zero-norm branch runs
        batch = np.concatenate([batch, [[0, 0, 1], [1, 0, 0]]])
    row_block = data.draw(st.sampled_from([1, 7, 384]))
    threads = data.draw(st.sampled_from([1, 2]))
    # Gradient-sum ranges of a few rows, or one range.
    cells = data.draw(st.sampled_from([(64, 8), (models._CELL_BLOCK, models._MIN_CELL_BLOCK)]))
    runs = []
    for kind in (TransE(norm, margin), ReferenceTransE(norm, margin)):
        store = init_embeddings(n_ent, n_rel, dim, kind, seed=seed % 1000)
        if zero_residuals:
            store.entities[1] = store.entities[0]
            store.relations[0] = 0.0
        with mock.patch.object(models, "_ROW_BLOCK", row_block), chunk_threads(threads), \
                mock.patch.object(models, "_CELL_BLOCK", cells[0]), \
                mock.patch.object(models, "_MIN_CELL_BLOCK", cells[1]):
            runs.append(loss_and_grad(kind, store, graph, batch, np.random.default_rng(seed)))
    (loss, grads), (expected_loss, expected_grads) = runs
    assert bits(loss).tolist() == bits(expected_loss).tolist()
    assert list(grads) == list(expected_grads) == ["entities"]
    assert np.array_equal(grads["entities"].rows, expected_grads["entities"].rows)
    assert np.array_equal(bits(grads["entities"].values), bits(expected_grads["entities"].values))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_accumulate_signed_references_equal_add_at_of_the_signed_rows(data):
    n_rows = data.draw(st.integers(1, 10))
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=40)))
    n_contribs = data.draw(st.integers(1, 12))
    width = data.draw(st.integers(1, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n_contribs, width)
    contribs = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    contribs[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    refs = rng.integers(0, n_contribs, size=len(rows))
    signs = rng.choice([-1.0, 1.0], size=len(rows))
    cell_block = data.draw(st.sampled_from([1, 7, 64, models._CELL_BLOCK]))
    with mock.patch.object(models, "_CELL_BLOCK", cell_block):
        grad = models._accumulate(rows, contribs, n_rows, refs, signs)
    unique, expected = add_at_reference(rows, signs[:, None] * contribs[refs])
    assert np.array_equal(grad.rows, unique)
    assert np.array_equal(grad.values.view(np.uint64), expected.view(np.uint64))


def test_accumulate_refuses_references_of_another_count():
    rows, contribs = np.array([0, 1, 1]), np.ones((2, 3))
    with pytest.raises(ValueError):
        models._accumulate(rows, contribs, 2, np.array([0, 1]), np.ones(3))
    with pytest.raises(ValueError):
        models._accumulate(rows, contribs, 2, np.array([0, 1, 1]), np.ones(2))
    with pytest.raises(ValueError):
        models._accumulate(rows, contribs, 2, np.array([0, 1, 1, 0]), np.ones(4))


def test_accumulate_refuses_a_pattern_of_other_contribution_rows():
    rows, contribs = np.array([0, 1, 1]), np.ones((3, 2))
    pattern = models._pattern(rows, 2, 3)
    assert np.array_equal(models._accumulate(pattern, contribs, 2).values, [[1.0, 1.0], [2.0, 2.0]])
    for short in (contribs[:2], np.ones((4, 2))):
        with pytest.raises(ValueError, match="contribution rows"):
            models._accumulate(pattern, short, 2)


@ALL_KINDS
def test_a_plan_of_another_batch_is_refused(kind):
    # A plan made for 8 positives, given with a batch of 6: the kernel would
    # read contribution rows the smaller batch does not have.
    graph = random_graph(np.random.default_rng(8), n_entities=15, n_relations=3,
                         n_train=30, n_valid=2, n_test=2)
    store = init_embeddings(15, 3, 5, kind, seed=2)
    rng = np.random.default_rng(0)
    negatives = models.corrupt_batch(graph, graph.train[:8], rng, kind.negatives)
    plan = kind.plan(graph.train[:8], negatives, store.n_entities, store.n_relations)
    loss, grads = loss_and_grad(kind, store, graph, graph.train[:8], rng, negatives, plan=plan)
    expected = loss_and_grad(kind, store, graph, graph.train[:8], rng, negatives)
    assert bits(loss) == bits(expected[0])
    with pytest.raises(ValueError):
        loss_and_grad(kind, store, graph, graph.train[:6], rng, negatives[:6 * kind.negatives],
                      plan=plan)


class ReferenceRotatE(RotatE):
    """RotatE over the interleaved (|E|, 2d) rows: halves gathered with
    slices, entity contributions written into the strided halves of a
    (2n, 2d) buffer and the tails' rows negated: the reference for the
    half-row body and its signed references."""

    def _residual(self, store, trig, h, r, t):
        d = store.dim
        ent = store.entities
        h_re, h_im = ent[h, :d], ent[h, d:]
        t_re, t_im = ent[t, :d], ent[t, d:]
        cos, sin = trig[0].take(r, 0), trig[1].take(r, 0)
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
        return -self._residual(store, context, h, r, t)[2].sum(axis=1)

    def loss_grad(self, store, positives, negatives):
        k, eta, d = self.negatives, self.margin, store.dim
        trig = self.score_context(store)
        n_pos, n_neg = len(positives), len(negatives)
        ent_contrib = np.empty((2 * (n_pos + n_neg), 2 * d))
        rel_contrib = np.empty((n_pos + n_neg, d))

        def terms(tr, dldf_of, g_h, g_t, g_r):
            f = np.empty(len(tr))

            def chunk(rows):
                a, b, modulus, cos, sin, t_re, t_im = self._residual(
                    store, trig, tr[rows, 0], tr[rows, 1], tr[rows, 2])
                f_rows = np.negative(modulus.sum(axis=1), out=f[rows])
                neg_dldf = -dldf_of(f_rows)[:, None]
                zero = ~(modulus > 0.0)
                np.copyto(modulus, 1.0, where=zero)
                da = np.divide(a, modulus)
                np.copyto(da, -0.0, where=zero)
                da *= neg_dldf
                db = np.divide(b, modulus, out=modulus)
                np.copyto(db, -0.0, where=zero)
                db *= neg_dldf
                gr = np.add(a, t_re, out=g_r[rows])
                gr *= db
                b += t_im
                b *= da
                gr -= b
                gh_re, gh_im = g_h[rows, :d], g_h[rows, d:]
                np.multiply(db, cos, out=gh_im)
                gh_im -= np.multiply(da, sin, out=b)
                np.multiply(da, cos, out=gh_re)
                gh_re += np.multiply(db, sin, out=b)
                np.negative(da, out=g_t[rows, :d])
                np.negative(db, out=g_t[rows, d:])

            models._run_chunks(chunk, models._row_chunks(len(tr)))
            return f

        f_pos = terms(positives, lambda f: -expit(-(eta + f)),
                      ent_contrib[:n_pos], ent_contrib[n_pos:2 * n_pos], rel_contrib[:n_pos])
        f_neg = terms(negatives, lambda f: expit(eta + f) / k,
                      ent_contrib[2 * n_pos:2 * n_pos + n_neg], ent_contrib[2 * n_pos + n_neg:],
                      rel_contrib[n_pos:])
        loss = float(np.logaddexp(0.0, -(eta + f_pos)).sum()
                     + np.logaddexp(0.0, eta + f_neg).sum() / k)
        ent_rows = np.concatenate([positives[:, 0], positives[:, 2],
                                   negatives[:, 0], negatives[:, 2]])
        rel_rows = np.concatenate([positives[:, 1], negatives[:, 1]])
        return loss, {
            "entities": models._accumulate(ent_rows, ent_contrib, store.n_entities),
            "relations": models._accumulate(rel_rows, rel_contrib, store.n_relations),
        }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_half_row_rotate_loss_is_bitwise_the_reference(data):
    margin = data.draw(st.sampled_from([0.0, 2.0, 6.0]))
    negatives = data.draw(st.integers(1, 4))
    n_ent, n_rel = data.draw(st.integers(6, 20)), data.draw(st.integers(1, 4))
    graph = random_graph(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                         n_entities=n_ent, n_relations=n_rel,
                         n_train=data.draw(st.integers(1, 30)), n_valid=2, n_test=2)
    batch = graph.train[data.draw(st.lists(st.integers(0, len(graph.train) - 1), min_size=1,
                                           max_size=40))]
    zero_moduli = data.draw(st.booleans())
    if zero_moduli:  # as in chunked_training_run: the -0.0 branch runs
        batch = np.concatenate([batch, [[0, 0, 1], [1, 0, 0]]])
    # A second, partial batch: the epoch's last, shorter one.
    batches = [batch, batch[:data.draw(st.integers(1, len(batch)))]]
    dim = data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    row_block = data.draw(st.sampled_from([1, 7, 384]))
    threads = data.draw(st.sampled_from([1, 2]))
    # Gradient-sum ranges of a few rows, or one range.
    cells = data.draw(st.sampled_from([(64, 8), (models._CELL_BLOCK, models._MIN_CELL_BLOCK)]))
    runs = []
    for kind in (RotatE(margin, negatives), ReferenceRotatE(margin, negatives)):
        store = init_embeddings(n_ent, n_rel, dim, kind, seed=seed % 1000)
        if zero_moduli:
            store.entities[1] = store.entities[0]
            store.relations[0] = 0.0
        rng, steps = np.random.default_rng(seed), []
        with mock.patch.object(models, "_ROW_BLOCK", row_block), chunk_threads(threads), \
                mock.patch.object(models, "_CELL_BLOCK", cells[0]), \
                mock.patch.object(models, "_MIN_CELL_BLOCK", cells[1]):
            for positives in batches:
                loss, grads = loss_and_grad(kind, store, graph, positives, rng)
                adam_step(store, grads, 0.05)
                steps.append((loss, grads))
        runs.append((steps, store))
    (steps, store), (expected_steps, expected) = runs
    for (loss, grads), (expected_loss, expected_grads) in zip(steps, expected_steps):
        assert bits(loss).tolist() == bits(expected_loss).tolist()
        assert list(grads) == list(expected_grads) == ["entities", "relations"]
        for name in grads:
            assert np.array_equal(grads[name].rows, expected_grads[name].rows)
            assert np.array_equal(bits(grads[name].values), bits(expected_grads[name].values))
    for (_, *matrices), (_, *expected_matrices) in zip(store.matrices(), expected.matrices()):
        for matrix, expected_matrix in zip(matrices, expected_matrices):
            assert np.array_equal(bits(matrix), bits(expected_matrix))


@pytest.mark.parametrize("row_block", [1, 7, 384])
def test_half_row_rotate_scores_are_bitwise_the_reference(row_block):
    store = init_embeddings(23, 4, 6, RotatE(), seed=9)
    store.entities[1] = store.entities[0]  # (0, 0, 1) and (1, 0, 0) score exactly 0
    store.relations[0] = 0.0
    triples = np.concatenate([np.random.default_rng(3).integers(0, [23, 4, 23], size=(60, 3)),
                              [[0, 0, 1], [1, 0, 0]]])

    def scores(kind):
        out = [score_batch(kind, store, triples)]
        for h, r, t in triples[::7].tolist():
            out += [score_all_tails(kind, store, h, r), score_all_heads(kind, store, r, t)]
        return out

    with mock.patch.object(models, "_ROW_BLOCK", row_block):
        actual, expected = scores(RotatE()), scores(ReferenceRotatE())
    assert all(np.array_equal(bits(a), bits(e)) for a, e in zip(actual, expected, strict=True))
    assert expected[0][-2:].tolist() == [0.0, 0.0]


def test_rotate_trig_is_taken_once_per_call():
    # The relation table's trig is taken once per loss call, however many
    # chunks gather rows from it.
    kind = RotatE(margin=2.0, negatives=3)
    graph = random_graph(np.random.default_rng(3), n_entities=6, n_relations=2,
                         n_train=10, n_valid=2, n_test=2)
    store = init_embeddings(6, 2, 4, kind, seed=4)
    with mock.patch.object(models, "_rotate_trig", wraps=models._rotate_trig) as trig, \
            mock.patch.object(models, "_ROW_BLOCK", 4):
        loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(0))
    assert trig.call_count == 1


# -- losses: exact values ---------------------------------------------------------------


def test_hinge_inactive_when_margin_satisfied():
    # f(pos) = -1 while every possible corruption scores -2: term [.]_+ = 0
    kind = TransE("l1", margin=1.0)
    graph = make_graph([(0, 0, 1)], n_entities=2)
    store = make_store(kind, [[0.0], [1.0]], [[2.0]])
    # corruption candidates: (1,0,1) -> -2, (0,0,0) -> -2
    loss, grads = loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(0))
    assert loss == 0.0
    assert all(np.all(g.values == 0.0) for g in grads.values())


def test_softplus_at_zero_score():
    # zero tail embedding makes every score 0: per-term loss log(2)
    kind = DistMult(l2_coeff=0.0, negatives=4)
    graph = make_graph([(0, 0, 1)], n_entities=3)
    store = make_store(kind, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0]])
    rng = np.random.default_rng(1)
    loss, _ = loss_and_grad(kind, store, graph, graph.train, rng)
    negatives = corrupt_batch(graph, graph.train, np.random.default_rng(1), 4)
    expected = sum(np.log(2.0) for _ in range(1 + 4)
                   if True)  # positive + negatives, all scoring 0 unless head swapped to 0
    # recompute the exact expectation from the actual sampled negatives
    scores = score_batch(kind, store, negatives)
    expected = np.log1p(np.exp(-0.0)) + np.log1p(np.exp(scores)).sum()
    assert loss == pytest.approx(expected, rel=1e-12)


def test_rotation_loss_exact_value():
    # the loss reuses the residual it scores with; pin it to score_batch
    kind = RotatE(margin=2.0, negatives=3)
    graph = random_graph(np.random.default_rng(3), n_entities=6, n_relations=2,
                         n_train=10, n_valid=2, n_test=2)
    store = init_embeddings(6, 2, 4, kind, seed=4)
    loss, _ = loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(8))
    negatives = corrupt_batch(graph, graph.train, np.random.default_rng(8), kind.negatives)
    f_pos = score_batch(kind, store, graph.train)
    f_neg = score_batch(kind, store, negatives)
    eta, k = kind.margin, kind.negatives
    expected = np.logaddexp(0.0, -(eta + f_pos)).sum() + np.logaddexp(0.0, eta + f_neg).sum() / k
    assert loss == expected


def test_distmult_loss_exact_value():
    # The L2 term sums the touched entity rows and the touched relation rows
    # apart, as when they were separate matrices, even in the shared table.
    # A large coefficient keeps the last bits of that term in the loss, and
    # with this store one sum over all touched rows rounds differently.
    kind = DistMult(l2_coeff=1000.0, negatives=3)
    graph = random_graph(np.random.default_rng(3), n_entities=40, n_relations=5,
                         n_train=30, n_valid=2, n_test=2)
    store = init_embeddings(40, 5, 16, kind, seed=2)
    loss, _ = loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(8))
    negatives = corrupt_batch(graph, graph.train, np.random.default_rng(8), kind.negatives)
    labeled = np.concatenate([graph.train, negatives])
    neg_y = np.repeat([-1.0, 1.0], [len(graph.train), len(negatives)])
    ent_rows, rel_rows = np.unique(labeled[:, [0, 2]]), np.unique(labeled[:, 1])
    l2 = (store.entities[ent_rows] ** 2).sum() + (store.relations[rel_rows] ** 2).sum()
    expected = float(np.logaddexp(0.0, neg_y * score_batch(kind, store, labeled)).sum())
    assert loss == expected + kind.l2_coeff * float(l2)


# -- losses: finite-difference oracle -----------------------------------------------------


def perturbed_loss(kind, store, graph, positives, seed):
    """Loss functional with the negative draws pinned by the rng seed."""
    loss, _ = loss_and_grad(kind, store, graph, positives, np.random.default_rng(seed))
    return loss


def dense_grad(store, grads):
    out = {"entities": np.zeros(store.entities.shape), "relations": np.zeros(store.relations.shape)}
    for name, grad in split_grads(store, grads).items():
        out[name][grad.rows] = grad.values
    return out


def near_kink(kind, store, graph, positives, seed):
    """Reject instances whose loss sits near a hinge or L1 kink."""
    rng = np.random.default_rng(seed)
    if isinstance(kind, TransE):
        negatives = corrupt_batch(graph, positives, rng, 1)
        for block in (positives, negatives):
            delta = store.entities[block[:, 0]] + store.relations[block[:, 1]] \
                - store.entities[block[:, 2]]
            if isinstance(kind, TransE) and kind.norm == "l1":
                if np.abs(delta).min() < KINK_MARGIN:
                    return True
            elif np.sqrt((delta ** 2).sum(axis=1)).min() < KINK_MARGIN:
                return True
        f_pos = score_batch(kind, store, positives)
        f_neg = score_batch(kind, store, negatives)
        if np.abs(f_neg - f_pos + kind.margin).min() < KINK_MARGIN:
            return True
        return False
    if isinstance(kind, RotatE):
        negatives = corrupt_batch(graph, positives, rng, kind.negatives)
        for block in (positives, negatives):
            d = store.dim
            h, r, t = block[:, 0], block[:, 1], block[:, 2]
            theta = store.relations[r]
            a = store.entities[h, :d] * np.cos(theta) - store.entities[h, d:] * np.sin(theta) \
                - store.entities[t, :d]
            b = store.entities[h, :d] * np.sin(theta) + store.entities[h, d:] * np.cos(theta) \
                - store.entities[t, d:]
            if np.sqrt(a * a + b * b).min() < KINK_MARGIN:
                return True
    return False


def run_fd_check(kind, dim, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_entities=8, n_relations=2, n_train=10, n_valid=2, n_test=2)
    store = init_embeddings(8, 2, dim, kind, seed=seed)
    positives = graph.train[rng.choice(len(graph.train), size=4, replace=False)]
    if near_kink(kind, store, graph, positives, seed):
        return None

    _, grads = loss_and_grad(kind, store, graph, positives, np.random.default_rng(seed))
    analytic = dense_grad(store, grads)

    worst = 0.0
    for name in ("entities", "relations"):
        matrix = getattr(store, name)
        # below ~1e-5 the central difference is dominated by cancellation
        # noise in the O(10) loss, not by the derivative being checked
        check = np.argwhere(np.abs(analytic[name]) > 1e-5)
        sampled = check[rng.choice(len(check), size=min(12, len(check)), replace=False)]
        for i, j in sampled:
            original = matrix[i, j]
            matrix[i, j] = original + FD_STEP
            up = perturbed_loss(kind, store, graph, positives, seed)
            matrix[i, j] = original - FD_STEP
            down = perturbed_loss(kind, store, graph, positives, seed)
            matrix[i, j] = original
            numeric = (up - down) / (2.0 * FD_STEP)
            scale = max(abs(numeric), abs(analytic[name][i, j]), 1e-5)
            worst = max(worst, abs(numeric - analytic[name][i, j]) / scale)
    return worst


@pytest.mark.parametrize("kind", [TransE("l1", 1.0), TransE("l2", 1.0),
                                  DistMult(l2_coeff=1e-3, negatives=3),
                                  RotatE(margin=2.0, negatives=3)],
                         ids=["transe-l1", "transe-l2", "distmult", "rotate"])
@pytest.mark.parametrize("dim", [4, 8])
def test_gradients_match_finite_differences(kind, dim):
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        worst = run_fd_check(kind, dim, seed)
        if worst is None:
            continue
        assert worst < FD_TOL, f"{kind} d={dim} seed={seed}: rel err {worst}"
        checked += 1


def test_gradient_rows_cover_only_touched_rows(tiny_graph):
    kind = TransE("l1")
    store = init_embeddings(7, 2, 4, kind, seed=1)
    batch = tiny_graph.train[:2]
    _, grads = loss_and_grad(kind, store, tiny_graph, batch, np.random.default_rng(0))
    touched_rel = set(split_grads(store, grads)["relations"].rows.tolist())
    assert touched_rel <= set(batch[:, 1].tolist())


@ALL_KINDS
def test_training_step_leaves_untouched_rows_bitwise_unchanged(kind):
    graph = random_graph(np.random.default_rng(5), n_entities=30, n_relations=6,
                         n_train=40, n_valid=2, n_test=2)
    store = init_embeddings(30, 6, 4, kind, seed=2)
    store.m_ent += 0.5  # nonzero moments, so an overwrite would show
    store.v_rel += 0.25
    before = store.copy()
    batch = graph.train[:3]
    _, grads = loss_and_grad(kind, store, graph, batch, np.random.default_rng(9))
    project = trainer._normalize_entity_rows if isinstance(kind, TransE) else None
    adam_step(store, grads, 0.05, project)
    # The loss draws its negatives first, so the same seed redraws them.
    count = 1 if isinstance(kind, TransE) else kind.negatives
    touched = np.concatenate([batch, corrupt_batch(graph, batch, np.random.default_rng(9), count)])
    untouched = {"entities": np.setdiff1d(np.arange(30), touched[:, [0, 2]]),
                 "relations": np.setdiff1d(np.arange(6), touched[:, 1])}
    assert len(untouched["entities"]) > 0 and len(untouched["relations"]) > 0
    for (name, *old), (_, *new) in zip(before.matrices(), store.matrices()):
        for old_matrix, new_matrix in zip(old, new):
            rows = untouched[name]
            assert np.array_equal(bits(old_matrix[rows]), bits(new_matrix[rows]))
    assert not np.array_equal(store.relations[batch[:, 1]], before.relations[batch[:, 1]])


# -- optimizer ------------------------------------------------------------------------


def scalar_adam_trace(gradients, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar Adam oracle."""
    m = v = 0.0
    x = 0.0
    for step, g in enumerate(gradients, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** step)
        v_hat = v / (1 - beta2 ** step)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def one_cell_store():
    kind = DistMult()
    store = make_store(kind, np.zeros((1, 1)), np.zeros((1, 1)))
    return kind, store


def test_adam_scalar_hand_trace():
    _, store = one_cell_store()
    for _ in range(3):
        grads = {"entities": SparseGrad(np.array([0]), np.array([[1.0]]))}
        adam_step(store, grads, 0.1)
    expected = scalar_adam_trace([1.0, 1.0, 1.0])
    assert store.entities[0, 0] == pytest.approx(expected, rel=1e-12)
    assert store.entities[0, 0] == pytest.approx(-0.3, abs=1e-6)


def test_adam_first_step_is_minus_lr():
    _, store = one_cell_store()
    adam_step(store, {"entities": SparseGrad(np.array([0]), np.array([[1.0]]))}, 0.1)
    assert store.entities[0, 0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_zero_gradient_fixed_point():
    kind = TransE()
    store = init_embeddings(4, 2, 3, kind, seed=0)
    before = store.entities.copy()
    grads = {"entities": SparseGrad(np.arange(4), np.zeros((4, 3)))}
    adam_step(store, grads, 0.001)
    assert np.array_equal(store.entities, before)
    assert store.step == 1


def test_adam_untouched_rows_bitwise_unchanged():
    store = init_embeddings(6, 2, 3, TransE(), seed=2)
    before_ent = store.entities.copy()
    before_rel = store.relations.copy()
    grads = {"entities": SparseGrad(np.array([1, 4]), np.ones((2, 3)))}
    adam_step(store, grads, 0.05)
    untouched = [0, 2, 3, 5]
    assert np.array_equal(store.entities[untouched], before_ent[untouched])
    assert np.array_equal(store.relations, before_rel)
    assert not np.array_equal(store.entities[[1, 4]], before_ent[[1, 4]])


def test_adam_rejects_non_finite_gradient():
    store = init_embeddings(3, 1, 2, TransE(), seed=0)
    bad = {"entities": SparseGrad(np.array([1]), np.array([[np.nan, 0.0]]))}
    with pytest.raises(NumericError, match="entities row 1"):
        adam_step(store, bad, 0.001)


@pytest.mark.parametrize("threads", [1, 2], ids=["1thread", "2threads"])
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_adam_raises_non_finite_gradient_without_a_warning(entry, threads):
    # inf / inf in the update must not print numpy's "invalid value"
    # warning before the NumericError; pool threads run the chunks too.
    store = init_embeddings(40, 2, 3, DistMult(), seed=0)
    before = store.copy()
    values = np.ones((30, 3))
    values[17, 1] = entry
    bad = {"entities": SparseGrad(np.arange(30), values)}
    with mock.patch.object(models, "_ROW_BLOCK", 4), chunk_threads(threads), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as raised:
            adam_step(store, bad, 0.001)
    assert str(raised.value) == "non-finite gradient for entities row 17"
    before.step += 1  # the step count advances before any table is updated
    assert_same_store_bits(store, before)


def test_adam_reports_relation_row_of_shared_table():
    # Row |E| + 1 of the shared table is relation 1.
    store = init_embeddings(3, 2, 2, TransE(), seed=0)
    bad = {"entities": SparseGrad(np.array([0, 4]), np.array([[0.0, 0.0], [0.0, np.nan]]))}
    with pytest.raises(NumericError, match="gradient for relations row 1$"):
        adam_step(store, bad, 0.001)


def test_transe_projection_leaves_relation_rows_unnormalised(tiny_graph):
    kind = TransE("l2")
    store = init_embeddings(7, 2, 4, kind, seed=3)
    unprojected = store.copy()
    _, grads = loss_and_grad(kind, store, tiny_graph, tiny_graph.train, np.random.default_rng(0))
    adam_step(store, grads, 0.01, trainer._normalize_entity_rows)
    adam_step(unprojected, grads, 0.01)
    touched = split_grads(store, grads)
    ent_rows, rel_rows = touched["entities"].rows, touched["relations"].rows
    assert np.allclose(np.linalg.norm(store.entities[ent_rows], axis=1), 1.0)
    assert len(rel_rows) == 2
    assert not np.allclose(np.linalg.norm(store.relations[rel_rows], axis=1), 1.0)
    assert np.array_equal(bits(store.relations), bits(unprojected.relations))


def test_adam_accepts_finite_gradient_whose_sum_overflows():
    # The finite check sums a block first; an overflowing sum of finite
    # entries must fall through to the entrywise scan, not raise.
    store = init_embeddings(3, 1, 2, TransE(), seed=0)
    before = store.entities.copy()
    huge = {"entities": SparseGrad(np.array([0, 2]), np.array([[1e308, 1.0], [1e308, 1.0]]))}
    with np.errstate(over="ignore"):  # the sum and g*g overflow by design
        adam_step(store, huge, 0.001)
    assert np.isfinite(store.entities).all()
    assert (store.entities[[0, 2], 1] != before[[0, 2], 1]).all()


@pytest.mark.parametrize("row_block, threads",
                         [(block, threads) for threads in (1, 2, 3) for block in (1, 7, 1000)],
                         ids=[f"{block}" + ("" if threads == 1 else f"-{threads}threads")
                              for threads in (1, 2, 3) for block in (1, 7, 1000)])
def test_adam_reports_first_bad_gradient_row_across_chunks(row_block, threads):
    store = init_embeddings(20, 1, 2, TransE(), seed=0)
    values = np.ones((20, 2))
    values[[9, 13], 1] = [np.inf, np.nan]
    # Row 2's huge gradient sends its parameter to inf in an earlier chunk:
    # the bad gradient is still the one reported.
    store.entities[2, 0] = 1.5e308
    values[2, 0] = -1e300
    with mock.patch.object(models, "_ROW_BLOCK", row_block), chunk_threads(threads), \
            np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="entities row 9$"):
        adam_step(store, {"entities": SparseGrad(np.arange(20), values)}, 1e300)
    assert store.step == 1 and not store.m_ent.any() and not store.v_ent.any()
    assert store.entities[2, 0] == 1.5e308


def assert_same_store_bits(store, expected):
    assert store.step == expected.step
    for (_, *matrices), (_, *expected_matrices) in zip(store.tables, expected.tables):
        for matrix, expected_matrix in zip(matrices, expected_matrices):
            assert np.array_equal(bits(matrix), bits(expected_matrix))


def eager_check_adam_step(store, grads, learning_rate):
    """``adam_step`` with the gradient scan before each chunk's update: the
    oracle for the scan that runs only after a non-finite update.

    Per table and row chunk: the first non-finite gradient row skips the
    chunk's update, else the first non-finite parameter row after it is
    noted. The first gradient message of any chunk, else the first parameter
    message, is raised before the table is stored.
    """
    store.step += 1
    bias1 = 1.0 - 0.9 ** store.step
    bias2 = 1.0 - 0.999 ** store.step
    for name, params, m, v in store.tables:
        grad = grads.get(name)
        if grad is None or len(grad.rows) == 0:
            continue
        grad_bad, param_bad, updates = [], [], []
        for chunk in models._row_chunks(len(grad.rows)):
            ids, g = grad.rows[chunk], grad.values[chunk]
            bad = models._non_finite_row(store, name, ids, g)
            if bad is not None:
                grad_bad.append(f"non-finite gradient for {bad}")
                continue
            m_chunk, v_chunk, p_chunk = m[ids], v[ids], params[ids]
            m_chunk *= 0.9
            m_chunk += (1.0 - 0.9) * g
            v_chunk *= 0.999
            g_sq = g * g
            g_sq *= 1.0 - 0.999
            v_chunk += g_sq
            delta = m_chunk / bias1
            delta *= learning_rate
            denom = v_chunk / bias2
            np.sqrt(denom, out=denom)
            denom += 1e-8
            delta /= denom
            p_chunk -= delta
            bad = models._non_finite_row(store, name, ids, p_chunk)
            if bad is not None:
                param_bad.append(f"non-finite parameter after update: {bad}")
            updates.append((ids, m_chunk, v_chunk, p_chunk))
        if grad_bad or param_bad:
            raise NumericError((grad_bad + param_bad)[0])
        for ids, m_chunk, v_chunk, p_chunk in updates:
            m[ids], v[ids], params[ids] = m_chunk, v_chunk, p_chunk


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_late_gradient_scan_matches_the_eager_check(data):
    kind = data.draw(st.sampled_from([DistMult(), RotatE()]))
    store = init_embeddings(12, 3, 2, kind, seed=data.draw(st.integers(0, 99)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    store.step = data.draw(st.integers(0, 3))
    grads = {}
    for name, params, m, v in store.tables:
        m[...] = rng.standard_normal(m.shape)
        v[...] = rng.random(v.shape)
        # Moments whose v has already overflowed to inf.
        v[rng.random(len(v)) < data.draw(st.sampled_from([0.0, 0.3]))] = np.inf
        rows = np.flatnonzero(rng.random(len(params)) < 0.7)
        values = rng.standard_normal((len(rows), params.shape[1]))
        for special in (np.inf, -np.inf, np.nan, 1e308):
            hit = rng.random(values.shape) < data.draw(st.sampled_from([0.0, 0.02, 0.2]))
            values[hit] = special
        grads[name] = SparseGrad(rows, values)
    learning_rate = data.draw(st.sampled_from([1e-3, 1e300]))
    row_block = data.draw(st.sampled_from([1, 7, 1000]))
    threads = data.draw(st.sampled_from([1, 2]))
    expected = store.copy()
    outcomes = []
    with mock.patch.object(models, "_ROW_BLOCK", row_block), \
            np.errstate(over="ignore", invalid="ignore"):
        for target, step in ((expected, eager_check_adam_step), (store, adam_step)):
            try:
                with chunk_threads(threads):
                    step(target, grads, learning_rate)
                outcomes.append(None)
            except NumericError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert_same_store_bits(store, expected)


def whole_block_projection_step(store, grads, learning_rate):
    """``adam_step``, then TransE's projection over every touched entity row
    at once: the oracle for the projection inside each row chunk."""
    adam_step(store, grads, learning_rate)
    rows = grads["entities"].rows
    rows = rows[:rows.searchsorted(store.n_entities)]
    store.entities[rows] = trainer._normalize_entity_rows(store.entities[rows])


def counted_projection(block, counted):
    """``_normalize_entity_rows`` that adds the rows it projects to ``counted``."""
    counted.append(len(block))
    return trainer._normalize_entity_rows(block)


@pytest.mark.parametrize("row_block, threads",
                         [(block, threads) for threads in (1, 2, 3) for block in (1, 7, 1000)],
                         ids=[f"{block}-{threads}threads"
                              for threads in (1, 2, 3) for block in (1, 7, 1000)])
@pytest.mark.parametrize("dim", [100, 200])  # 200 sums past numpy's 128-value pairwise block
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_per_chunk_projection_is_bitwise_the_whole_block_projection(norm, dim, row_block,
                                                                    threads):
    kind = TransE(norm, 1.0)
    graph = random_graph(np.random.default_rng(dim), n_entities=40, n_relations=3,
                         n_train=30, n_valid=2, n_test=2)
    store = init_embeddings(40, 3, dim, kind, seed=7)
    expected = store.copy()
    for step in range(2):
        _, grads = loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(step))
        whole_block_projection_step(expected, grads, 0.05)
        projected = []
        with mock.patch.object(models, "_ROW_BLOCK", row_block), chunk_threads(threads):
            adam_step(store, grads, 0.05, lambda block: counted_projection(block, projected))
        assert sum(projected) == np.count_nonzero(grads["entities"].rows < 40)
        assert_same_store_bits(store, expected)


def test_failed_transe_step_stores_none_of_its_projected_chunks():
    store = init_embeddings(40, 2, 5, TransE("l2"), seed=1)
    before = store.copy()
    values = np.random.default_rng(2).standard_normal((42, 5))
    values[33, 2] = np.nan
    projected = []
    # Chunks of 4: rows 32-35 hold the bad one, rows 40 and 41 are relations.
    with mock.patch.object(models, "_ROW_BLOCK", 4), chunk_threads(2), \
            pytest.raises(NumericError, match="gradient for entities row 33$"):
        adam_step(store, {"entities": SparseGrad(np.arange(42), values)}, 0.01,
                  lambda block: counted_projection(block, projected))
    assert sum(projected) == 36
    before.step += 1
    assert_same_store_bits(store, before)


def test_projection_calls_never_overlap():
    # A tracer's timing wrapper is not thread-safe, so adam_step makes one
    # call at a time, whichever threads run the chunks.
    store = init_embeddings(30, 2, 4, TransE("l2"), seed=3)
    grads = {"entities": SparseGrad(np.arange(32),
                                    np.random.default_rng(4).standard_normal((32, 4)))}
    counting, active, most, callers = threading.Lock(), [0], [0], set()

    def project(block):
        with counting:
            active[0] += 1
            most[0] = max(most[0], active[0])
            callers.add(threading.get_ident())
        time.sleep(0.002)  # long enough for another thread to reach its call
        with counting:
            active[0] -= 1
        return trainer._normalize_entity_rows(block)

    with mock.patch.object(models, "_ROW_BLOCK", 1), chunk_threads(3):
        adam_step(store, grads, 0.01, project)
    assert most[0] == 1
    assert len(callers) > 1


@pytest.mark.parametrize("threads", [1, 2], ids=["1thread", "2threads"])
def test_chunk_whose_finite_parameters_overflow_a_norm_is_refused(threads):
    store = init_embeddings(12, 2, 3, TransE("l2"), seed=5)
    store.entities[5] = [1e308, 1e308, 1.0]  # its squared norm overflows, its entries do not
    grads = {"entities": SparseGrad(np.arange(14),
                                    np.random.default_rng(6).standard_normal((14, 3)))}
    expected = store.copy()
    expected.step += 1
    with np.errstate(over="ignore"), mock.patch.object(models, "_ROW_BLOCK", 4), \
            chunk_threads(threads), pytest.raises(NumericError, match="norm overflows"):
        adam_step(store, grads, 0.01, trainer._normalize_entity_rows)
    # The huge row would have projected to zeros: nothing of the table is stored.
    assert_same_store_bits(store, expected)


@pytest.mark.parametrize("rows, values", [
    ([0, -1, 3], np.ones((3, 3))),      # a negative id, which "clip" reads as row 0
    ([0, 7], np.ones((2, 3))),          # past the 7-row shared table
    ([3, 1], np.ones((2, 3))),          # descending
    ([2, 2], np.ones((2, 3))),          # repeated: the scatter keeps one update
    ([[1, 2]], np.ones((2, 3))),        # not 1-D
    ([1, 2], np.ones((2, 1))),          # would broadcast across the columns
    ([1, 2], np.ones((3, 3))),          # more value rows than ids
    ([1, 2], np.ones(6)),
], ids=["negative", "past-end", "descending", "repeated", "2d-rows", "one-column",
        "extra-rows", "flat-values"])
def test_adam_refuses_malformed_gradients(rows, values):
    store = init_embeddings(4, 3, 3, TransE(), seed=0)
    store.step = 5
    expected = store.copy()
    grads = {"entities": SparseGrad(np.array(rows), values)}
    with pytest.raises(ValueError, match="entities gradient"):
        adam_step(store, grads, 0.001)
    assert store.step == 5
    assert_same_store_bits(store, expected)


def test_adam_refuses_a_malformed_table_before_updating_any():
    # RotatE's relation gradient is malformed: its valid entity gradient,
    # updated first, is not stored either.
    store = init_embeddings(4, 3, 2, RotatE(), seed=0)
    expected = store.copy()
    grads = {"entities": SparseGrad(np.array([0, 2]), np.ones((2, 4))),
             "relations": SparseGrad(np.array([1, 1]), np.ones((2, 2)))}
    with pytest.raises(ValueError, match="relations gradient rows"):
        adam_step(store, grads, 0.001)
    assert_same_store_bits(store, expected)


def test_training_step_deterministic(tiny_graph):
    def run():
        kind = TransE("l1")
        store = init_embeddings(7, 2, 4, kind, seed=9)
        for i in range(5):
            _, grads = loss_and_grad(kind, store, tiny_graph, tiny_graph.train,
                                     np.random.default_rng(i))
            adam_step(store, grads, 0.01)
        return store

    a, b = run(), run()
    assert np.array_equal(a.entities, b.entities)
    assert np.array_equal(a.relations, b.relations)


def test_rotation_modulus_stays_unit_after_updates():
    kind = RotatE(margin=2.0, negatives=2)
    graph = random_graph(np.random.default_rng(3), n_entities=6, n_relations=2,
                         n_train=10, n_valid=2, n_test=2)
    store = init_embeddings(6, 2, 4, kind, seed=4)
    for i in range(20):
        _, grads = loss_and_grad(kind, store, graph, graph.train, np.random.default_rng(i))
        adam_step(store, grads, 0.05)
    modulus = np.hypot(np.cos(store.relations), np.sin(store.relations))
    assert np.abs(modulus - 1.0).max() <= 4 * np.finfo(np.float64).eps


def test_all_entries_finite_after_updates(tiny_graph):
    kind = DistMult(negatives=2)
    store = init_embeddings(7, 2, 4, kind, seed=5)
    for i in range(10):
        _, grads = loss_and_grad(kind, store, tiny_graph, tiny_graph.train,
                                 np.random.default_rng(i))
        adam_step(store, grads, 0.1)
    assert np.isfinite(store.entities).all() and np.isfinite(store.relations).all()


# -- checkpoint IO ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", [TransE("l2", 5.0), DistMult(l2_coeff=1e-4, negatives=7),
                                  RotatE(margin=9.0, negatives=2)])
def test_checkpoint_round_trip(tmp_path, kind):
    store = init_embeddings(11, 3, 6, kind, seed=8)
    store.step = 17
    store.m_ent += 0.25
    store.v_rel += 0.5
    path = tmp_path / "model.ckpt"
    save_store(path, store)
    assert struct.unpack_from("<QQ", path.read_bytes(), 46) == (17, 17)  # both step fields
    loaded = load_store(path)
    assert loaded.kind == kind
    assert loaded.dim == store.dim
    assert loaded.step == 17
    for name in ("entities", "relations", "m_ent", "v_ent", "m_rel", "v_rel"):
        assert np.array_equal(getattr(loaded, name), getattr(store, name))


def test_checkpoint_rejects_differing_step_counts(tmp_path):
    # The two u64 step fields sit at offsets 46 and 54 of the model header.
    path = tmp_path / "model.ckpt"
    save_store(path, init_embeddings(5, 2, 3, DistMult(), seed=0))
    data = bytearray(path.read_bytes())
    struct.pack_into("<QQ", data, 46, 17, 4)
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match=r"step counts differ \(17 and 4\)"):
        load_store(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError):
        load_store(path)


def forge_entity_count(path):
    """Declare 2^40 entities: n_ent is the u64 at byte 22 of the model header."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 22, 2 ** 40)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("corrupt", [
    forge_entity_count,
    lambda p: p.write_bytes(p.read_bytes()[:-8]),
    lambda p: p.write_bytes(p.read_bytes() + b"\0" * 8),
], ids=["huge-entity-count", "truncated-body", "trailing-bytes"])
def test_checkpoint_rejects_forged_sizes(tmp_path, corrupt):
    path = tmp_path / "model.ckpt"
    save_store(path, init_embeddings(5, 2, 3, TransE(), seed=0))
    corrupt(path)
    with pytest.raises(DataError, match="matrix bytes"):
        load_store(path)


@pytest.mark.parametrize("kind, offset, fmt, value, message", [
    (TransE("l1"), 9, "<B", 7, "norm code must be 1 or 2"),
    (TransE("l2"), 9, "<B", 0, "norm code must be 1 or 2"),
    (DistMult(), 18, "<I", 0, "negatives per positive must be >= 1"),
    (RotatE(), 18, "<I", 0, "negatives per positive must be >= 1"),
], ids=["transe-norm-7", "transe-norm-0", "distmult-zero-negatives", "rotate-zero-negatives"])
def test_checkpoint_rejects_forged_kind_fields(tmp_path, kind, offset, fmt, value, message):
    # The norm byte sits at offset 9 and the u32 negatives count at 18.
    path = tmp_path / "model.ckpt"
    save_store(path, init_embeddings(5, 2, 3, kind, seed=0))
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match=message):
        load_store(path)
