import contextlib
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, small_graphs
from kgedenoise.errors import DataError
from kgedenoise.graph import KnowledgeGraph, Vocabulary, load_flags, write_flags
from kgedenoise.noise import SlotIndex, inject_noise, make_classification_negatives


def legal_corruptions(graph):
    """Oracle: enumerate every slot-constrained corruption not already positive."""
    out = set()
    train = [tuple(map(int, row)) for row in graph.train]
    heads = {}
    tails = {}
    for h, r, t in train:
        heads.setdefault(r, set()).add(h)
        tails.setdefault(r, set()).add(t)
    for h, r, t in train:
        for h2 in heads[r]:
            if not graph.is_positive(h2, r, t):
                out.add((h2, r, t))
        for t2 in tails[r]:
            if not graph.is_positive(h, r, t2):
                out.add((h, r, t2))
    return out


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_slot_index_matches_per_relation_scan(graph):
    # oracle: the index as first built, one scan of train per relation
    index = SlotIndex.from_graph(graph)
    assert len(index.heads) == len(index.tails) == graph.n_relations
    for r in range(graph.n_relations):
        rows = graph.train[graph.train[:, 1] == r]
        np.testing.assert_array_equal(index.heads[r], np.unique(rows[:, 0]))
        np.testing.assert_array_equal(index.tails[r], np.unique(rows[:, 2]))
        assert index.heads[r].dtype == index.tails[r].dtype == np.int64


def test_rate_zero_is_identity(tiny_graph):
    noisy = inject_noise(tiny_graph, 0.0, seed=1)
    assert np.array_equal(noisy.train, tiny_graph.train)
    assert not noisy.train_labels.any()


def test_two_triple_enumeration_oracle():
    # train = {(a,r,b), (c,r,d)}: the only legal corruptions are (a,r,d) and (c,r,b)
    graph = make_graph([(0, 0, 1), (2, 0, 3)], n_entities=4)
    assert legal_corruptions(graph) == {(0, 0, 3), (2, 0, 1)}
    noisy = inject_noise(graph, 0.5, seed=3)
    injected = [tuple(map(int, row)) for row in noisy.train[noisy.train_labels]]
    assert len(injected) == 1
    assert injected[0] in {(0, 0, 3), (2, 0, 1)}


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5])
def test_injection_count_and_legality(rate):
    rng = np.random.default_rng(0)
    train = [(int(rng.integers(12)), int(rng.integers(2)), int(rng.integers(12)))
             for _ in range(60)]
    graph = make_graph(list(dict.fromkeys(train)), n_entities=12, n_relations=2)
    noisy = inject_noise(graph, rate, seed=5)
    injected = [tuple(map(int, row)) for row in noisy.train[noisy.train_labels]]

    assert len(injected) == int(rate * len(graph.train))
    assert len(set(injected)) == len(injected)
    oracle = legal_corruptions(graph)
    for triple in injected:
        assert triple in oracle
        assert not graph.is_positive(*triple)
    # learner-visible index must cover the injections
    assert all(noisy.is_positive(*triple) for triple in injected)


def test_injection_deterministic_under_seed(tiny_graph):
    one = inject_noise(tiny_graph, 0.4, seed=9)
    two = inject_noise(tiny_graph, 0.4, seed=9)
    other = inject_noise(tiny_graph, 0.4, seed=10)
    assert np.array_equal(one.train, two.train)
    assert np.array_equal(one.train_labels, two.train_labels)
    assert not np.array_equal(one.train, other.train)


def reference_injection(graph, rate, seed):
    """Noise injection as one attempt at a time against a set of every known
    code, with the generator calls of ``inject_noise``: a source row, a coin
    and a pool index per attempt. Returns the noisy train, its labels, the
    shortfall warning (or None) and how many attempts hit a known triple or
    an injected one."""
    rng = np.random.default_rng(seed)
    train = graph.train
    target = int(rate * len(train))
    slot_index = SlotIndex.from_graph(graph)
    known = set(graph.positive_index.tolist())
    taken = set(known)
    injected = []
    skipped = known_hits = repeats = 0
    for _ in range(target):
        for _ in range(100):
            h, r, t = train[rng.integers(0, len(train))].tolist()
            if rng.random() < 0.5:
                pool = slot_index.heads[r]
                h = int(pool[rng.integers(0, len(pool))])
            else:
                pool = slot_index.tails[r]
                t = int(pool[rng.integers(0, len(pool))])
            code = graph.encode(h, r, t)
            if code not in taken:
                taken.add(code)
                injected.append((h, r, t))
                break
            known_hits += code in known
            repeats += code not in known
        else:
            skipped += 1
    new_train = np.concatenate([train, np.asarray(injected, dtype=np.int64).reshape(-1, 3)])
    labels = np.arange(len(new_train)) >= len(train)
    warning = f"noise injection fell short: {skipped} of {target} skipped" if skipped else None
    return new_train, labels, warning, known_hits, repeats


@contextlib.contextmanager
def noise_warnings():
    """The messages of the warnings ``kgedenoise.noise`` logs inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("kgedenoise.noise")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def assert_injection_matches_reference(graph, rate, seed):
    with noise_warnings() as warnings:
        noisy = inject_noise(graph, rate, seed)
    train, labels, warning, known_hits, repeats = reference_injection(graph, rate, seed)
    assert noisy.train.dtype == train.dtype and np.array_equal(noisy.train, train)
    assert np.array_equal(noisy.train_labels, labels)
    assert warnings == ([warning] if warning else [])
    return known_hits, repeats, warning


@st.composite
def dense_graphs(draw):
    """Graphs over 2-4 entities and 1-2 relations in which most possible
    triples are known, so that targets often run out of attempts."""
    n_entities, n_relations = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    triples = [(h, r, t) for h in range(n_entities) for r in range(n_relations)
               for t in range(n_entities)]
    places = draw(st.lists(st.sampled_from(["train", "train", "train", "valid", "test", None]),
                           min_size=len(triples), max_size=len(triples)))
    splits = {name: [tr for tr, place in zip(triples, places) if place == name]
              for name in ("train", "valid", "test")}
    return make_graph(splits["train"], splits["valid"], splits["test"], n_entities, n_relations)


@settings(max_examples=150, deadline=None)
@given(st.one_of(dense_graphs(), small_graphs()), st.sampled_from([0.2, 0.5, 1.0]),
       st.integers(0, 2**32))
def test_injection_matches_the_per_attempt_reference(graph, rate, seed):
    assert_injection_matches_reference(graph, rate, seed)


def test_dense_graphs_fall_short_like_the_reference():
    # Every relation-0 corruption of this train split is a known triple, and
    # relation 1 leaves only (1, 1, 0) and (0, 1, 1): most targets are skipped.
    graph = make_graph([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1)],
                       n_entities=2, n_relations=2)
    warnings = [assert_injection_matches_reference(graph, 1.0, seed)[2] for seed in range(20)]
    assert all(warning == "noise injection fell short: 4 of 6 skipped" for warning in warnings)


def large_graph():
    """60,000 distinct random triples over 300 entities and 8 relations
    (8% of all possible ones), 50,000 of them in train."""
    rng = np.random.default_rng(20)
    n_entities, n_relations = 300, 8
    codes = rng.choice(n_entities * n_relations * n_entities, size=60_000, replace=False)
    triples = np.stack([codes // (n_relations * n_entities), codes // n_entities % n_relations,
                        codes % n_entities], axis=1)
    return KnowledgeGraph(Vocabulary(f"e{i}" for i in range(n_entities)),
                          Vocabulary(f"r{i}" for i in range(n_relations)),
                          triples[:50_000], triples[50_000:55_000], triples[55_000:])


def test_large_injection_matches_the_per_attempt_reference():
    known_hits, repeats, warning = assert_injection_matches_reference(large_graph(), 0.5, seed=3)
    assert known_hits > 0 and repeats > 0 and warning is None


def test_injection_peak_memory_is_bounded():
    # A set of every known code alone takes about 60 B per code; the peak
    # includes the returned graph's train, index and relation groups.
    graph = large_graph()
    tracemalloc.start()
    try:
        inject_noise(graph, 0.1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * len(graph.positive_index)


def test_injection_shortfall_logged(caplog):
    # single triple: every slot-constrained corruption reproduces it
    graph = make_graph([(0, 0, 1)], n_entities=2)
    with caplog.at_level("WARNING"):
        noisy = inject_noise(graph, 1.0, seed=2)
    assert noisy.train_labels.sum() == 0
    assert "fell short" in caplog.text


def test_rejects_already_labeled_graph(tiny_graph):
    noisy = inject_noise(tiny_graph, 0.4, seed=1)
    with pytest.raises(DataError):
        inject_noise(noisy, 0.1, seed=2)


def test_classification_negatives_single_option():
    # exhaustive enumeration: (4,0,1) has exactly one legal corruption, (2,0,1)
    graph = make_graph([(0, 0, 1), (2, 0, 3)], valid=[(4, 0, 3)], test=[(4, 0, 1)],
                       n_entities=5)
    vt, vl, tt, tl = make_classification_negatives(graph, seed=1)
    assert tl.tolist() == [1, -1]
    assert tuple(map(int, tt[0])) == (4, 0, 1)
    assert tuple(map(int, tt[1])) == (2, 0, 1)


def test_classification_negatives_skip_when_impossible():
    # every slot-constrained corruption of (0,0,3) is already a known positive
    graph = make_graph([(0, 0, 1), (2, 0, 3)], test=[(0, 0, 3)], n_entities=4)
    vt, vl, tt, tl = make_classification_negatives(graph, seed=1)
    assert len(tt) == 1 and tl.tolist() == [1]


def test_classification_negatives_balanced(tiny_graph):
    noisy = inject_noise(tiny_graph, 0.0, seed=0)
    vt, vl, tt, tl = make_classification_negatives(noisy, seed=4)
    assert (vl == 1).sum() == len(tiny_graph.valid)
    assert (tl == 1).sum() == len(tiny_graph.test)
    # every positive immediately followed by its negative when one exists
    assert len(vt) <= 2 * len(tiny_graph.valid)
    assert set(np.unique(vl)) <= {-1, 1}


def test_classification_negatives_empty_split():
    graph = make_graph([(0, 0, 1), (2, 0, 3)], n_entities=4)
    vt, vl, tt, tl = make_classification_negatives(graph, seed=1)
    assert len(vt) == 0 and len(vl) == 0


def test_label_sidecar_round_trip(tmp_path, tiny_graph):
    noisy = inject_noise(tiny_graph, 0.4, seed=7)
    path = tmp_path / "noise_labels.tsv"
    write_flags(path, noisy.train_labels)
    assert np.array_equal(load_flags(path, len(noisy.train)), noisy.train_labels)
    with pytest.raises(DataError):
        load_flags(path, len(noisy.train) + 1)
    (tmp_path / "bad.tsv").write_text("1\n2\n")
    with pytest.raises(DataError, match="bad.tsv:2"):
        load_flags(tmp_path / "bad.tsv", 2)
