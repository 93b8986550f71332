"""Pinned SHA-256 digests of the set-up outputs.

The synthetic generator, noise injection and classification negatives each
draw from their own generator one call at a time, in a fixed order: per
relation one ``choice`` of grid cells; per attempt a source row, a coin and
a pool index. These digests pin every output bit, so any change to that
order, to an argument of a draw or to how rows are assembled shows here.
"""

import hashlib
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_graph, small_graphs
from kgedenoise.experiments import PRESETS
from kgedenoise.noise import SlotIndex, inject_noise, make_classification_negatives
from kgedenoise.seeding import seed_for
from kgedenoise.synth import generate_shift_graph


def digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def preset_setup(name, seed):
    """The set-up of ``run_synthetic_experiment``: clean graph, noise, negatives."""
    preset = PRESETS[name]
    clean = generate_shift_graph(
        grid_x=preset.grid_x, grid_y=preset.grid_y, n_relations=preset.n_relations,
        train_per_relation=preset.train_per_relation,
        valid_per_relation=preset.valid_per_relation,
        test_per_relation=preset.test_per_relation,
        seed=seed_for(seed, "synthgraph"))
    noisy = inject_noise(clean, preset.noise_rate, seed_for(seed, "noise"))
    return clean, noisy, make_classification_negatives(noisy, seed_for(seed, "class-negatives"))


# (clean train/valid/test and relation names, noisy train and labels, the four negative arrays)
PRESET_DIGESTS = {
    ("synthetic-n1", 0): (
        "ddebd3313491833a96a21512516e9c5ee92060f309ed3dc5877813c1423bb700",
        "77ca235316d65acf48b3a6070f3ebb66164fe2e7212eb695978fec4c677ace3f",
        "ed388f2743ebaa6911b2098da6db58b02d90bea2e25a2a478231a21ffb011d84",
    ),
    ("synthetic-n1", 7): (
        "6d233f2bc610b964502e7bb7d6a6233d602cf70a233070296e26581dc5c90509",
        "ea7024e3d37805de502c174c05411382e0fc5f5999249d937c94d458c0088638",
        "4ac1f3abca3095051a25dd8b82dffdb7cd5031787aeb2c9c30b1a95fca9b8463",
    ),
    ("synthetic-tiny", 7): (
        "a44620e4124492e43511e45487eed0aa9fd93cb353eae33b5c3c316cdc212002",
        "2ddab84c916956398964001c04f406f8ac1caa905b6cf172d53a39a285b37595",
        "8b8038a0c9f39b34b8d0558b3dd555e6bbb742601028abb6642ec0c1dab73929",
    ),
}


@pytest.mark.parametrize("name, seed", sorted(PRESET_DIGESTS),
                         ids=[f"{name}-{seed}" for name, seed in sorted(PRESET_DIGESTS)])
def test_preset_setup_outputs_are_pinned(name, seed):
    clean, noisy, negatives = preset_setup(name, seed)
    relation_names = np.array(clean.relation_vocab.names)
    assert (digest(clean.train, clean.valid, clean.test, relation_names),
            digest(noisy.train, noisy.train_labels),
            digest(*negatives)) == PRESET_DIGESTS[name, seed]


def test_negatives_for_a_relation_absent_from_train_are_pinned(caplog):
    # Relation 2 appears only in valid and test: both of its pools are
    # empty, so each of its attempts draws the coin alone, and the draws
    # for the relation-0 and relation-1 rows after it depend on that.
    graph = make_graph([(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 4), (4, 1, 0), (5, 0, 6)],
                       valid=[(5, 2, 6), (0, 0, 2), (6, 2, 5), (4, 1, 4)],
                       test=[(1, 0, 3), (2, 2, 0), (3, 1, 0)],
                       n_entities=7, n_relations=3)
    with caplog.at_level(logging.WARNING, logger="kgedenoise.noise"):
        negatives = make_classification_negatives(graph, seed=11)
    assert digest(*negatives) == (
        "6170954fc962aef5776fd65195854a12f0074eec9cb135aea5e6b639a2ab4590")
    assert [r.getMessage() for r in caplog.records] == [
        "classification negatives: 3 positives left unmatched",
        "classification negatives: 2 positives left unmatched",
    ]


def test_saturated_setup_skips_are_pinned_and_logged(caplog):
    # Relation 0 has heads {0, 1} and tails {2, 3}, and (1, 0, 3) is a valid
    # positive, so it leaves no legal corruption; relation 1 leaves only
    # (5, 1, 5), as (4, 1, 4) is a test positive. Injection at rate 1 falls
    # short, and so do the negatives.
    graph = make_graph([(0, 0, 2), (0, 0, 3), (1, 0, 2), (4, 1, 5), (5, 1, 4)],
                       valid=[(1, 0, 3), (0, 1, 5)], test=[(4, 1, 4), (2, 0, 3)],
                       n_entities=6, n_relations=2)
    with caplog.at_level(logging.INFO, logger="kgedenoise.noise"):
        noisy = inject_noise(graph, 1.0, seed=3)
        negatives = make_classification_negatives(noisy, seed=4)
    assert digest(noisy.train, noisy.train_labels) == (
        "82b05c2c03416ada77ef20a7369adb79a096db62409de2c513f46e30cd703419")
    assert digest(*negatives) == (
        "ff5b715a6c057080bb69245c6f6dd41ff7cac31985953d32cb3b7708dfddac00")
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "noise injection fell short: 4 of 5 skipped"),
        ("INFO", "injected 1 noise triples (target 5)"),
        ("WARNING", "classification negatives: 1 positives left unmatched"),
        ("WARNING", "classification negatives: 1 positives left unmatched"),
    ]


# -- the per-triple loops the set-up was first written as, kept as references --


def loop_shift_graph(grid_x, grid_y, n_relations, counts, max_dx, max_dy, seed):
    """(train, valid, test, relation names), one pool list and row tuple at a time."""
    candidates = [(dx, dy) for dx in range(-max_dx, max_dx + 1)
                  for dy in range(-max_dy, max_dy + 1) if (dx, dy) != (0, 0)]
    rng = np.random.default_rng(seed)
    offsets = [candidates[i] for i in rng.choice(len(candidates), size=n_relations,
                                                 replace=False)]
    splits = ([], [], [])
    for j, (dx, dy) in enumerate(offsets):
        pool = [(x, y) for x in range(max(0, -dx), grid_x - max(0, dx))
                for y in range(max(0, -dy), grid_y - max(0, dy))]
        picks = rng.choice(len(pool), size=sum(counts), replace=False)
        for k, p in enumerate(picks.tolist()):
            x, y = pool[p]
            split = 0 if k < counts[0] else 1 if k < counts[0] + counts[1] else 2
            splits[split].append((x * grid_y + y, j, (x + dx) * grid_y + y + dy))
    names = [f"r{j:02d}_d{dx:+d}{dy:+d}" for j, (dx, dy) in enumerate(offsets)]
    return (*(np.asarray(rows, dtype=np.int64).reshape(-1, 3) for rows in splits), names)


def loop_corrupt(triple, slot_index, rng):
    h, r, t = (int(x) for x in triple)
    replace_head = rng.random() < 0.5
    pool = slot_index.heads[r] if replace_head else slot_index.tails[r]
    if len(pool) == 0:
        return None
    candidate = int(pool[rng.integers(len(pool))])
    return (candidate, r, t) if replace_head else (h, r, candidate)


def loop_noise(graph, rate, seed):
    """The injected rows, drawing a source row, a coin and a pool index per attempt."""
    rng = np.random.default_rng(seed)
    slot_index = SlotIndex.from_graph(graph)
    taken = set(graph.positive_index)
    injected = []
    for _ in range(int(rate * len(graph.train))):
        for _ in range(100):
            candidate = loop_corrupt(graph.train[rng.integers(len(graph.train))],
                                     slot_index, rng)
            if candidate is not None and graph.encode(*candidate) not in taken:
                taken.add(graph.encode(*candidate))
                injected.append(candidate)
                break
    return np.asarray(injected, dtype=np.int64).reshape(-1, 3)


def loop_negatives(graph, seed):
    rng = np.random.default_rng(seed)
    slot_index = SlotIndex.from_graph(graph)
    out = []
    for split in (graph.valid, graph.test):
        rows, labels = [], []
        for triple in split:
            rows.append(tuple(int(x) for x in triple))
            labels.append(1)
            for _ in range(100):
                candidate = loop_corrupt(triple, slot_index, rng)
                if candidate is not None and not graph.is_positive(*candidate):
                    rows.append(candidate)
                    labels.append(-1)
                    break
        out += [np.asarray(rows, dtype=np.int64).reshape(-1, 3),
                np.asarray(labels, dtype=np.int64)]
    return out


@settings(max_examples=60, deadline=None)
@given(grid_x=st.integers(4, 9), grid_y=st.integers(2, 6), n_relations=st.integers(0, 6),
       counts=st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2)),
       max_dy=st.integers(0, 1), seed=st.integers(0, 2**32))
def test_shift_graph_matches_the_loop_reference(grid_x, grid_y, n_relations, counts,
                                                 max_dy, seed):
    max_dx = 3
    n_relations = min(n_relations, (2 * max_dx + 1) * (2 * max_dy + 1) - 1)
    assume(sum(counts) <= (grid_x - max_dx) * (grid_y - max_dy))
    graph = generate_shift_graph(grid_x, grid_y, n_relations, *counts, max_dx=max_dx,
                                 max_dy=max_dy, seed=seed)
    train, valid, test, names = loop_shift_graph(grid_x, grid_y, n_relations, counts,
                                                 max_dx, max_dy, seed)
    assert graph.relation_vocab.names == names
    for got, want in zip((graph.train, graph.valid, graph.test), (train, valid, test)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32))
def test_noise_and_negatives_match_the_loop_reference(graph, rate, seed):
    noisy = inject_noise(graph, rate, seed)
    assert np.array_equal(noisy.train[:len(graph.train)], graph.train)
    assert np.array_equal(noisy.train[len(graph.train):], loop_noise(graph, rate, seed))
    assert noisy.train_labels.tolist() == [False] * len(graph.train) + [True] * (
        len(noisy.train) - len(graph.train))
    for got, want in zip(make_classification_negatives(noisy, seed),
                         loop_negatives(noisy, seed)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
