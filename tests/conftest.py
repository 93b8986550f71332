"""Shared fixtures and independent oracles used across the test suite."""

import contextlib
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from kgedenoise import models
from kgedenoise.graph import KnowledgeGraph, Vocabulary


def make_graph(train, valid=(), test=(), n_entities=None, n_relations=None):
    """Build a KnowledgeGraph from raw id triples, sizing vocabularies to fit."""
    rows = [tuple(t) for t in train] + [tuple(t) for t in valid] + [tuple(t) for t in test]
    if n_entities is None:
        n_entities = max(max(h, t) for h, _, t in rows) + 1 if rows else 1
    if n_relations is None:
        n_relations = max(r for _, r, _ in rows) + 1 if rows else 1
    ent = Vocabulary(f"e{i}" for i in range(n_entities))
    rel = Vocabulary(f"r{i}" for i in range(n_relations))
    to_arr = lambda block: np.asarray(list(block), dtype=np.int64).reshape(-1, 3)
    return KnowledgeGraph(ent, rel, to_arr(train), to_arr(valid), to_arr(test))


def random_graph(rng, n_entities=20, n_relations=3, n_train=40, n_valid=8, n_test=8):
    """Random duplicate-free graph split into train/valid/test."""
    seen = set()
    rows = []
    while len(rows) < n_train + n_valid + n_test:
        triple = (int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                  int(rng.integers(n_entities)))
        if triple in seen:
            continue
        seen.add(triple)
        rows.append(triple)
    return make_graph(rows[:n_train], rows[n_train:n_train + n_valid],
                      rows[n_train + n_valid:], n_entities, n_relations)


def small_graphs():
    """Hypothesis graphs over 6 entities and 4 relations. A relation may have
    no triple at all, or appear only in valid or test; train may be empty."""
    triple = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5))
    splits = [st.lists(triple, max_size=size, unique=True) for size in (12, 4, 4)]
    return st.tuples(*splits).map(lambda s: make_graph(*s, n_entities=6, n_relations=4))


def central_difference(fn, x0, step=1e-5):
    """Independent finite-difference gradient of fn at x0 (1-D array)."""
    grad = np.zeros_like(x0, dtype=np.float64)
    for i in range(len(x0)):
        up = x0.copy()
        up[i] += step
        down = x0.copy()
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


def brute_force_filtered_rank(score_fn, n_entities, query, answer, known_triples, side):
    """Reference filtered rank: explicit loop, pessimistic ties.

    ``score_fn(h, r, t)`` scores one triple; ``known_triples`` is a set of
    (h, r, t) tuples; ``side`` is "head" or "tail".
    """
    h, r, t = query
    true_score = score_fn(h, r, t) if side == "tail" else score_fn(h, r, t)
    rank = 1
    for e in range(n_entities):
        if side == "tail":
            if e == t or (h, r, e) in known_triples:
                continue
            if score_fn(h, r, e) >= true_score:
                rank += 1
        else:
            if e == h or (e, r, t) in known_triples:
                continue
            if score_fn(e, r, t) >= true_score:
                rank += 1
    return rank


@contextlib.contextmanager
def chunk_threads(count):
    """Run ``models``' chunk pool with ``count`` threads in all, the caller's
    included, whatever the host's CPU count; 1 runs every chunk inline."""
    pool = ThreadPoolExecutor(count - 1) if count > 1 else None
    try:
        with mock.patch.object(models, "_helpers", count - 1), \
                mock.patch.object(models, "_pool", pool):
            yield
    finally:
        if pool is not None:
            pool.shutdown()


def exhaustive_max_f1(scores, labels):
    """Reference max-F1: try predicting noise below every cutoff."""
    best = 0.0
    for threshold in sorted(set(scores)):
        predicted = np.asarray(scores) <= threshold
        tp = np.count_nonzero(predicted & labels)
        if tp == 0:
            continue
        precision = tp / predicted.sum()
        recall = tp / labels.sum()
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


@pytest.fixture
def tiny_graph():
    # two relations, seven entities; relation 1 appears twice in train
    train = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 0, 4), (4, 1, 5)]
    valid = [(0, 0, 3)]
    test = [(1, 1, 4)]
    return make_graph(train, valid, test, n_entities=7, n_relations=2)
