import itertools

import numpy as np
import pytest

from kgedenoise.clustering import (RelationClusters, assign_nearest, kmeans, load_clusters,
                                   save_clusters)
from kgedenoise.errors import DataError
from kgedenoise.graph import Vocabulary


def wcss_of(matrix, assignment, k):
    total = 0.0
    for c in range(k):
        members = matrix[assignment == c]
        total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def best_two_partition_wcss(matrix):
    """Oracle: exhaustively minimize WCSS over all 2-partitions."""
    n = len(matrix)
    best = np.inf
    best_sets = None
    for bits in itertools.product([0, 1], repeat=n):
        assignment = np.asarray(bits)
        if assignment.min() == assignment.max():
            continue
        value = wcss_of(matrix, assignment, 2)
        if value < best:
            best = value
            best_sets = frozenset(
                frozenset(np.flatnonzero(assignment == c).tolist()) for c in (0, 1))
    return best, best_sets


def test_single_cluster_is_mean():
    matrix = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 1.0]])
    result = kmeans(matrix, 1, seed=0)
    assert set(result.assignment.tolist()) == {0}
    np.testing.assert_allclose(result.centroids[0], matrix.mean(axis=0))


def test_saturated_clusters_have_zero_wcss():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(6, 3))
    result = kmeans(matrix, 6, seed=2)
    assert sorted(result.assignment.tolist()) == list(range(6))
    assert result.wcss_history[-1] == pytest.approx(0.0, abs=1e-12)


def test_two_cluster_partition_matches_exhaustive_oracle():
    matrix = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    _, oracle_sets = best_two_partition_wcss(matrix)
    assert oracle_sets == frozenset({frozenset({0, 1}), frozenset({2, 3})})
    result = kmeans(matrix, 2, seed=3)
    got = frozenset(frozenset(np.flatnonzero(result.assignment == c).tolist())
                    for c in range(2))
    assert got == oracle_sets


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_two_cluster_reaches_oracle_or_local_optimum(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(7, 2))
    oracle, _ = best_two_partition_wcss(matrix)
    result = kmeans(matrix, 2, seed=seed)
    # Lloyd may stop at a local optimum but never beats the exhaustive best
    assert wcss_of(matrix, result.assignment, 2) >= oracle - 1e-9


def test_wcss_non_increasing():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(30, 4))
    result = kmeans(matrix, 4, seed=6)
    history = result.wcss_history
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


def test_deterministic_under_seed():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(15, 3))
    a = kmeans(matrix, 3, seed=9)
    b = kmeans(matrix, 3, seed=9)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)


def test_ties_break_toward_lower_cluster_id():
    centroids = np.array([[0.0], [4.0]])
    points = np.array([[2.0], [0.0], [4.0], [2.0]])
    assignment = assign_nearest(points, centroids)
    assert assignment.tolist() == [0, 0, 1, 0]


def test_no_empty_clusters_even_with_duplicates():
    matrix = np.array([[1.0], [1.0], [1.0], [5.0]])
    result = kmeans(matrix, 3, seed=11)
    assert set(result.assignment.tolist()) == {0, 1, 2}
    assert all(result.size(c) > 0 for c in range(3))


def test_rejects_bad_k():
    matrix = np.zeros((4, 2))
    with pytest.raises(DataError):
        kmeans(matrix, 5, seed=0)
    with pytest.raises(DataError):
        kmeans(matrix, 0, seed=0)


def test_singletons_constructor():
    clusters = RelationClusters.singletons(5)
    assert clusters.k == 5
    assert clusters.assignment.tolist() == [0, 1, 2, 3, 4]
    assert all(clusters.size(c) == 1 for c in range(5))


def test_cluster_file_round_trip(tmp_path):
    vocab = Vocabulary(["likes", "knows", "near"])
    clusters = RelationClusters(2, np.array([1, 0, 1]), np.zeros((2, 0)))
    path = tmp_path / "clusters.tsv"
    save_clusters(path, clusters, vocab)
    assert path.read_text() == "likes\t1\nknows\t0\nnear\t1\n"
    loaded = load_clusters(path, vocab)
    assert loaded.assignment.tolist() == [1, 0, 1]
    assert loaded.k == 2


def test_cluster_file_rejects_a_relation_listed_twice(tmp_path):
    path = tmp_path / "clusters.tsv"
    path.write_text("likes\t0\nknows\t0\nlikes\t1\n")
    with pytest.raises(DataError, match=r"clusters.tsv:3: relation 'likes' is listed twice"):
        load_clusters(path, Vocabulary(["likes", "knows"]))
