"""Lloyd k-means over relation embedding rows.

Used to group semantically similar relations so their selection agents
can share a cluster-level weight vector. Seeding is k-means++ style;
nearest-centroid ties break toward the lower cluster id; clusters that
empty out steal the point farthest from its current centroid. Both rules
keep the result deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .graph import Vocabulary, text_lines

_WCSS_SLACK = 1e-9
_MAX_ITERS = 100


@dataclass
class RelationClusters:
    k: int
    assignment: np.ndarray      # (n_relations,) cluster id per relation
    centroids: np.ndarray       # (k, dim)
    wcss_history: list[float] = field(default_factory=list)

    def size(self, cluster: int) -> int:
        return int((self.assignment == cluster).sum())

    @classmethod
    def singletons(cls, n_relations: int, dim: int = 0) -> "RelationClusters":
        """One relation per cluster; the trivial k = |R| clustering."""
        return cls(n_relations, np.arange(n_relations), np.zeros((n_relations, dim)))


def _seed_centers(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: next center drawn proportionally to squared distance."""
    n = len(matrix)
    centers = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(n))
    centers[0] = matrix[first]
    d2 = ((matrix - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[j] = matrix[pick]
        d2 = np.minimum(d2, ((matrix - centers[j]) ** 2).sum(axis=1))
    return centers


def assign_nearest(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment; distance ties go to the lower cluster id."""
    d2 = ((matrix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _repair_empty(assignment: np.ndarray, centroids: np.ndarray, matrix: np.ndarray) -> None:
    """Give each empty cluster the point farthest from its own centroid."""
    k = len(centroids)
    counts = np.bincount(assignment, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        dist = ((matrix - centroids[assignment]) ** 2).sum(axis=1)
        dist[counts[assignment] <= 1] = -np.inf  # never empty another cluster
        donor = int(np.argmax(dist))
        counts[assignment[donor]] -= 1
        assignment[donor] = empty
        counts[empty] = 1
        centroids[empty] = matrix[donor]


def kmeans(matrix: np.ndarray, k: int, seed: int) -> RelationClusters:
    """Cluster rows of ``matrix`` into ``k`` groups.

    Terminates on an assignment fixpoint or after ``_MAX_ITERS`` (100)
    Lloyd iterations; the within-cluster sum of squares is checked to be
    non-increasing at every step.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = len(matrix)
    if not 1 <= k <= n:
        raise DataError(f"cluster count k={k} must lie in [1, {n}]")

    rng = np.random.default_rng(seed)
    centroids = _seed_centers(matrix, k, rng)
    assignment = np.full(n, -1, dtype=np.int64)
    history: list[float] = []

    for _ in range(_MAX_ITERS):
        new_assignment = assign_nearest(matrix, centroids)
        _repair_empty(new_assignment, centroids, matrix)
        converged = bool((new_assignment == assignment).all())
        assignment = new_assignment
        for c in range(k):
            members = matrix[assignment == c]
            centroids[c] = members.mean(axis=0)
        wcss = float(((matrix - centroids[assignment]) ** 2).sum())
        if history and wcss > history[-1] + _WCSS_SLACK * (1.0 + history[-1]):
            raise AssertionError(f"WCSS increased: {history[-1]} -> {wcss}")
        history.append(wcss)
        if converged:
            break

    return RelationClusters(k, assignment, centroids, history)


def save_clusters(path, clusters: RelationClusters, relation_vocab: Vocabulary) -> None:
    with atomic_write(path) as handle:
        for r, c in enumerate(clusters.assignment):
            handle.write(f"{relation_vocab.name_of(r)}\t{int(c)}\n")


def load_clusters(path, relation_vocab: Vocabulary) -> RelationClusters:
    assignment = np.full(len(relation_vocab), -1, dtype=np.int64)
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected `relation<TAB>cluster`")
        relation = relation_vocab.id_of(fields[0])
        if assignment[relation] >= 0:
            raise DataError(f"{path}:{lineno}: relation {fields[0]!r} is listed twice")
        # More clusters than relations would leave some empty by construction.
        try:
            cluster = int(fields[1])
            if not 0 <= cluster < len(relation_vocab):
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: cluster must be an integer in "
                            f"[0, {len(relation_vocab)}), got {fields[1]!r}") from None
        assignment[relation] = cluster
    if (assignment < 0).any():
        missing = relation_vocab.name_of(int(np.flatnonzero(assignment < 0)[0]))
        raise DataError(f"{path}: no cluster assignment for relation {missing!r}")
    k = int(assignment.max()) + 1
    dim = 0
    centroids = np.zeros((k, dim))
    return RelationClusters(k, assignment, centroids)
