"""Noise-detection F1, filtered link prediction, triple classification.

Link prediction follows the filtered protocol: for each test triple and
each side, every entity is substituted, candidates forming a known
positive (train + valid + test, other than the query answer itself) are
removed, and the true entity's rank counts ties pessimistically, i.e.
rank = 1 + #strictly-better + #equal-scored others. A constant scorer
therefore ranks every query at the size of its filtered candidate set.

Evaluation is read-only over a frozen store; queries aggregate in a
fixed order so reports are byte-reproducible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph
from .models import EmbeddingStore, ModelKind, score_all_heads, score_all_tails, score_batch

HITS_AT = (1, 3, 10)


def f1_score(predicted_noise: np.ndarray, labels: np.ndarray) -> float:
    """F1 of a hard noise prediction; 0 when precision+recall is 0."""
    predicted_noise = np.asarray(predicted_noise, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    tp = float(np.count_nonzero(predicted_noise & labels))
    fp = float(np.count_nonzero(predicted_noise & ~labels))
    fn = float(np.count_nonzero(~predicted_noise & labels))
    if tp == 0.0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def max_f1_sweep(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Best F1 over thresholds; lower scores are predicted as noise.

    Every distinct score value serves as a threshold (prediction:
    score <= threshold), which realizes every achievable recall level.
    Returns (best F1, threshold attaining it).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    best, best_threshold = 0.0, -np.inf
    for threshold in np.unique(scores):
        f1 = f1_score(scores <= threshold, labels)
        if f1 > best:
            best, best_threshold = f1, float(threshold)
    return best, best_threshold


def noise_detection_f1(mask_or_scores: np.ndarray, labels: np.ndarray) -> float:
    """F1 of predicted noise against ground-truth injection labels.

    A boolean input is a selection mask (predicted noise = unselected); a
    float input is a score vector evaluated by a full threshold sweep
    returning the maximum F1.
    """
    arr = np.asarray(mask_or_scores)
    labels = np.asarray(labels, dtype=bool)
    if len(arr) != len(labels):
        raise DataError("mask/scores and labels must have equal length")
    if not labels.any():
        raise DataError("noise-detection F1 needs at least one positive noise label")
    if arr.dtype == bool:
        return f1_score(~arr, labels)
    return max_f1_sweep(arr, labels)[0]


@dataclass
class LinkPredictionResult:
    mrr: float
    hits: dict[int, float]
    ranks: np.ndarray            # 2 * |test| filtered ranks (head then tail query)
    per_relation: dict[int, dict[str, float]] = field(default_factory=dict)


def _known_index(graph: KnowledgeGraph):
    tails_of = defaultdict(list)
    heads_of = defaultdict(list)
    for split in (graph.train, graph.valid, graph.test):
        for h, r, t in split.tolist():
            tails_of[(h, r)].append(t)
            heads_of[(r, t)].append(h)
    return heads_of, tails_of


def filtered_rank(scores: np.ndarray, true_entity: int, known_entities) -> int:
    """Pessimistic filtered rank of ``true_entity`` within ``scores``."""
    valid = np.ones(len(scores), dtype=bool)
    valid[known_entities] = False
    valid[true_entity] = True
    pool = scores[valid]
    s_true = scores[true_entity]
    greater = int(np.count_nonzero(pool > s_true))
    equal = int(np.count_nonzero(pool == s_true)) - 1  # drop the true entity itself
    return 1 + greater + equal


def link_prediction(kind: ModelKind, store: EmbeddingStore, graph: KnowledgeGraph,
                    hits_at=HITS_AT) -> LinkPredictionResult:
    """Filtered MRR and Hits@n over head and tail queries of the test split."""
    if len(graph.test) == 0:
        raise DataError("link prediction needs a nonempty test split")
    heads_of, tails_of = _known_index(graph)

    ranks = []
    by_relation = defaultdict(list)
    for h, r, t in graph.test.tolist():
        head_scores = score_all_heads(kind, store, r, t)
        head_rank = filtered_rank(head_scores, h, heads_of[(r, t)])
        tail_scores = score_all_tails(kind, store, h, r)
        tail_rank = filtered_rank(tail_scores, t, tails_of[(h, r)])
        ranks.extend((head_rank, tail_rank))
        by_relation[r].extend((head_rank, tail_rank))

    ranks = np.asarray(ranks, dtype=np.int64)
    reciprocal = 1.0 / ranks
    per_relation = {
        r: {
            "mrr": float((1.0 / np.asarray(rs)).mean()),
            "hits10": float((np.asarray(rs) <= 10).mean()),
            "queries": float(len(rs)),
        }
        for r, rs in sorted(by_relation.items())
    }
    return LinkPredictionResult(
        mrr=float(reciprocal.mean()),
        hits={n: float((ranks <= n).mean()) for n in hits_at},
        ranks=ranks,
        per_relation=per_relation,
    )


# -- triple classification ----------------------------------------------------------


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold (predict positive when score >= t) maximizing accuracy.

    Candidates are the midpoints of consecutive sorted scores plus
    sentinels below and above everything; ties prefer the lowest
    threshold.
    """
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    candidates = [sorted_scores[0] - 1.0]
    candidates.extend((sorted_scores[i] + sorted_scores[i + 1]) / 2.0
                      for i in range(len(sorted_scores) - 1))
    candidates.append(sorted_scores[-1] + 1.0)

    best_threshold, best_accuracy = None, -1.0
    for threshold in candidates:
        accuracy = float(((scores >= threshold) == (labels > 0)).mean())
        if accuracy > best_accuracy:
            best_threshold, best_accuracy = float(threshold), accuracy
    return best_threshold


@dataclass
class ClassificationResult:
    accuracy: float
    thresholds: dict[int, float]
    global_threshold: float
    per_relation: dict[int, float] = field(default_factory=dict)


def triple_classification(kind: ModelKind, store: EmbeddingStore,
                          valid_triples: np.ndarray, valid_labels: np.ndarray,
                          test_triples: np.ndarray, test_labels: np.ndarray
                          ) -> ClassificationResult:
    """Accuracy with per-relation thresholds tuned on the validation pairs.

    Relations absent from validation fall back to a single global
    threshold tuned the same way over all validation pairs.
    """
    if len(valid_triples) == 0 or len(test_triples) == 0:
        raise DataError("triple classification needs labeled valid and test sets")
    valid_scores = score_batch(kind, store, valid_triples)
    test_scores = score_batch(kind, store, test_triples)

    global_threshold = _best_threshold(valid_scores, valid_labels)
    thresholds = {}
    for r in np.unique(valid_triples[:, 1]).tolist():
        rows = valid_triples[:, 1] == r
        thresholds[r] = _best_threshold(valid_scores[rows], valid_labels[rows])

    per_query = np.array([thresholds.get(r, global_threshold) for r in test_triples[:, 1]])
    correct = (test_scores >= per_query) == (test_labels > 0)
    per_relation = {
        int(r): float(correct[test_triples[:, 1] == r].mean())
        for r in np.unique(test_triples[:, 1]).tolist()
    }
    return ClassificationResult(
        accuracy=float(correct.mean()),
        thresholds=thresholds,
        global_threshold=global_threshold,
        per_relation=per_relation,
    )
