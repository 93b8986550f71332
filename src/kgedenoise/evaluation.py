"""Noise-detection F1, filtered link prediction, triple classification.

Link prediction follows the filtered protocol: for each test triple and
each side, every entity is substituted, candidates forming a known
positive (train + valid + test, other than the query answer itself) are
removed, and the true entity's rank counts ties pessimistically, i.e.
rank = 1 + #strictly-better + #equal-scored others. A constant scorer
therefore ranks every query at the size of its filtered candidate set.
``filtered_rank`` counts it as the entities scoring at least the answer's
score minus the known entities other than the answer that do, which needs
the known entities distinct; a NaN answer score ranks 0.

A query's known entities are one ``searchsorted`` range of a sorted code
array (``KnowledgeGraph.completions``): the known tails of (h, r) in the
graph's positive index, the known heads of (r, t) in its (t, r, h)
counterpart, which ``link_prediction`` sorts once per call.

Evaluation is read-only over a frozen store; queries aggregate in a
fixed order so reports are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph, relation_groups
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
    Returns (best F1, threshold attaining it): the lowest such threshold,
    or (0.0, -inf) when no threshold reaches an F1 above 0.

    One sort finds the thresholds; cumulative counts per threshold give
    its true and false positives, and ``f1_score``'s float formula is
    applied to them elementwise, so each F1 is bitwise the one
    ``f1_score`` returns for that threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    thresholds = np.unique(scores)  # NaN, if any, last; nothing is <= NaN
    thresholds = thresholds[:len(thresholds) - int(np.isnan(scores).any())]
    if len(thresholds) == 0:
        return 0.0, -np.inf
    slot = np.searchsorted(thresholds, scores)  # NaN scores land past the end
    predicted = np.cumsum(np.bincount(slot, minlength=len(thresholds))[:len(thresholds)])
    tp = np.cumsum(np.bincount(slot[labels], minlength=len(thresholds))[:len(thresholds)])
    tp, fp = tp.astype(np.float64), (predicted - tp).astype(np.float64)
    fn = float(np.count_nonzero(labels)) - tp
    with np.errstate(divide="ignore", invalid="ignore"):  # where tp is 0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = np.where(tp == 0.0, 0.0, 2.0 * precision * recall / (precision + recall))
    best = int(np.argmax(f1))
    if not f1[best] > 0.0:
        return 0.0, -np.inf
    return float(f1[best]), float(thresholds[best])


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


def filtered_rank(scores: np.ndarray, true_entity: int, known_entities) -> int:
    """Pessimistic filtered rank of ``true_entity`` within ``scores``.

    ``known_entities`` must be distinct; it may hold ``true_entity``.
    """
    s_true = scores[true_entity]
    known = np.asarray(known_entities, dtype=np.int64)
    filtered = scores[known[known != true_entity]]
    return int(np.count_nonzero(scores >= s_true) - np.count_nonzero(filtered >= s_true))


def link_prediction(kind: ModelKind, store: EmbeddingStore,
                    graph: KnowledgeGraph) -> LinkPredictionResult:
    """Filtered MRR and Hits@n over head and tail queries of the test split."""
    if len(graph.test) == 0:
        raise DataError("link prediction needs a nonempty test split")
    head_first = graph.head_first_index()

    ranks = []
    for h, r, t in graph.test.tolist():
        head_scores = score_all_heads(kind, store, r, t)
        ranks.append(filtered_rank(head_scores, h, graph.completions(head_first, t, r)))
        tail_scores = score_all_tails(kind, store, h, r)
        ranks.append(filtered_rank(tail_scores, t, graph.completions(graph.positive_index, h, r)))

    ranks = np.asarray(ranks, dtype=np.int64)
    return LinkPredictionResult(
        mrr=float((1.0 / ranks).mean()),
        hits={n: float((ranks <= n).mean()) for n in HITS_AT},
        ranks=ranks,
    )


# -- triple classification ----------------------------------------------------------


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold (predict positive when score >= t) maximizing accuracy.

    Candidates are the midpoints of consecutive sorted scores plus
    sentinels below and above everything; ties prefer the lowest
    threshold. Scores must not be NaN. The scores below a candidate are
    predicted negative: ``searchsorted`` counts them, and cumulative counts
    over the sorted labels tell how many are negatives.
    """
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    candidates = np.concatenate([[sorted_scores[0] - 1.0],
                                 (sorted_scores[:-1] + sorted_scores[1:]) / 2.0,
                                 [sorted_scores[-1] + 1.0]])
    below = np.searchsorted(sorted_scores, candidates)
    negatives_below = np.concatenate([[0], np.cumsum(labels[order] <= 0)])[below]
    correct = np.count_nonzero(labels > 0) - (below - negatives_below) + negatives_below
    return float(candidates[np.argmax(correct / len(scores))])


@dataclass
class ClassificationResult:
    """Test accuracy over all pairs, each judged by its relation's threshold.

    ``thresholds`` holds one per relation present in validation; other
    relations use ``global_threshold``. Only the accuracy enters reports.
    """
    accuracy: float
    thresholds: dict[int, float]
    global_threshold: float


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
    thresholds = {
        r: _best_threshold(valid_scores[rows], valid_labels[rows])
        for r, rows in enumerate(relation_groups(valid_triples[:, 1], store.n_relations))
        if len(rows)
    }

    per_query = np.array([thresholds.get(r, global_threshold) for r in test_triples[:, 1]])
    correct = (test_scores >= per_query) == (test_labels > 0)
    return ClassificationResult(
        accuracy=float(correct.mean()),
        thresholds=thresholds,
        global_threshold=global_threshold,
    )
