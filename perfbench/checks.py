"""Output checks and the reference implementations they compare against.

Every check is one attempted operation; a check that does not hold is a
failed one. The references are written independently of the library:
brute-force filtered ranks from ``score_batch`` over every candidate, and
a sort-based threshold sweep for the best noise-detection F1.
"""

from __future__ import annotations

import numpy as np


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def brute_force_rank(kg, kind, store, graph, triple, replace_head: bool) -> int:
    """Pessimistic filtered rank of one side of ``triple`` by full enumeration."""
    h, r, t = (int(x) for x in triple)
    entities = np.arange(graph.n_entities, dtype=np.int64)
    candidates = np.empty((graph.n_entities, 3), dtype=np.int64)
    candidates[:, 0] = entities if replace_head else h
    candidates[:, 1] = r
    candidates[:, 2] = t if replace_head else entities
    scores = kg.models.score_batch(kind, store, candidates)
    true_entity = h if replace_head else t
    known = np.fromiter((code in graph.positive_index
                         for code in graph.encode_array(candidates).tolist()),
                        dtype=bool, count=len(candidates))
    known[true_entity] = False
    s_true = scores[true_entity]
    others = ~known
    others[true_entity] = False
    return 1 + int(np.count_nonzero(scores[others] >= s_true))


def check_ranks(checks: Checks, kg, kind, store, graph, ranks, sample: int, label: str) -> None:
    """Compare the first ``sample`` test triples' library ranks with brute force."""
    for i, triple in enumerate(graph.test[:sample]):
        for side, replace_head in ((0, True), (1, False)):
            expected = brute_force_rank(kg, kind, store, graph, triple, replace_head)
            got = int(ranks[2 * i + side])
            checks.expect(got == expected,
                          f"{label}: filtered rank {got} != brute force {expected} "
                          f"for test triple {i} side {side}")


def reference_max_f1(scores, labels) -> tuple[float, float]:
    """Best F1 when scores at or below a threshold are called noise.

    Sorting once gives the true and false positives at every distinct
    threshold from cumulative sums; ties keep the lowest threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    tp = np.cumsum(labels[order]).astype(np.float64)
    seen = np.arange(1, len(scores) + 1, dtype=np.float64)
    last_of_value = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tp, seen, thresholds = tp[last_of_value], seen[last_of_value], sorted_scores[last_of_value]
    fp = seen - tp
    fn = float(labels.sum()) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = np.where(tp > 0, 2.0 * precision * recall / (precision + recall), 0.0)
    best = int(np.argmax(f1))
    if f1[best] <= 0.0:
        return 0.0, -np.inf
    return float(f1[best]), float(thresholds[best])


def check_f1_sweep(checks: Checks, library_result, scores, labels, label: str) -> None:
    expected = reference_max_f1(scores, labels)
    checks.expect(tuple(library_result) == expected,
                  f"{label}: max_f1_sweep {tuple(library_result)} != reference {expected}")
