"""In-memory span tracing by swapping the module attributes callers look up.

``Tracer.install`` replaces attributes such as
``kgedenoise.trainer.loss_and_grad`` with timing wrappers, so every caller
that reads the name at call time records a span. A function imported into
several modules is wrapped in each of them under one span name. A span is (name, start, end, parent);
a span's self time is its duration minus the time its direct children
cover. ``close`` restores every attribute.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

HOT = ("calls", "total_s", "self_s", "p50_ms", "tail_ms")
COARSE = ("calls", "total_s", "self_s")

# Span name, reported statistics, and the ``kgedenoise`` attributes whose
# callers are timed. Hot functions run thousands of times per workload, so
# their per-call percentiles mean something; coarse ones run a few times.
LAYERS = (
    ("models.loss_and_grad", HOT, ("trainer.loss_and_grad",)),
    ("models.corrupt_batch", HOT, ("models.corrupt_batch",)),
    ("models.adam_step", HOT, ("trainer.adam_step",)),
    ("models.score_batch", HOT, ("models.score_batch", "trainer.score_batch",
                                 "agent.score_batch", "evaluation.score_batch")),
    ("trainer._normalize_entity_rows", HOT, ("trainer._normalize_entity_rows",)),
    ("trainer.run_kge_epoch", HOT, ("trainer.run_kge_epoch",)),
    ("trainer.pretrain_kge", COARSE, ("trainer.pretrain_kge",)),
    ("trainer.mimic_score_filter", COARSE, ("trainer.mimic_score_filter",)),
    ("trainer.pretrain_agents", COARSE, ("trainer.pretrain_agents",)),
    ("trainer.joint_train", COARSE, ("trainer.joint_train",)),
    ("trainer.xscore_baseline", COARSE, ("trainer.xscore_baseline",)),
    ("agent.sample_trajectory", HOT, ("trainer.sample_trajectory",)),
    ("agent.compute_reward", HOT, ("trainer.compute_reward",)),
    ("agent.reinforce_update", HOT, ("trainer.reinforce_update",)),
    ("clustering.kmeans", COARSE, ("trainer.kmeans",)),
    ("evaluation.link_prediction", COARSE, ("evaluation.link_prediction",)),
    ("evaluation.score_all_heads", HOT, ("evaluation.score_all_heads",)),
    ("evaluation.score_all_tails", HOT, ("evaluation.score_all_tails",)),
    ("evaluation.filtered_rank", HOT, ("evaluation.filtered_rank",)),
    ("evaluation.max_f1_sweep", COARSE, ("evaluation.max_f1_sweep",)),
    ("evaluation._best_threshold", HOT, ("evaluation._best_threshold",)),
    ("evaluation.triple_classification", COARSE, ("evaluation.triple_classification",)),
    ("synth.generate_shift_graph", COARSE, ("synth.generate_shift_graph",)),
    ("graph.KnowledgeGraph", COARSE, ("graph.KnowledgeGraph.__init__",)),
    ("noise.inject_noise", COARSE, ("noise.inject_noise",)),
    ("noise.make_classification_negatives", COARSE,
     ("noise.make_classification_negatives",)),
)

COUNTERS = (
    "models.adam_step.rows", "models.adam_step.bytes", "models.unique_row_ratio",
    "agent.sample_trajectory.steps", "agent.keep_ratio",
    "evaluation.link_prediction.queries", "evaluation.link_prediction.candidates_scored",
    "evaluation.max_f1_sweep.n", "trace.overhead_s",
)

# Adam reads parameter, gradient and both moments and writes parameter and
# both moments for each touched row: seven float64 row transfers.
_ADAM_ROW_TRANSFERS = 7


def metric_names() -> list[str]:
    names = [f"{name}.{stat}" for name, stats, _ in LAYERS for stat in stats]
    return names + list(COUNTERS)


@contextlib.contextmanager
def patched(target, attr: str, make_wrapper):
    """Temporarily replace ``target.attr`` with ``make_wrapper(original)``."""
    original = getattr(target, attr)
    setattr(target, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(target, attr, original)


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p75 that leaves at least 10 samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts = dict.fromkeys(
            ("adam_rows", "adam_bytes", "unique_rows", "row_refs", "negatives",
             "steps", "kept", "queries", "candidates", "sweep_n"), 0.0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> "Tracer":
        """Wrap every attribute ``LAYERS`` names under ``package``."""
        hooks = {
            "models.loss_and_grad": self._after_loss_and_grad,
            "models.corrupt_batch": self._after_corrupt_batch,
            "models.adam_step": self._after_adam_step,
            "agent.sample_trajectory": self._after_sample_trajectory,
            "evaluation.link_prediction": self._after_link_prediction,
            "evaluation.max_f1_sweep": self._after_max_f1_sweep,
        }
        for name_id, (name, _, paths) in enumerate(LAYERS):
            for path in paths:
                *owner, attr = path.split(".")
                target = package
                for part in owner:
                    target = getattr(target, part)
                self._wrap(target, attr, name_id, hooks.get(name))
        return self

    def exclude(self, target, attr: str, name: str) -> None:
        """Record ``target.attr`` as an unreported span, so the benchmark's own
        work inside a library call does not count as that call's self time."""
        self.names.append(name)
        self._wrap(target, attr, len(self.names) - 1, None)

    def _wrap(self, target, attr: str, name_id: int, after) -> None:
        original = getattr(target, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        setattr(target, attr, traced)
        self._restore.append((target, attr, original))

    def close(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- counters, recorded outside the spans ------------------------------------

    def _after_corrupt_batch(self, args, negatives) -> None:
        self.counts["negatives"] += len(negatives)

    def _after_loss_and_grad(self, args, result) -> None:
        positives = args[3]
        grads = result[1]
        self.counts["unique_rows"] += len(grads["entities"].rows)
        self.counts["row_refs"] += 2 * (len(positives) + self.counts["negatives"])
        self.counts["negatives"] = 0.0

    def _after_adam_step(self, args, result) -> None:
        store, grads = args[0], args[1]
        widths = {"entities": store.entities.shape[1], "relations": store.relations.shape[1]}
        for name, grad in grads.items():
            self.counts["adam_rows"] += len(grad.rows)
            self.counts["adam_bytes"] += len(grad.rows) * widths[name] * 8 * _ADAM_ROW_TRANSFERS

    def _after_sample_trajectory(self, args, result) -> None:
        trajectory, selected = result
        self.counts["steps"] += len(trajectory)
        self.counts["kept"] += len(selected)

    def _after_link_prediction(self, args, result) -> None:
        graph = args[2]
        self.counts["queries"] += 2 * len(graph.test)
        self.counts["candidates"] += 2 * len(graph.test) * graph.n_entities

    def _after_max_f1_sweep(self, args, result) -> None:
        self.counts["sweep_n"] += len(args[0])

    # -- summaries -----------------------------------------------------------------

    def summary(self, overhead_s: float) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics plus the tail percentile each ``tail_ms`` used."""
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        ids = table[:, 0].astype(np.int64)
        duration = table[:, 2] - table[:, 1]
        parents = table[:, 3].astype(np.int64)
        child_time = np.zeros(len(table))
        nested = parents >= 0
        np.add.at(child_time, parents[nested], duration[nested])
        self_time = duration - child_time

        metrics: dict[str, float] = {}
        tail_pcts: dict[str, float] = {}
        for name_id, (name, stats, _) in enumerate(LAYERS):
            picked = ids == name_id
            durs = duration[picked]
            metrics[f"{name}.calls"] = float(len(durs))
            metrics[f"{name}.total_s"] = float(durs.sum())
            metrics[f"{name}.self_s"] = float(self_time[picked].sum())
            if stats == HOT:
                pct = tail_percentile(len(durs))
                metrics[f"{name}.p50_ms"] = float(np.median(durs) * 1e3) if len(durs) else 0.0
                metrics[f"{name}.tail_ms"] = float(np.percentile(durs, pct) * 1e3) if pct else 0.0
                tail_pcts[name] = pct or 0.0

        c = self.counts
        metrics.update({
            "models.adam_step.rows": c["adam_rows"],
            "models.adam_step.bytes": c["adam_bytes"],
            "models.unique_row_ratio": c["unique_rows"] / c["row_refs"] if c["row_refs"] else 0.0,
            "agent.sample_trajectory.steps": c["steps"],
            "agent.keep_ratio": c["kept"] / c["steps"] if c["steps"] else 0.0,
            "evaluation.link_prediction.queries": c["queries"],
            "evaluation.link_prediction.candidates_scored": c["candidates"],
            "evaluation.max_f1_sweep.n": c["sweep_n"],
            "trace.overhead_s": overhead_s,
        })
        return metrics, tail_pcts

    def write_spans(self, path) -> None:
        """One ``name<TAB>start<TAB>end<TAB>parent index`` line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for name_id, start, end, parent in self.spans:
                handle.write(f"{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\n")
