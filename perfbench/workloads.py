"""The workloads: what each runs, times and checks.

A workload function takes the ``kgedenoise`` package, the workload seed,
the measuring time and a ``Checks`` recorder, and returns a ``Pass``.
``synthetic-n1`` is fixed work: one preset pipeline, with short
small-batch DistMult and RotatE runs before and after it, however long
it takes. ``fb237-train`` runs interleaved units of its activities for as
long as they fit in the measuring time; the plan of that pass is the
sequence of units that ran, and passing it back in as ``plan`` replays
exactly the same work. Library functions are always looked up as
module attributes at call time, so a tracer that swaps those attributes
sees every call.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import fbgraph
from checks import Checks, check_f1_sweep, check_ranks
from preset import FULLSCALE_CONFIG, SYNTHETIC_N1, SYNTHETIC_N1_CONFIG
from spans import patched

FB_MODELS = ("transe", "distmult", "rotate")
# Shares of fb237-train's time. A RotatE batch takes about 20 TransE batches,
# so the slow models get more time: on a 2-CPU Xeon host the medians then rest
# on about 150 TransE, 45 DistMult and 25 RotatE batches in a 25 s run.
FB_SHARES = {"transe": 0.2, "distmult": 0.3, "rotate": 0.5}
FB_NOISE_RATE = 0.1
TRAIN_MIN_UNITS = 3            # fb237-train batches per model every run makes
FB_SETUPS = 5                  # fb237-train set-ups per run, about a second each
RANK_CHECK_TRIPLES = 3         # test triples checked against brute-force ranks
# Epochs of small-batch DistMult and RotatE training on the synthetic-n1
# graph, run once before and once after the pipeline: about 1.5 s of
# DistMult and 3 s of RotatE each time on a 2-CPU Xeon host.
SMALL_BATCH_EPOCHS = {"distmult": 15, "rotate": 12}
# Each probe works on arrays the size of its workload's own, so it adds
# little to the workload's peak memory; reference_s is about its time on an
# unloaded core. Both are short because they run after every epoch or batch:
# densely interleaved probes follow the neighbours' load best.
FB_PROBE = dict(entities=14_541, dim=100, refs=8_192, repeats=1, loop=1_500, stream=2_000_000,
                score_rows=0, reference_s=0.02)
SYNTHETIC_PROBE = dict(entities=200, dim=32, refs=64, repeats=50, loop=30, stream=0,
                       score_rows=320, reference_s=0.004)


@dataclass
class Pass:
    metrics: dict[str, tuple[float, str]]
    quality: dict
    plan: list[str] | None
    notes: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.metrics["wall_s"][0]


class Schedule:
    """Interleave units of several activities until the measuring time is used.

    Each step picks the activity furthest behind its share of the time
    spent, so every activity samples the whole run rather than one
    stretch of it. Steps continue until every activity has run its
    minimum count of units and the next unit would overrun the time.
    Given the sequence of an earlier pass, the schedule replays it instead.
    """

    def __init__(self, seconds: float, shares: dict[str, float], minimum: dict[str, int],
                 sequence: list[str] | None = None):
        self.deadline = time.perf_counter() + seconds
        self.shares = shares
        self.minimum = minimum
        self.replay = sequence
        self.sequence: list[str] = []
        self.spent = dict.fromkeys(shares, 0.0)
        self.units = {name: [] for name in shares}

    def __iter__(self):
        if self.replay is not None:
            yield from self.replay
            return
        while True:
            behind = [a for a in self.shares if len(self.units[a]) < self.minimum[a]]
            if not behind:
                nxt = min(self.shares, key=lambda a: self.spent[a] / self.shares[a])
                if time.perf_counter() + max(self.units[nxt]) > self.deadline:
                    return
                behind = [nxt]
            yield min(behind, key=lambda a: self.spent[a] / self.shares[a])

    def run(self, activity: str, fn, *args, **kwargs):
        """Time one unit of ``activity``; returns its result."""
        seconds, result = _timed(fn, *args, **kwargs)
        self.sequence.append(activity)
        self.spent[activity] += seconds
        self.units[activity].append(seconds)
        return result

    def median(self, activity: str) -> float:
        return statistics.median(self.units[activity])


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _setup(build, probe, repeats: int):
    """Run ``build`` ``repeats`` times between probes; (scaled seconds, last result).

    Each set-up is scaled by the mean of the probe before and the probe
    after it, so it is judged against the load of its own moment.
    """
    times, result = [], None
    probe.run()
    for _ in range(repeats):
        result = None  # release the previous graph before building the next one
        seconds, result = _timed(build)
        probe.run()
        times.append(seconds * probe.scale(len(probe.times) - 2))
    return times, result


class Probe:
    """A fixed reference unit, timed in among the workload's own units.

    On shared cores, other tenants can slow a core by up to 2x for
    seconds to minutes at a time, so raw times follow the neighbours'
    load. The probe does the same kinds of work as the library, a gather,
    a unique, an ``add.at`` scatter, a Python loop and, at FB scale,
    elementwise passes over a large array or, at the synthetic scale, a
    score-and-loss pass over one batch's rows, on inputs that never change.
    Every reported time is multiplied by ``scale()``: the
    reference time over the mean time of the probes run alongside it:
    those around one set-up or one ``fb237-train`` batch, or those of a
    whole ``synthetic-n1`` stage or run. A slowdown of
    the machine stretches the probe too and cancels; a change to the
    library does not touch the probe and shows in full.
    """

    def __init__(self, entities: int, dim: int, refs: int, repeats: int, loop: int,
                 stream: int, score_rows: int, reference_s: float):
        rng = np.random.default_rng(0)
        self._table = rng.random((entities, dim))
        self._rows = rng.integers(0, entities, refs)
        self._sink = np.zeros_like(self._table)
        self._stream = rng.random(stream)
        self._factors = rng.standard_normal((3, score_rows, dim))
        self._repeats, self._loop = repeats, loop
        self.reference_s = reference_s
        self.times: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        total = 0.0
        for _ in range(self._repeats):
            unique, inverse = np.unique(self._rows, return_inverse=True)
            acc = np.zeros((len(unique), self._table.shape[1]))
            np.add.at(acc, inverse, self._table[self._rows])
            self._sink[unique] = 0.9 * self._sink[unique] + 0.1 * acc
            for i in range(self._loop):
                total += i * 0.5
            # Elementwise work over an array far larger than the caches, like
            # the batch-wide temporaries of the FB-scale models.
            np.multiply(self._stream, 0.5, out=self._stream)
            np.add(self._stream, 0.25, out=self._stream)
            # A trilinear score and a softplus loss over a batch with its
            # negatives: the vector and transcendental work of the
            # small-batch DistMult and RotatE steps, which slow differently
            # from the interpreter-bound steps above under a neighbour's load.
            scores = (self._factors[0] * self._factors[1] * self._factors[2]).sum(axis=1)
            np.logaddexp(0.0, scores)
            np.exp(-np.abs(scores))
        self.times.append(time.perf_counter() - start)

    @property
    def total(self) -> float:
        return sum(self.times)

    def scale(self, first: int = 0) -> float:
        """Reference over mean probe time, over the probes from ``first`` on."""
        return self.reference_s / statistics.fmean(self.times[first:])


# -- synthetic-n1 ----------------------------------------------------------------


def _evaluate(kg, kind, store, graph, labels, negatives, mask=None):
    """The preset's evaluation block; returns (report, filtered ranks)."""
    lp = kg.evaluation.link_prediction(kind, store, graph)
    cls = kg.evaluation.triple_classification(kind, store, *negatives)
    out = {"mrr": lp.mrr, "hits": dict(lp.hits), "classification_accuracy": cls.accuracy,
           "noise_f1_score_sweep": kg.evaluation.noise_detection_f1(
               kg.models.score_batch(kind, store, graph.train), labels)}
    if mask is not None:
        out["noise_f1"] = kg.evaluation.noise_detection_f1(mask, labels)
        out["kept"] = int(mask.sum())
    return out, lp.ranks


def _probing_epochs(probe: Probe):
    """Wrap ``run_kge_epoch`` to run the probe after every epoch."""
    def make(original):
        def epoch_then_probe(*args, **kwargs):
            loss = original(*args, **kwargs)
            probe.run()
            return loss
        return epoch_then_probe
    return make


def _probed(probe: Probe, fn, *args, **kwargs):
    """Run ``fn``, which runs the probe at least once; (raw s, scaled s, result).

    The raw seconds leave out the probes run inside ``fn``; the scaled
    ones are those seconds scaled by the same probes.
    """
    first, probe_before = len(probe.times), probe.total
    seconds, result = _timed(fn, *args, **kwargs)
    seconds -= probe.total - probe_before
    return seconds, seconds * probe.scale(first), result


def _pretrain_plain(kg, seed, config, kind, graph):
    plain_config = config.replace(seed=kg.seeding.seed_for(seed, "plain"))
    return kg.trainer.pretrain_kge(graph, kind, plain_config)


def _plain_report(kg, seed, config, kind, graph, negatives, plain):
    """Evaluation of plain pre-training, plus the clustering of its store.

    The strl preset never clusters; clustering the plain store with the
    preset's clusters_k keeps the clustering layer in the benchmark.
    """
    clusters = kg.trainer.relation_clusters(plain.store, config,
                                            seed=kg.seeding.seed_for(seed, "clusters"))
    report, _ = _evaluate(kg, kind, plain.store, graph, graph.train_labels, negatives)
    report["clusters"] = clusters.assignment.tolist()
    return report


def _synthetic_pipeline(kg, seed, config, kind, graph, negatives, probe: Probe):
    """One preset run: plain, strl joint, score filter plus matched rerun, evaluation.

    Returns each stage's seconds without the probes run inside it, scaled
    by those probes; the quality report; outputs for checks, the raw stage
    seconds among them.
    """
    seed_for = kg.seeding.seed_for
    labels = graph.train_labels
    stages, scaled, quality = {}, {}, {}

    def stage(name, fn, *args, **kwargs):
        stages[name], scaled[name], result = _probed(probe, fn, *args, **kwargs)
        return result

    with patched(kg.trainer, "run_kge_epoch", _probing_epochs(probe)):
        plain = stage("pretrain_s", _pretrain_plain, kg, seed, config, kind, graph)
        # The same plain pre-training again: a same-seed check for the caller,
        # and a second sample of the shortest, least steady stage.
        plain_again = stage("pretrain_again_s", _pretrain_plain, kg, seed, config, kind, graph)
        joint = stage("joint_s", kg.trainer.joint_train, graph, kind, SYNTHETIC_N1["mode"],
                      config.replace(seed=seed_for(seed, "joint")))
        xscore_config = config.replace(seed=seed_for(seed, "xscore"))
        xscore, matched = stage("xscore_s", lambda: (
            kg.trainer.xscore_baseline(graph, kind, config.delta, xscore_config),
            kg.trainer.xscore_baseline(graph, kind, config.delta, xscore_config,
                                       keep_count=int(joint.mask.sum()))))

    start = time.perf_counter()
    quality["plain"] = _plain_report(kg, seed, config, kind, graph, negatives, plain)
    quality["strl"], strl_ranks = _evaluate(kg, kind, joint.store, graph, labels, negatives,
                                            joint.mask)
    quality["xscore"], _ = _evaluate(kg, kind, xscore.store, graph, labels, negatives,
                                     xscore.mask)
    quality["xscore"]["pretrain_score_sweep_f1"] = kg.evaluation.noise_detection_f1(
        xscore.pretrain_scores, labels)
    quality["xscore_matched"] = {"kept": int(matched.mask.sum()),
                                 "noise_f1": kg.evaluation.noise_detection_f1(matched.mask,
                                                                              labels)}
    stages["eval_s"] = time.perf_counter() - start
    outputs = {"strl_store": joint.store, "strl_ranks": strl_ranks,
               "xscore_scores": xscore.pretrain_scores, "plain_again": plain_again,
               "raw_stage_s": stages}
    return scaled, quality, outputs


def _small_batch_run(kg, seed, config, graph, probe: Probe, label: str):
    """DistMult and RotatE epochs, interleaved; (model → scaled s, raw s, losses).

    Each step runs one epoch of the model with the least time spent so
    far, so both models sample the same stretch of the neighbours' load.
    A model's seconds are scaled by the mean of the probes after its own
    epochs.
    """
    configs = {model: config.replace(model=model, pretrain_epochs=1)
               for model in SMALL_BATCH_EPOCHS}
    stores = dict.fromkeys(SMALL_BATCH_EPOCHS)
    losses = {model: [] for model in SMALL_BATCH_EPOCHS}
    raw_s = dict.fromkeys(SMALL_BATCH_EPOCHS, 0.0)
    probe_s = {model: [] for model in SMALL_BATCH_EPOCHS}
    with patched(kg.trainer, "run_kge_epoch", _probing_epochs(probe)):
        while True:
            left = [m for m in SMALL_BATCH_EPOCHS if len(losses[m]) < SMALL_BATCH_EPOCHS[m]]
            if not left:
                break
            model = min(left, key=raw_s.get)
            seconds, _, result = _probed(
                probe, kg.trainer.pretrain_kge, graph, kg.trainer.model_kind(configs[model]),
                configs[model], seed=kg.seeding.seed_for(seed, model, label, len(losses[model])),
                store=stores[model])
            stores[model] = result.store
            losses[model].extend(result.losses)
            raw_s[model] += seconds
            probe_s[model].append(probe.times[-1])
    scaled = {model: raw_s[model] * probe.reference_s / statistics.fmean(probe_s[model])
              for model in SMALL_BATCH_EPOCHS}
    return scaled, sum(raw_s.values()), losses


def synthetic_n1(kg, seed: int, seconds: float, checks: Checks) -> Pass:
    """The preset pipeline, run once; ``seconds`` does not shorten or repeat it."""
    begin = time.perf_counter()
    seed_for = kg.seeding.seed_for
    config = kg.config.TrainConfig(**SYNTHETIC_N1_CONFIG).replace(
        seed=seed, mode=SYNTHETIC_N1["mode"])
    kind = kg.trainer.model_kind(config)
    recipe = {k: v for k, v in SYNTHETIC_N1.items() if k not in ("noise_rate", "mode")}

    def build():
        clean = kg.synth.generate_shift_graph(**recipe, seed=seed_for(seed, "synthgraph"))
        graph = kg.noise.inject_noise(clean, SYNTHETIC_N1["noise_rate"], seed_for(seed, "noise"))
        negatives = kg.noise.make_classification_negatives(
            graph, seed_for(seed, "class-negatives"))
        return graph, negatives

    # The 10 ms set-up runs 10 times before and 10 times after the pipeline,
    # so its median does not hang on the neighbours' load at a single moment.
    probe = Probe(**SYNTHETIC_PROBE)
    setup_times, (graph, negatives) = _setup(build, probe, 10)
    # DistMult and RotatE train at two moments about a minute apart, so
    # their rates do not hang on the neighbours' load at one moment.
    before_s, before_raw_s, before_losses = _small_batch_run(kg, seed, config, graph, probe,
                                                             "before")
    scaled, quality, outputs = _synthetic_pipeline(kg, seed, config, kind, graph, negatives,
                                                   probe)

    # The pipeline ran plain pre-training twice with the same seed. A traced
    # run repeats the whole pipeline and compares all of its quality.
    again = _plain_report(kg, seed, config, kind, graph, negatives, outputs["plain_again"])
    checks.expect(again == quality["plain"],
                  "synthetic-n1: plain pre-training repeated with the same seed differs")
    labels = graph.train_labels
    check_f1_sweep(checks, kg.evaluation.max_f1_sweep(outputs["xscore_scores"], labels),
                   outputs["xscore_scores"], labels, "synthetic-n1 xscore scores")
    check_ranks(checks, kg, kind, outputs["strl_store"], graph, outputs["strl_ranks"],
                RANK_CHECK_TRIPLES, "synthetic-n1 strl")
    in_unit = [v for model in quality.values() for k, v in model.items()
               if k in ("mrr", "noise_f1", "classification_accuracy")]
    checks.expect(all(0.0 < v <= 1.0 for v in in_unit), "synthetic-n1: quality outside (0, 1]")

    setup_times += _setup(build, probe, 10)[0]
    scale = probe.scale()
    wall_s = time.perf_counter() - begin - before_raw_s
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "wall_s": ((wall_s - probe.total) * scale, "s")}

    # Training rates at the preset's small batches: TransE from both plain
    # pre-trainings, DistMult and RotatE from the short runs before and
    # after the pipeline, which wall_s leaves out. Each is the triples
    # trained over the scaled seconds.
    after_s, _, after_losses = _small_batch_run(kg, seed, config, graph, probe, "after")
    train_s = {"transe": (2 * config.pretrain_epochs,
                          scaled["pretrain_s"] + scaled["pretrain_again_s"])}
    for model, n_epochs in SMALL_BATCH_EPOCHS.items():
        train_s[model] = (2 * n_epochs, before_s[model] + after_s[model])
        losses = before_losses[model] + after_losses[model]
        checks.expect(bool(np.isfinite(losses).all()), f"synthetic-n1 {model}: non-finite loss")
        quality[f"{model}_losses"] = losses
    for model, (n_epochs, model_s) in train_s.items():
        metrics[f"{model}_triples_per_s"] = (n_epochs * len(graph.train) / model_s, "1/s")
    notes = {
        "probe": {"runs": len(probe.times), "median_s": statistics.median(probe.times),
                  "scale": scale},
        "raw_wall_s": wall_s,
        "raw_stage_s": outputs["raw_stage_s"],
        "scaled_stage_s": scaled,
        "scaled_train_s": {model: model_s for model, (_, model_s) in train_s.items()},
        "agent_noise_f1": quality["strl"]["noise_f1"],
        "agent_mrr": quality["strl"]["mrr"],
        "agent_mrr_gain": quality["strl"]["mrr"] - quality["plain"]["mrr"],
        "graph": {"entities": graph.n_entities, "train": len(graph.train),
                  "injected": int(labels.sum())},
    }
    return Pass(metrics, quality, None, notes)


# -- FB15k-237-shaped workloads ------------------------------------------------------


def _fb_graph(kg, seed):
    clean = fbgraph.generate_fb237_shaped(kg.seeding.seed_for(seed, "fbgraph"), kg)
    return kg.noise.inject_noise(clean, FB_NOISE_RATE, kg.seeding.seed_for(seed, "noise"))


def _fb_config(kg, seed, **overrides):
    return kg.config.TrainConfig(**FULLSCALE_CONFIG).replace(seed=seed, **overrides)


def _check_lazy_adam(checks, kg, graph, kind, config, store, batch, seed, label) -> None:
    """One more batch: rows it never touched keep parameters and moments bitwise."""
    before = store.copy()
    negatives = []

    def capture(original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            negatives.append(out)
            return out
        return wrapper

    with patched(kg.models, "corrupt_batch", capture):
        kg.trainer.pretrain_kge(graph, kind, config, triples=batch, seed=seed, store=store)
    touched = np.concatenate([batch] + negatives)
    untouched = {
        "entities": np.setdiff1d(np.arange(store.n_entities), touched[:, [0, 2]]),
        "relations": np.setdiff1d(np.arange(store.n_relations), touched[:, 1]),
    }
    same = all(
        np.array_equal(old[untouched[name]].view(np.uint64), new[untouched[name]].view(np.uint64))
        for (name, *old_mats), (_, *new_mats) in zip(before.matrices(), store.matrices())
        for old, new in zip(old_mats, new_mats)
    )
    checks.expect(len(untouched["entities"]) > 0 and same,
                  f"{label}: untouched rows changed under lazy Adam")


def fb237_train(kg, seed: int, seconds: float, checks: Checks,
                plan: list[str] | None = None) -> Pass:
    begin = time.perf_counter()
    seed_for = kg.seeding.seed_for
    probe = Probe(**FB_PROBE)
    setup_times, graph = _setup(lambda: _fb_graph(kg, seed), probe, FB_SETUPS)
    train = graph.train
    # Each unit is one pretrain_kge call over a single batch.
    batch_size = FULLSCALE_CONFIG["batch_size"]
    order = np.random.default_rng(seed_for(seed, "batches")).permutation(len(train))

    configs = {model: _fb_config(kg, seed_for(seed, model), model=model, pretrain_epochs=1)
               for model in FB_MODELS}
    kinds = {model: kg.trainer.model_kind(config) for model, config in configs.items()}
    stores = dict.fromkeys(FB_MODELS)
    losses = {model: [] for model in FB_MODELS}
    schedule = Schedule(seconds, FB_SHARES, dict.fromkeys(FB_MODELS, TRAIN_MIN_UNITS), plan)
    scaled = {model: [] for model in FB_MODELS}

    def unit(model, i, store):
        """One pretrain_kge call over batch ``i``."""
        start = (i * batch_size) % (len(train) - batch_size)
        return kg.trainer.pretrain_kge(graph, kinds[model], configs[model],
                                       triples=train[order[start:start + batch_size]],
                                       seed=seed_for(seed, model, i), store=store)

    for step in schedule:
        result = schedule.run(step, unit, step, len(schedule.units[step]), stores[step])
        stores[step] = result.store
        losses[step].extend(result.losses)
        # Each batch is scaled by the probes just before and just after it.
        probe.run()
        scaled[step].append(schedule.units[step][-1] * probe.scale(len(probe.times) - 2))

    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    batch = train[order[-batch_size:]]
    for model in FB_MODELS:
        metrics[f"{model}_triples_per_s"] = (batch_size / statistics.median(scaled[model]),
                                             "1/s")
        checks.expect(bool(np.isfinite(losses[model]).all()),
                      f"fb237-train {model}: non-finite loss")
        # A second same-seed run of the first batch, from a fresh store.
        checks.expect(unit(model, 0, None).losses == losses[model][:1],
                      f"fb237-train {model}: first batch repeated with the same seed differs")
        _check_lazy_adam(checks, kg, graph, kinds[model], configs[model], stores[model], batch,
                         seed_for(seed, model, "check"), f"fb237-train {model}")
    # How many batches run depends on the machine, so only the batches every
    # run makes count as quality.
    quality = {model: values[:TRAIN_MIN_UNITS] for model, values in losses.items()}

    shape_config = _fb_config(kg, seed)
    notes = {"shape": fbgraph.shape_of(graph, shape_config.relation_cap,
                                       shape_config.batch_size, seed),
             "units": {name: len(times) for name, times in schedule.units.items()},
             "raw_median_unit_s": {name: schedule.median(name) for name in schedule.units},
             "probe": {"runs": len(probe.times), "median_s": statistics.median(probe.times)}}
    metrics["wall_s"] = (time.perf_counter() - begin, "s")
    return Pass(metrics, quality, schedule.sequence, notes)


WORKLOADS = {
    "synthetic-n1": synthetic_n1,
    "fb237-train": fb237_train,
}
