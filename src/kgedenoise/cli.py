"""Command-line entry point.

Subcommands: ``inject-noise``, ``cluster``, ``train``, ``evaluate`` and
``experiment``. Every subcommand takes ``--seed`` (an integer >= 0) and
is idempotent with respect to ``--out`` (outputs are overwritten, never
appended). Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import agent as agent_mod
from . import clustering, experiments, noise, trainer
from .config import MODELS, MODES, TrainConfig, parse_config, write_config
from .errors import DataError, NumericError, UsageError
from .evaluation import link_prediction, noise_detection_f1, triple_classification
from .graph import (SPLITS, load_flags, load_graph_dir, relation_groups, write_flags,
                    write_triples)
from .models import load_store, relation_features, save_store, score_batch
from .noise import make_classification_negatives
from .seeding import seed_for


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to usage error
        raise UsageError(message)


def non_negative_int(text: str) -> int:
    """``--seed``'s type: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _create_dir(directory) -> None:
    """``os.makedirs(directory, exist_ok=True)``; a failure is a data error."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {directory}: {exc.strerror}") from None


def cmd_inject_noise(args) -> int:
    graph = load_graph_dir(args.in_dir)
    noisy = noise.inject_noise(graph, args.rate, args.seed)
    _create_dir(args.out_dir)
    for split in SPLITS:
        write_triples(os.path.join(args.out_dir, f"{split}.txt"), noisy, getattr(noisy, split))
    write_flags(os.path.join(args.out_dir, "noise_labels.tsv"), noisy.train_labels)
    print(f"wrote noisy split with {int(noisy.train_labels.sum())} injected triples "
          f"to {args.out_dir}")
    return 0


def cmd_cluster(args) -> int:
    graph = load_graph_dir(args.data)
    store = load_store(args.checkpoint)
    if store.n_relations != graph.n_relations:
        raise DataError("checkpoint relation count does not match the data directory")
    features = relation_features(store, np.arange(store.n_relations))
    clusters = clustering.kmeans(features, args.k, args.seed)
    _create_dir(os.path.dirname(os.path.abspath(args.out)))
    clustering.save_clusters(args.out, clusters, graph.relation_vocab)
    print(f"wrote {args.k} clusters for {graph.n_relations} relations to {args.out}")
    return 0


def _build_config(args) -> TrainConfig:
    config = parse_config(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.model:
        overrides["model"] = args.model
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    return config.replace(**overrides)


def cmd_train(args) -> int:
    config = _build_config(args)
    if args.clusters and config.mode != "mtrl":
        raise UsageError(f"--clusters needs mode mtrl, got {config.mode}")
    graph = load_graph_dir(args.data)
    kind = trainer.model_kind(config)
    _create_dir(args.out)
    write_config(os.path.join(args.out, "config_used.cfg"), config)

    mask = np.ones(len(graph.train), dtype=bool)
    if config.mode == "plain":
        result = trainer.pretrain_kge(graph, kind, config)
        store, losses = result.store, result.losses
    elif config.mode == "xscore":
        result = trainer.xscore_baseline(graph, kind, config.delta, config)
        store, mask, losses = result.store, result.mask, result.losses
    else:
        clusters = None
        if args.clusters:
            clusters = clustering.load_clusters(args.clusters, graph.relation_vocab)
        result = trainer.joint_train(graph, kind, config.mode, config, clusters=clusters)
        store, mask, losses = result.store, result.mask, result.pretrain_losses
        agent_mod.save_policy(os.path.join(args.out, "policy.ckpt"), result.params)

    save_store(os.path.join(args.out, "model.ckpt"), store)
    write_flags(os.path.join(args.out, "selection_mask.tsv"), mask)
    trainer.write_training_curve(os.path.join(args.out, "training_curve.csv"), losses)
    print(f"trained {config.model} ({config.mode}); kept {int(mask.sum())}/{len(mask)} "
          f"triples; outputs in {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.mask and not args.labels:
        raise UsageError("--mask needs --labels")
    graph = load_graph_dir(args.graph)
    store = load_store(args.checkpoint)
    if (store.n_entities, store.n_relations) != (graph.n_entities, graph.n_relations):
        raise DataError(f"checkpoint has {store.n_entities} entities and {store.n_relations} "
                        f"relations; the data directory has {graph.n_entities} and "
                        f"{graph.n_relations}")
    kind = store.kind

    lp = link_prediction(kind, store, graph)
    vt, vl, tt, tl = make_classification_negatives(graph, seed_for(args.seed, "class-negatives"))
    cls = triple_classification(kind, store, vt, vl, tt, tl)
    reciprocal = 1.0 / lp.ranks
    query_relations = np.repeat(graph.test[:, 1], 2)  # head then tail query per triple
    report = {
        "mrr": lp.mrr,
        "hits": {str(n): v for n, v in sorted(lp.hits.items())},
        "classification_accuracy": cls.accuracy,
        "per_relation": {
            str(r): {"mrr": float(reciprocal[rows].mean()),
                     "hits10": float((lp.ranks[rows] <= 10).mean()),
                     "queries": float(len(rows))}
            for r, rows in enumerate(relation_groups(query_relations, graph.n_relations))
            if len(rows)
        },
    }

    if args.labels:
        labels = load_flags(args.labels, len(graph.train))
        mask = load_flags(args.mask, len(graph.train)) if args.mask else None
        # Noise F1 is undefined without injected noise; clean labels leave
        # the noise_f1* keys out, as experiments.evaluate_store does.
        if labels.any():
            if mask is not None:
                report["noise_f1"] = noise_detection_f1(mask, labels)
            report["noise_f1_score_sweep"] = noise_detection_f1(
                score_batch(kind, store, graph.train), labels)

    _create_dir(os.path.dirname(os.path.abspath(args.out)))
    experiments.write_report(report, args.out)
    print(f"mrr={lp.mrr:.4f} hits@10={lp.hits[10]:.4f} "
          f"accuracy={cls.accuracy:.4f}; report at {args.out}")
    return 0


def cmd_experiment(args) -> int:
    report = experiments.run_synthetic_experiment(args.preset, args.seed)
    _create_dir(os.path.dirname(os.path.abspath(args.out)))
    experiments.write_report(report, args.out)
    mode = experiments.PRESETS[args.preset].mode
    agents = report["models"][mode]
    print(f"experiment {args.preset} seed {args.seed}: "
          f"agent mrr={agents['mrr']:.4f} f1={agents['noise_f1']:.4f}; report at {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="kgedenoise",
                     description="Noise-robust knowledge-graph embedding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject-noise", help="fuse labeled hard negatives into a train split")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.set_defaults(func=cmd_inject_noise)

    p = sub.add_parser("cluster", help="k-means over a checkpoint's relation rows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="directory with the split files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train a model (plain, strl, mtrl or xscore)")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--clusters", help="precomputed clusters.tsv for mtrl")
    p.add_argument("--seed", type=non_negative_int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a data directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True, help="directory with the split files")
    p.add_argument("--labels", help="noise_labels.tsv sidecar")
    p.add_argument("--mask", help="selection_mask.tsv from training")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a preset end to end")
    p.add_argument("--preset", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def run(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
