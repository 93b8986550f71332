"""End-to-end experiment presets.

A preset bundles a dataset recipe with tuned hyperparameters and runs
the full comparison a results row needs: plain training on the noisy
split, the score-filter baseline, and the selection-agent variant, each
evaluated on noise detection, filtered link prediction and triple
classification. All randomness derives from the single master seed, so
rerunning a preset reproduces its report byte for byte.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from . import agent as agent_mod
from .atomic import atomic_write
from .config import TrainConfig
from .errors import UsageError
from .evaluation import link_prediction, noise_detection_f1, triple_classification
from .graph import KnowledgeGraph, load_graph_dir
from .models import score_batch
from .noise import inject_noise, make_classification_negatives
from .seeding import seed_for
from .synth import generate_shift_graph
from .trainer import (JointResult, joint_train, model_kind, pretrain_kge,
                      score_filter_mask, xscore_baseline)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, kw_only=True)
class SyntheticPreset:
    config: TrainConfig
    grid_x: int = 20
    grid_y: int = 10
    n_relations: int = 20
    train_per_relation: int = 130
    valid_per_relation: int = 10
    test_per_relation: int = 10
    noise_rate: float = 0.1
    mode: str = "strl"


def _synthetic_config(**overrides) -> TrainConfig:
    base = dict(
        dim=32, margin=6.0, batch_size=32, learning_rate=0.002, joint_learning_rate=0.0002,
        agent_learning_rate=0.001, agent_mimic_steps=3000, agent_mimic_sharpness=8.0,
        alpha=1.0, clusters_k=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


PRESETS: dict[str, SyntheticPreset] = {
    "synthetic-n1": SyntheticPreset(config=_synthetic_config()),
    "synthetic-n1-mtrl": SyntheticPreset(mode="mtrl", config=_synthetic_config()),
    "synthetic-tiny": SyntheticPreset(
        grid_x=8, grid_y=5, n_relations=4,
        train_per_relation=12, valid_per_relation=3, test_per_relation=3,
        config=_synthetic_config(dim=8, pretrain_epochs=5, episodes=2,
                                 agent_warmup_episodes=2, batch_size=32),
    ),
}

# FB15k-237-style recipe for the full-scale spot check; needs on-disk data.
FULLSCALE_CONFIG = TrainConfig(clusters_k=120)


def evaluate_store(store, graph: KnowledgeGraph, negatives, mask) -> dict:
    """Noise F1, filtered ranking, and classification on the run's one ``negatives`` set."""
    kind = store.kind
    lp = link_prediction(kind, store, graph)
    cls = triple_classification(kind, store, *negatives)
    out = {
        "mrr": lp.mrr,
        "hits": {str(n): v for n, v in sorted(lp.hits.items())},
        "classification_accuracy": cls.accuracy,
    }
    if graph.train_labels.any():
        out["noise_f1_score_sweep"] = noise_detection_f1(
            score_batch(kind, store, graph.train), graph.train_labels)
        if mask is not None:
            out["noise_f1"] = noise_detection_f1(mask, graph.train_labels)
            out["kept"] = int(mask.sum())
    return out


def _plain_and_agents(graph: KnowledgeGraph, kind, config: TrainConfig,
                      negatives) -> tuple[dict, JointResult | None]:
    """Per-model reports of plain training and, when ``config.mode`` is strl
    or mtrl, the selection agents; and the joint result (None otherwise)."""
    logger.info("seed %d: plain baseline", config.seed)
    plain = pretrain_kge(graph, kind, config.replace(seed=seed_for(config.seed, "plain")))
    models = {"plain": evaluate_store(plain.store, graph, negatives, None)}
    if config.mode not in agent_mod.MODES:
        return models, None
    logger.info("seed %d: selection agents (%s)", config.seed, config.mode)
    joint = joint_train(graph, kind, config.mode, config.replace(seed=seed_for(config.seed, "joint")))
    models[config.mode] = evaluate_store(joint.store, graph, negatives, joint.mask)
    return models, joint


def run_synthetic_experiment(preset_name: str, seed: int) -> dict:
    """Run a synthetic preset end to end and return the report dict."""
    if preset_name not in PRESETS:
        raise UsageError(f"unknown preset {preset_name!r}; choices: {sorted(PRESETS)}")
    preset = PRESETS[preset_name]
    config = preset.config.replace(seed=seed, mode=preset.mode)
    kind = model_kind(config)

    clean = generate_shift_graph(
        grid_x=preset.grid_x, grid_y=preset.grid_y, n_relations=preset.n_relations,
        train_per_relation=preset.train_per_relation,
        valid_per_relation=preset.valid_per_relation,
        test_per_relation=preset.test_per_relation,
        seed=seed_for(seed, "synthgraph"),
    )
    graph = inject_noise(clean, preset.noise_rate, seed_for(seed, "noise"))
    labels = graph.train_labels
    negatives = make_classification_negatives(graph, seed_for(seed, "class-negatives"))

    report: dict = {
        "preset": preset_name,
        "seed": seed,
        "graph": {
            "entities": graph.n_entities,
            "relations": graph.n_relations,
            "train": len(graph.train),
            "valid": len(graph.valid),
            "test": len(graph.test),
            "injected": int(labels.sum()),
        },
    }

    report["models"], joint = _plain_and_agents(graph, kind, config, negatives)

    logger.info("seed %d: score-filter baseline", seed)
    xscore_cfg = config.replace(seed=seed_for(seed, "xscore"))
    xscore = xscore_baseline(graph, kind, config.delta, xscore_cfg)
    report["models"]["xscore"] = evaluate_store(xscore.store, graph, negatives, xscore.mask)
    report["models"]["xscore"]["pretrain_score_sweep_f1"] = noise_detection_f1(
        xscore.pretrain_scores, labels)

    # The matched-budget filter ranks the same pre-training scores, so it
    # needs no second pre-training.
    matched = score_filter_mask(xscore.pretrain_scores,
                                len(graph.train) - int(joint.mask.sum()))
    report["models"]["xscore_matched"] = {
        "kept": int(matched.sum()),
        "noise_f1": noise_detection_f1(matched, labels),
    }

    agents = report["models"][config.mode]
    report["comparisons"] = {
        "agent_mrr_minus_plain": agents["mrr"] - report["models"]["plain"]["mrr"],
        "agent_f1_minus_xscore_matched":
            agents["noise_f1"] - report["models"]["xscore_matched"]["noise_f1"],
    }
    return report


def run_file_experiment(data_dir, config: TrainConfig, noise_rate: float) -> dict:
    """Noise-inject an on-disk benchmark and run plain + selected variants.

    ``config.mode`` picks the variant: ``plain``, ``strl`` or ``mtrl``;
    ``xscore`` raises ``UsageError`` before anything is loaded."""
    if config.mode == "xscore":
        raise UsageError(f"file experiments run modes plain, strl or mtrl, not {config.mode!r}")
    clean = load_graph_dir(data_dir)
    graph = inject_noise(clean, noise_rate, seed_for(config.seed, "noise"))
    negatives = make_classification_negatives(graph, seed_for(config.seed, "class-negatives"))
    models, _ = _plain_and_agents(graph, model_kind(config), config, negatives)
    return {"data_dir": str(data_dir), "noise_rate": noise_rate, "models": models}


def write_report(report: dict, path) -> None:
    """Stable-order JSON so identical runs produce identical bytes."""
    with atomic_write(path) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
