"""Flat key-value training configuration.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment. Unknown keys are rejected so typos fail loudly. The effective
configuration (defaults merged with file and CLI overrides) is echoed
into every output directory for reproducibility; environment variables
are never consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .atomic import atomic_write
from .errors import DataError
from .graph import text_lines

# Smallest accepted value per field: a count of 0 turns its stage (or the
# relation cap) off, an agent learning rate of 0 freezes the agents, and a
# margin, loss or penalty coefficient of 0 drops its term.
_MINIMUM = {"dim": 1, "batch_size": 1, "k_negatives": 1, "clusters_k": 1,
            "pretrain_epochs": 0, "episodes": 0, "agent_warmup_episodes": 0,
            "joint_kge_epochs": 0, "agent_mimic_steps": 0, "relation_cap": 0,
            "agent_learning_rate": 0.0, "margin": 0.0, "eta": 0.0, "l2_coeff": 0.0,
            "alpha": 0.0, "lambda1": 0.0, "lambda2": 0.0, "agent_mimic_sharpness": 0.0}
_EMBEDDING_LEARNING_RATES = ("learning_rate", "joint_learning_rate")
_FRACTIONS = ("delta", "agent_mimic_quantile")


@dataclass
class TrainConfig:
    # model
    model: str = "transe"            # transe | distmult | rotate
    dim: int = 100
    norm: str = "l1"                 # TransE norm
    margin: float = 1.0              # TransE margin (gamma)
    eta: float = 5.0                 # RotatE margin
    k_negatives: int = 10            # negatives per positive, DistMult/RotatE
    l2_coeff: float = 1e-5           # DistMult L2 coefficient
    # optimization
    batch_size: int = 1024
    learning_rate: float = 0.001     # base models / pre-training
    joint_learning_rate: float = 0.0005  # extended models (joint loop)
    pretrain_epochs: int = 100       # hard-capped at 100
    # agents
    mode: str = "plain"              # plain | strl | mtrl | xscore
    episodes: int = 15               # M
    agent_warmup_episodes: int = 5
    agent_learning_rate: float = 0.01
    agent_baseline_decay: float = 0.9   # running-mean reward baseline (<0 disables)
    agent_mimic_steps: int = 0       # supervised score-mimic warm start (0 = off)
    agent_mimic_quantile: float = 0.1
    agent_mimic_sharpness: float = 1.0  # post-fit logit scale; >1 hardens selections
    alpha: float = 0.05              # keep-more reward bonus
    lambda1: float = 0.001           # shared-weight penalty
    lambda2: float = 0.01            # relation-weight penalty
    clusters_k: int = 10
    joint_kge_epochs: int = 1        # embedding epochs per relation visit
    relation_cap: int = 5000         # per-relation trajectory cap
    # baselines
    delta: float = 0.1               # score-filter drop fraction
    # reproducibility
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("transe", "distmult", "rotate"):
            raise DataError(f"unknown model {self.model!r}")
        if self.mode not in ("plain", "strl", "mtrl", "xscore"):
            raise DataError(f"unknown mode {self.mode!r}")
        if self.norm not in ("l1", "l2"):
            raise DataError(f"norm must be l1 or l2, got {self.norm!r}")
        for name, kind in _FIELD_TYPES.items():
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        for name in _FRACTIONS:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name, minimum in _MINIMUM.items():
            if getattr(self, name) < minimum:
                raise DataError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        # A negative decay turns reward centering off; above 1 it diverges.
        if self.agent_baseline_decay > 1.0:
            raise DataError(f"agent_baseline_decay must be <= 1, got {self.agent_baseline_decay}")
        for name in _EMBEDDING_LEARNING_RATES:
            if not getattr(self, name) > 0.0:
                raise DataError(f"{name} must be > 0, got {getattr(self, name)}")

    def replace(self, **overrides) -> "TrainConfig":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return TrainConfig(**values)


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config(path) -> TrainConfig:
    values = {}
    for lineno, line in text_lines(path):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(f"{path}:{lineno}: expected `key = value`")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return TrainConfig(**values)


def format_config(config: TrainConfig) -> str:
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(TrainConfig)]
    return "\n".join(lines) + "\n"


def write_config(path, config: TrainConfig) -> None:
    with atomic_write(path) as handle:
        handle.write(format_config(config))
