"""The benchmark's own copy of the ``synthetic-n1`` preset and the FB-scale config.

``kgedenoise.experiments`` holds the originals, but the benchmark must not
import it: the module can fail at import time, and a benchmark that
cannot start measures nothing. ``drift`` compares this copy with the
originals whenever the module does import.
"""

from __future__ import annotations

# Graph recipe of PRESETS["synthetic-n1"] (the SyntheticPreset fields).
SYNTHETIC_N1 = dict(
    grid_x=20, grid_y=10, n_relations=20, train_per_relation=130,
    valid_per_relation=10, test_per_relation=10, noise_rate=0.1, mode="strl",
)

# PRESETS["synthetic-n1"].config, i.e. experiments._synthetic_config().
SYNTHETIC_N1_CONFIG = dict(
    model="transe", dim=32, norm="l1", margin=6.0,
    batch_size=32, learning_rate=0.002, joint_learning_rate=0.0002,
    pretrain_epochs=100, episodes=15, agent_warmup_episodes=5,
    agent_learning_rate=0.001, agent_mimic_steps=3000, agent_mimic_quantile=0.1,
    agent_mimic_sharpness=8.0, alpha=1.0, lambda1=0.001, lambda2=0.01,
    relation_cap=5000, clusters_k=5, joint_kge_epochs=1, delta=0.1,
)

# experiments.FULLSCALE_CONFIG, the FB15k-237 recipe.
FULLSCALE_CONFIG = dict(
    model="transe", dim=100, norm="l1", margin=1.0, batch_size=1024,
    learning_rate=0.001, joint_learning_rate=0.0005, pretrain_epochs=100,
    episodes=15, agent_warmup_episodes=5, agent_learning_rate=0.01,
    alpha=0.05, lambda1=0.001, lambda2=0.01, clusters_k=120,
)

def drift(kg) -> tuple[bool, str]:
    """(ran, mismatch description) for the copy against ``kgedenoise.experiments``.

    ``ran`` is False when the module does not import; the message then
    names the import error.
    """
    try:
        from kgedenoise import experiments
    except Exception as exc:  # the module under test may fail in any way at import
        return False, f"{type(exc).__name__}: {exc}"
    config_type = kg.config.TrainConfig
    preset = experiments.PRESETS["synthetic-n1"]
    pairs = [
        ("synthetic-n1", {k: getattr(preset, k) for k in SYNTHETIC_N1}, SYNTHETIC_N1),
        ("synthetic-n1 config", vars(preset.config), vars(config_type(**SYNTHETIC_N1_CONFIG))),
        ("fullscale config", vars(experiments.FULLSCALE_CONFIG),
         vars(config_type(**FULLSCALE_CONFIG))),
    ]
    problems = [
        f"{label}.{key}: library {original.get(key)!r} != copy {copy.get(key)!r}"
        for label, original, copy in pairs
        for key in sorted(set(original) | set(copy))
        if original.get(key) != copy.get(key)
    ]
    return True, "; ".join(problems)

