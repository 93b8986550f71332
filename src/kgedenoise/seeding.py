"""Deterministic derivation of per-component RNG seeds from a master seed.

Every stochastic stage of the pipeline draws from its own
``numpy.random.Generator`` seeded by ``seed_for(master, *labels)``. The
derivation is a SHA-256 hash of the master seed and the label path, so it
is stable across processes, platforms and package versions (Python's
built-in ``hash`` is salted per process and must not be used here).

Label paths in use; an indented path is taken under the seed that the
path above it derives. Under a trainer config's ``seed``:

    ("pretrain",)                 embedding pre-training
        ("init",)                 embedding initialization
        ("epoch", e)              batch order and negatives, epoch e
    ("clusters",)                 k-means over relation embeddings
    ("agents",)                   agent warm-up
        ("warmup-order", e)       relation visit order, warm-up episode e
        ("warmup-cap", e, i)      relation-cap subsample, visit i
        ("warmup-trajectory", e, i)  warm-up trajectory sampling
    ("episode-order", m)          relation visit order, joint episode m
    ("cap", m, i)                 relation-cap subsample, joint episode m
    ("trajectory", m, i)          joint trajectory sampling
    ("joint-kge", m, i, e)        embedding epoch e during visit i
    ("xscore-pretrain",) / ("xscore-retrain",)  the score filter's two
                                  pre-trainings, with "init" and "epoch"
                                  under each

Under an experiment's seed (the file experiment's config seed):

    ("synthgraph",)               synthetic graph
    ("noise",) / ("class-negatives",)  noise injection / labeled eval sets;
                                  ``evaluate`` draws the latter from --seed
    ("plain",) / ("joint",) / ("xscore",)  the config seed of each model
"""

import hashlib

_MASK_63 = (1 << 63) - 1


def seed_for(master: int, *labels) -> int:
    """Derive a child seed from ``master`` and a label path."""
    text = str(int(master)) + "".join("/" + str(part) for part in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _MASK_63
