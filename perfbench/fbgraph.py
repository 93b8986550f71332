"""FB15k-237-shaped graph with random content, generated from a seed.

The sizes match FB15k-237: 14,541 entities, 237 relations and a
272,115 / 17,535 / 20,466 train / valid / test split. Relation sizes
follow a power law whose largest relation holds about 16k triples, as
FB15k-237's does. Entity frequencies follow a separate power law for the
head and the tail slot, so a few hub entities appear in thousands of
triples. No triple repeats. The content is random, so the graph has the
benchmark's shape but nothing to learn.

``ENTITY_EXPONENT`` is a guess that no FB15k-237 statistic anchors. It
sets how skewed entity degrees are, and with that how many unique rows a
batch gathers and the Adam step scatters. ``shape_of`` records the
measured top entity degree and unique rows per batch, so the guess can
be checked once the real files are available.
"""

from __future__ import annotations

import numpy as np

N_ENTITIES = 14_541
N_RELATIONS = 237
SPLIT = (272_115, 17_535, 20_466)
RELATION_EXPONENT = 0.65
ENTITY_EXPONENT = 0.75  # unverified guess, see the module docstring


def _power_law(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Probabilities proportional to rank**-exponent over shuffled ids."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return (weights / weights.sum())[rng.permutation(n)]


def _relation_sizes(total: int, rng: np.random.Generator) -> np.ndarray:
    share = _power_law(N_RELATIONS, RELATION_EXPONENT, rng) * total
    sizes = np.floor(share).astype(np.int64)
    remainder = total - int(sizes.sum())
    sizes[np.argsort(sizes - share, kind="stable")[:remainder]] += 1
    return sizes


def _distinct_pairs(size: int, head_p, tail_p, rng: np.random.Generator) -> np.ndarray:
    """``size`` distinct (head, tail) pairs drawn from the slot distributions."""
    codes = np.zeros(0, dtype=np.int64)
    while len(codes) < size:
        draw = 2 * (size - len(codes)) + 16
        heads = rng.choice(N_ENTITIES, size=draw, p=head_p)
        tails = rng.choice(N_ENTITIES, size=draw, p=tail_p)
        codes = np.concatenate([codes, heads * N_ENTITIES + tails])
        _, first = np.unique(codes, return_index=True)
        codes = codes[np.sort(first)]
    codes = codes[:size]
    return np.stack([codes // N_ENTITIES, codes % N_ENTITIES], axis=1)


def generate_fb237_shaped(seed: int, kg):
    """Build the graph as a ``kgedenoise.graph.KnowledgeGraph``.

    ``kg`` is the ``kgedenoise`` package, passed in so this module imports
    nothing from the library under test.
    """
    rng = np.random.default_rng(seed)
    head_p = _power_law(N_ENTITIES, ENTITY_EXPONENT, rng)
    tail_p = _power_law(N_ENTITIES, ENTITY_EXPONENT, rng)
    sizes = _relation_sizes(sum(SPLIT), rng)

    blocks = []
    for relation, size in enumerate(sizes.tolist()):
        pairs = _distinct_pairs(size, head_p, tail_p, rng)
        blocks.append(np.column_stack([pairs[:, 0], np.full(size, relation), pairs[:, 1]]))
    triples = np.concatenate(blocks)[rng.permutation(int(sizes.sum()))]

    n_train, n_valid, _ = SPLIT
    vocab = kg.graph.Vocabulary
    return kg.graph.KnowledgeGraph(
        vocab(f"/m/e{i:05d}" for i in range(N_ENTITIES)),
        vocab(f"/r/{j:03d}" for j in range(N_RELATIONS)),
        triples[:n_train],
        triples[n_train:n_train + n_valid],
        triples[n_train + n_valid:],
    )


def shape_of(graph, relation_cap: int, batch_size: int, seed: int) -> dict:
    """Measured shape: relation sizes against the cap and rows per batch."""
    sizes = np.bincount(graph.train[:, 1], minlength=graph.n_relations)
    over_cap = sizes > relation_cap
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(graph.train))
    batches = [graph.train[order[i:i + batch_size]]
               for i in range(0, len(order) - batch_size + 1, batch_size)][:64]
    unique_rows = [len(np.unique(b[:, [0, 2]])) for b in batches]
    degrees = np.bincount(graph.train[:, [0, 2]].ravel(), minlength=graph.n_entities)
    return {
        "entities": graph.n_entities,
        "relations": graph.n_relations,
        "train": len(graph.train),
        "valid": len(graph.valid),
        "test": len(graph.test),
        "largest_relation": int(sizes.max()),
        "smallest_relation": int(sizes.min()),
        "relations_over_cap": int(over_cap.sum()),
        "train_share_over_cap": float(sizes[over_cap].sum() / len(graph.train)),
        "top_entity_degree": int(degrees.max()),
        "median_entity_degree": float(np.median(degrees)),
        "mean_unique_entity_rows_per_batch": float(np.mean(unique_rows)),
    }
