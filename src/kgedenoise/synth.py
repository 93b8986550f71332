"""Rule-generated synthetic knowledge graphs for benchmarks and tests.

Entities are cells of a 2-D grid; each relation is a fixed small offset
shift, so a triple (h, r, t) is clean exactly when cell(t) = cell(h) +
offset(r). Shift structure is what translation models represent
natively, the grid's short diameter lets consistency propagate within a
bounded training budget, slot-constrained noise injection breaks the
rule, and every link-prediction query has a unique correct answer.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph, Vocabulary


def generate_shift_graph(grid_x: int = 20, grid_y: int = 10, n_relations: int = 20,
                         train_per_relation: int = 130, valid_per_relation: int = 10,
                         test_per_relation: int = 10, max_dx: int = 3, max_dy: int = 1,
                         seed: int = 0) -> KnowledgeGraph:
    """Build a clean grid-shift graph with per-relation train/valid/test splits.

    The generator draws the offsets, then per relation one ``choice`` of
    distinct head cells (numbered x-major) whose shift stays on the grid;
    its picks split in draw order. All else is array work around the draws.
    """
    counts = (train_per_relation, valid_per_relation, test_per_relation)
    per_relation = sum(counts)
    candidates = [(dx, dy)
                  for dx in range(-max_dx, max_dx + 1)
                  for dy in range(-max_dy, max_dy + 1)
                  if (dx, dy) != (0, 0)]
    if n_relations > len(candidates):
        raise DataError("not enough distinct offsets; raise max_dx/max_dy")
    if grid_x <= max_dx or grid_y <= max_dy or min(counts) < 0:
        raise DataError("need grid_x > max_dx, grid_y > max_dy and counts >= 0")
    if per_relation > (grid_x - max_dx) * (grid_y - max_dy):
        raise DataError("per-relation triple count exceeds available grid cells")

    rng = np.random.default_rng(seed)
    offsets = [candidates[i] for i in rng.choice(len(candidates), size=n_relations,
                                                 replace=False)]

    entity_vocab = Vocabulary(f"e{i:04d}" for i in range(grid_x * grid_y))
    relation_vocab = Vocabulary(f"r{j:02d}_d{dx:+d}{dy:+d}"
                                for j, (dx, dy) in enumerate(offsets))

    # Relation j's pool is the cells x in [max(0, -dx), grid_x - max(0, dx)),
    # y likewise, and pick p is its cell (x0 + p // height, y0 + p % height).
    dx, dy = np.array(offsets, dtype=np.int64).reshape(n_relations, 2).T
    height = grid_y - np.abs(dy)
    picks = np.empty((n_relations, per_relation), dtype=np.int64)
    for j, size in enumerate(((grid_x - np.abs(dx)) * height).tolist()):
        picks[j] = rng.choice(size, size=per_relation, replace=False)
    x = np.maximum(0, -dx)[:, None] + picks // height[:, None]
    y = np.maximum(0, -dy)[:, None] + picks % height[:, None]
    heads = x * grid_y + y
    rows = np.stack([heads, np.broadcast_to(np.arange(n_relations)[:, None], heads.shape),
                     heads + (dx * grid_y + dy)[:, None]], axis=-1)
    train, valid, test = np.split(rows, np.cumsum(counts[:2]), axis=1)
    return KnowledgeGraph(entity_vocab, relation_vocab, train.reshape(-1, 3),
                          valid.reshape(-1, 3), test.reshape(-1, 3))
