import re

import numpy as np
import pytest

from kgedenoise.errors import DataError
from kgedenoise.synth import generate_shift_graph

ONE_TRAIN = dict(train_per_relation=1, valid_per_relation=0, test_per_relation=0)


@pytest.mark.parametrize("grid_x, grid_y", [(2, 0), (-4, -2), (3, 5), (8, 1)],
                         ids=["short", "both-negative", "narrow", "flat"])
def test_grid_not_larger_than_the_offsets_is_a_data_error(grid_x, grid_y):
    # (grid_x - max_dx) * (grid_y - max_dy) is positive for the first two,
    # and zero for the last two; none leaves a pool for every offset.
    with pytest.raises(DataError, match="grid_x > max_dx"):
        generate_shift_graph(grid_x=grid_x, grid_y=grid_y, n_relations=2, **ONE_TRAIN)


@pytest.mark.parametrize("split", ["train", "valid", "test"])
def test_negative_per_relation_count_is_a_data_error(split):
    counts = dict(train_per_relation=5, valid_per_relation=2, test_per_relation=2)
    counts[f"{split}_per_relation"] = -1
    with pytest.raises(DataError, match="counts >= 0"):
        generate_shift_graph(n_relations=2, **counts)


def test_more_triples_than_grid_cells_is_a_data_error():
    with pytest.raises(DataError, match="exceeds available grid cells"):
        generate_shift_graph(grid_x=5, grid_y=3, train_per_relation=5)


def test_zero_relations_give_empty_splits():
    graph = generate_shift_graph(n_relations=0)
    assert graph.n_relations == 0 and graph.n_entities == 200
    for split in (graph.train, graph.valid, graph.test):
        assert split.shape == (0, 3) and split.dtype == np.int64


def test_every_triple_follows_its_relation_offset():
    graph = generate_shift_graph(grid_x=9, grid_y=4, n_relations=6, train_per_relation=7,
                                 valid_per_relation=2, test_per_relation=3, seed=5)
    # relation names read r<id>_d<dx><dy>, e.g. r03_d+2-1
    offsets = [re.fullmatch(r"r\d+_d([+-]\d+)([+-]\d+)", name).groups()
               for name in graph.relation_vocab.names]
    rows = np.concatenate([graph.train, graph.valid, graph.test])
    assert [len(graph.train), len(graph.valid), len(graph.test)] == [42, 12, 18]
    hx, hy = np.divmod(rows[:, 0], 4)
    tx, ty = np.divmod(rows[:, 2], 4)
    dx, dy = np.array(offsets, dtype=np.int64)[rows[:, 1]].T
    assert (tx == hx + dx).all() and (ty == hy + dy).all()
    assert ((0 <= tx) & (tx < 9) & (0 <= ty) & (ty < 4)).all()
    # distinct heads per relation, across the three splits
    assert len({(h, r) for h, r, _ in rows.tolist()}) == len(rows)
