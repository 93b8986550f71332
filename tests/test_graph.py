import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, small_graphs
from kgedenoise.errors import DataError
from kgedenoise.graph import KnowledgeGraph, Vocabulary, load_graph, write_triples


def write_split(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_dataset(tmp_path, train, valid, test):
    write_split(tmp_path / "train.txt", train)
    write_split(tmp_path / "valid.txt", valid)
    write_split(tmp_path / "test.txt", test)
    return (tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt")


def test_load_counts_tiny(tmp_path):
    paths = write_dataset(
        tmp_path,
        ["a\tr\tb", "b\tr\ta", "a\tr\ta"],
        ["a\tr\tb"],
        ["b\tr\tb"],
    )
    graph = load_graph(*paths)
    assert graph.n_entities == 2
    assert graph.n_relations == 1
    assert len(graph.train) == 3


def test_duplicate_line_deduplicated(tmp_path):
    paths = write_dataset(tmp_path, ["a\tr\tb", "a\tr\tb"], ["a\tr\tb"], ["b\tr\ta"])
    graph = load_graph(*paths)
    assert len(graph.train) == 1
    assert graph.load_report.duplicates["train"] == 1


def test_malformed_line_reports_position(tmp_path):
    paths = write_dataset(tmp_path, ["a\tr\tb", "a\tr"], ["a\tr\tb"], ["a\tr\tb"])
    with pytest.raises(DataError, match="train.txt:2"):
        load_graph(*paths)


@pytest.mark.parametrize("valid, test, entities, relations", [
    (["a\tr\tnew_e"], ["a\tnew_r\tb"], 1, 1),
    # head and tail are one new entity: counted once
    (["new_e\tr\tnew_e"], ["a\tr\tb"], 1, 0),
    (["a\tr\tnew_e"], ["new_e\tr\tb"], 1, 0),
    (["a\tr\tb"], ["a\tnew_r\tb"], 0, 1),
], ids=["valid-entity-test-relation", "self-loop", "valid-then-test", "test-relation"])
def test_eval_only_entities_flagged(tmp_path, valid, test, entities, relations):
    paths = write_dataset(tmp_path, ["a\tr\tb"], valid, test)
    graph = load_graph(*paths)
    assert graph.load_report.eval_only_entities == entities
    assert graph.load_report.eval_only_relations == relations
    for line in valid + test:
        head, rel, tail = line.split("\t")
        assert head in graph.entity_vocab.names and tail in graph.entity_vocab.names
        assert rel in graph.relation_vocab.names


def test_vocab_ids_first_appearance_order(tmp_path):
    paths = write_dataset(tmp_path, ["b\tr\ta", "c\ts\tb"], ["d\tr\ta"], ["a\tr\tb"])
    graph = load_graph(*paths)
    assert graph.entity_vocab.names == ["b", "a", "c", "d"]
    assert graph.relation_vocab.names == ["r", "s"]


def test_load_is_deterministic(tmp_path):
    paths = write_dataset(tmp_path, ["a\tr\tb", "c\tr\td"], ["a\tr\td"], ["c\tr\tb"])
    one, two = load_graph(*paths), load_graph(*paths)
    assert one.entity_vocab.names == two.entity_vocab.names
    assert np.array_equal(one.train, two.train)
    assert np.array_equal(one.positive_index, two.positive_index)


def test_relation_positions_empty_and_total(tiny_graph):
    grouped = {r: tiny_graph.relation_positions(r) for r in range(2)}
    assert sum(len(v) for v in grouped.values()) == len(tiny_graph.train)
    empty_rel_graph = make_graph([(0, 0, 1)], n_relations=2)
    assert len(empty_rel_graph.relation_positions(1)) == 0


def test_relation_positions_match_linear_scan(tiny_graph):
    # oracle: plain scan over stored rows
    expected = [tuple(map(int, row)) for row in tiny_graph.train if row[1] == 1]
    positions = tiny_graph.relation_positions(1)
    got = [tuple(map(int, row)) for row in tiny_graph.train[positions]]
    assert got == expected == [(2, 1, 3), (4, 1, 5)]
    assert not tiny_graph.train_labels[positions].any()


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_relation_positions_match_linear_scan_on_random_graphs(graph):
    for r in range(graph.n_relations):
        positions = graph.relation_positions(r)
        assert positions.tolist() == [i for i, row in enumerate(graph.train.tolist())
                                      if row[1] == r]
        assert positions.dtype == np.int64
        with pytest.raises(ValueError):
            positions[:1] = 0
    with pytest.raises(DataError):
        graph.relation_positions(graph.n_relations)


def test_relation_positions_on_empty_train_split():
    graph = make_graph([], valid=[(0, 1, 2)], test=[(2, 0, 1)], n_entities=3, n_relations=2)
    for r in range(2):
        positions = graph.relation_positions(r)
        assert positions.tolist() == [] and positions.dtype == np.int64
        assert not positions.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_positive_index_matches_linear_scan(data):
    n_ent, n_rel = 6, 3
    triple = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                       st.integers(0, n_ent - 1))
    train = data.draw(st.lists(triple, min_size=1, max_size=8, unique=True))
    valid = data.draw(st.lists(triple, min_size=0, max_size=4, unique=True))
    test = data.draw(st.lists(triple, min_size=0, max_size=4, unique=True))
    graph = make_graph(train, valid, test, n_ent, n_rel)
    members = set(map(tuple, train)) | set(map(tuple, valid)) | set(map(tuple, test))
    for h in range(n_ent):
        for r in range(n_rel):
            for t in range(n_ent):
                assert graph.is_positive(h, r, t) == ((h, r, t) in members)


def _splits_with_repeats(data, n_ent, n_rel):
    """Train, valid and test over a small cube. Any split may be empty; valid
    and test may repeat triples of the splits before them, and of themselves."""
    triple = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                       st.integers(0, n_ent - 1))
    train = data.draw(st.lists(triple, max_size=12, unique=True))
    splits, earlier = [train], list(train)
    for _ in range(2):
        split = data.draw(st.lists(triple, max_size=4))
        if earlier:
            split += data.draw(st.lists(st.sampled_from(earlier), max_size=3))
        splits.append(split)
        earlier += split
    return splits


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_positive_index_is_sorted_unique_read_only_and_a_linear_scan(data):
    n_ent, n_rel = 5, 3
    train, valid, test = _splits_with_repeats(data, n_ent, n_rel)
    graph = make_graph(train, valid, test, n_ent, n_rel)
    members = set(train) | set(valid) | set(test)

    index = graph.positive_index
    assert index.dtype == np.int64 and index.ndim == 1
    assert len(index) == len(members)
    assert (index[1:] > index[:-1]).all()
    with pytest.raises(ValueError):
        index[:1] = 0

    cube = [(h, r, t) for h in range(n_ent) for r in range(n_rel) for t in range(n_ent)]
    codes = graph.encode_array(np.array(cube, dtype=np.int64))
    expected = [i for i, row in enumerate(cube) if row in members]
    assert graph.known_rows(codes).tolist() == expected
    assert graph.known_rows(codes[::-1]).tolist() == [len(cube) - 1 - i for i in expected[::-1]]
    for row, code in zip(cube, codes.tolist()):
        assert graph.is_positive(*row) == (row in members) == (code in graph.positive_index)

    head_first = graph.head_first_index()
    assert len(head_first) == len(members) and (head_first[1:] > head_first[:-1]).all()
    assert not head_first.flags.writeable
    for a in range(n_ent):
        for r in range(n_rel):
            assert graph.completions(index, a, r).tolist() == sorted(
                t for h, r2, t in members if (h, r2) == (a, r))
            assert graph.completions(head_first, a, r).tolist() == sorted(
                h for h, r2, t in members if (r2, t) == (r, a))


def test_positive_index_of_a_graph_without_triples():
    graph = make_graph([], n_entities=3, n_relations=2)
    assert graph.positive_index.dtype == np.int64 and len(graph.positive_index) == 0
    assert not graph.positive_index.flags.writeable
    assert graph.known_rows(np.array([0, 5, 17])).tolist() == []
    assert not graph.is_positive(0, 0, 0)
    assert graph.completions(graph.head_first_index(), 1, 1).tolist() == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_encode_array_equals_the_column_formula(data):
    n_ent, n_rel = data.draw(st.integers(1, 50_000)), data.draw(st.integers(1, 500))
    graph = make_graph([], n_entities=n_ent, n_relations=n_rel)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    size = data.draw(st.integers(0, 50))
    # In-range ids, and any int64: both wrap alike past 2**63.
    in_range = data.draw(st.booleans())
    if in_range:
        triples = np.stack([rng.integers(0, n_ent, size), rng.integers(0, n_rel, size),
                            rng.integers(0, n_ent, size)], axis=1)
    else:
        triples = rng.integers(-2 ** 63, 2 ** 63, (size, 3), dtype=np.int64)
    expected = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
    codes = graph.encode_array(triples)
    assert codes.dtype == np.int64 and np.array_equal(codes, expected)
    if in_range:
        assert codes.tolist() == [graph.encode(*row) for row in triples.tolist()]


def test_splits_are_read_only(tiny_graph):
    with pytest.raises(ValueError):
        tiny_graph.train[0, 0] = 99
    with pytest.raises(ValueError):
        tiny_graph.train_labels[0] = True


@pytest.mark.parametrize("valid, labels, message", [
    ([], [True, False], "noise label array length does not match train split"),
    ([(0, 0, 2)], None, "valid split references an out-of-range entity id"),
    ([(-1, 0, 1)], None, "valid split references an out-of-range entity id"),
    ([(0, 1, 1)], None, "valid split references an out-of-range relation id"),
], ids=["label-length", "entity-past-end", "negative-entity", "relation-past-end"])
def test_graph_refuses_labels_or_ids_that_do_not_fit(valid, labels, message):
    # Two entities, one relation and one train triple.
    with pytest.raises(DataError, match=message):
        KnowledgeGraph(Vocabulary(["a", "b"]), Vocabulary(["r"]),
                       np.array([[0, 0, 1]]), np.array(valid, dtype=np.int64).reshape(-1, 3),
                       np.empty((0, 3), dtype=np.int64), train_labels=labels)


def test_write_triples_round_trip(tmp_path, tiny_graph):
    write_triples(tmp_path / "train.txt", tiny_graph, tiny_graph.train)
    write_triples(tmp_path / "valid.txt", tiny_graph, tiny_graph.valid)
    write_triples(tmp_path / "test.txt", tiny_graph, tiny_graph.test)
    again = load_graph(tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt")
    assert np.array_equal(again.train, tiny_graph.train)
    assert np.array_equal(again.test, tiny_graph.test)
