"""Dataset model: vocabularies, splits, TSV ingestion and the positive index.

The positive index is one read-only, sorted array of distinct int64 codes,
code = h |R||E| + r |E| + t (``encode_array``), one per known triple. A
membership test is a ``searchsorted``, and the known tails of (h, r) are one
contiguous range of it; the same sort over (t, r, h) codes
(``head_first_index``) gives the known heads of (r, t) as a range.

Triple files are UTF-8 text with one ``head<TAB>relation<TAB>tail`` fact
per line. Vocabulary ids are assigned by first appearance while reading
train, then valid, then test, which makes loading fully deterministic.
Ground-truth noise flags for the training split live in a side array
(``train_labels``) that no training code reads; only the evaluation layer
may consult it. Noise labels and selection masks are stored as flag
sidecars, one ``0``/``1`` per train line, with one writer and one reader.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import DataError

logger = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")


def open_input(path, mode: str = "r", encoding: str | None = None):
    """``open(path, mode, encoding=encoding)``; a file that cannot be opened
    raises ``DataError``, so every loader fails with the data-error exit code."""
    try:
        return open(path, mode, encoding=encoding)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def text_lines(path):
    """Numbered lines (from 1) of the UTF-8 text file ``path``.

    A file that cannot be opened, or bytes that are not UTF-8, raise
    ``DataError``.
    """
    with open_input(path, encoding="utf-8") as handle:
        try:
            yield from enumerate(handle, start=1)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


class Vocabulary:
    """Bijective string<->id map; ids are assigned in insertion order."""

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        new_id = len(self.names)
        self.names.append(name)
        self._ids[name] = new_id
        return new_id

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise DataError(f"unknown vocabulary entry: {name!r}") from None

    def name_of(self, idx: int) -> str:
        return self.names[idx]

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class LoadReport:
    """Counts gathered while reading the three split files."""

    raw_lines: dict[str, int] = field(default_factory=dict)
    kept: dict[str, int] = field(default_factory=dict)
    duplicates: dict[str, int] = field(default_factory=dict)
    eval_only_entities: int = 0
    eval_only_relations: int = 0

    def log(self) -> None:
        for split in SPLITS:
            logger.info(
                "split=%s lines=%d kept=%d duplicates=%d",
                split,
                self.raw_lines.get(split, 0),
                self.kept.get(split, 0),
                self.duplicates.get(split, 0),
            )
        if self.eval_only_entities or self.eval_only_relations:
            logger.warning(
                "vocabulary entries first seen outside train: entities=%d relations=%d",
                self.eval_only_entities,
                self.eval_only_relations,
            )


def relation_groups(relations: np.ndarray, n_relations: int) -> list[np.ndarray]:
    """Ascending, read-only positions of each id r = 0, 1, ... in ``relations``
    (at least ``n_relations`` entries, some maybe empty): one stable sort, split.

    The sort runs on the narrowest unsigned copy of the ids, which numpy
    radix-sorts up to 16 bits."""
    counts = np.bincount(relations, minlength=n_relations)
    key = relations.astype(np.min_scalar_type(max(len(counts) - 1, 0)))
    order = np.argsort(key, kind="stable")
    order.setflags(write=False)
    return np.split(order, np.cumsum(counts)[:-1])


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Ascending distinct ``values``: one sort, then a neighbour comparison
    (``np.unique`` took about 90 ms per 337k int64 codes on its hash path)."""
    values = np.sort(values)
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _as_triple_array(rows: Sequence[tuple[int, int, int]]) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    arr.setflags(write=False)
    return arr


class KnowledgeGraph:
    """Immutable container for vocabularies, splits and the positive index.

    The positive index covers train + valid + test, injected noise
    included, since the learner must not be able to tell noise apart. It
    is ``positive_index``, the sorted, distinct, read-only int64 codes of
    those triples; a triple repeated across splits is in it once. At
    FB15k-237 size (337k codes) it takes 2.7 MB, where a frozenset of the
    same codes kept about 26 MB resident.
    Safe for unlimited concurrent readers once constructed.
    """

    def __init__(
        self,
        entity_vocab: Vocabulary,
        relation_vocab: Vocabulary,
        train: np.ndarray,
        valid: np.ndarray,
        test: np.ndarray,
        train_labels: np.ndarray | None = None,
        load_report: LoadReport | None = None,
    ):
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.train = _as_triple_array(train)
        self.valid = _as_triple_array(valid)
        self.test = _as_triple_array(test)
        if train_labels is None:
            train_labels = np.zeros(len(self.train), dtype=bool)
        self.train_labels = np.asarray(train_labels, dtype=bool)
        if len(self.train_labels) != len(self.train):
            raise DataError("noise label array length does not match train split")
        self.train_labels.setflags(write=False)
        self.load_report = load_report

        self._check_ranges()
        # encode_array's weights: code = h |R||E| + r |E| + t.
        self._code_weights = np.array([self.n_relations * self.n_entities, self.n_entities, 1],
                                      dtype=np.int64)
        self.positive_index = self._sorted_codes(self.train, self.valid, self.test)
        self._rel_positions = relation_groups(self.train[:, 1], self.n_relations)

    # -- construction helpers -------------------------------------------------

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)

    def _check_ranges(self) -> None:
        n_ent, n_rel = self.n_entities, self.n_relations
        for name, arr in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if len(arr) == 0:
                continue
            if arr[:, [0, 2]].max() >= n_ent or arr[:, [0, 2]].min() < 0:
                raise DataError(f"{name} split references an out-of-range entity id")
            if arr[:, 1].max() >= n_rel or arr[:, 1].min() < 0:
                raise DataError(f"{name} split references an out-of-range relation id")

    # -- positive-index access -------------------------------------------------

    def encode(self, head: int, relation: int, tail: int) -> int:
        return (int(head) * self.n_relations + int(relation)) * self.n_entities + int(tail)

    def encode_array(self, triples: np.ndarray) -> np.ndarray:
        return triples @ self._code_weights

    def _sorted_codes(self, *blocks: np.ndarray) -> np.ndarray:
        codes = sorted_unique(np.concatenate([self.encode_array(b) for b in blocks]))
        codes.setflags(write=False)
        return codes

    def is_positive(self, head: int, relation: int, tail: int) -> bool:
        code = self.encode(head, relation, tail)
        slot = self.positive_index.searchsorted(code)
        return bool(slot < len(self.positive_index) and self.positive_index[slot] == code)

    def known_rows(self, codes: np.ndarray) -> np.ndarray:
        """Ascending positions of the ``codes`` that are in ``positive_index``.

        The codes are looked up in sorted order, so the search walks the
        index once; unsorted, 10,240 FB15k-237-shaped codes took 2.4 ms
        against 0.8 ms.
        """
        index = self.positive_index
        if len(index) == 0:
            return np.zeros(0, dtype=np.intp)
        order = codes.argsort()
        ordered = codes[order]
        rows = order[index.take(index.searchsorted(ordered), mode="clip") == ordered]
        rows.sort()
        return rows

    def head_first_index(self) -> np.ndarray:
        """``positive_index``'s counterpart over (t, r, h) codes, for the
        known heads of (r, t); built afresh on each call."""
        return self._sorted_codes(*(split[:, ::-1] for split in
                                    (self.train, self.valid, self.test)))

    def completions(self, index: np.ndarray, first: int, relation: int) -> np.ndarray:
        """The x of every (first, relation, x) code in a sorted code array:
        the known tails of (h, r) in ``positive_index``, or the known heads
        of (r, t) in ``head_first_index()`` with ``first = t``."""
        base = (int(first) * self.n_relations + int(relation)) * self.n_entities
        start, stop = np.searchsorted(index, (base, base + self.n_entities))
        return index[start:stop] - base

    # -- per-relation access ---------------------------------------------------

    def relation_positions(self, relation: int) -> np.ndarray:
        """Positions (row indices into ``train``) of a relation's triples."""
        if not 0 <= relation < self.n_relations:
            raise DataError(f"relation id {relation} out of range")
        return self._rel_positions[relation]

    def with_train(self, train: np.ndarray, train_labels: np.ndarray) -> "KnowledgeGraph":
        """New graph sharing vocabularies and eval splits, replacing train."""
        return KnowledgeGraph(
            self.entity_vocab,
            self.relation_vocab,
            train,
            self.valid,
            self.test,
            train_labels=train_labels,
            load_report=self.load_report,
        )


class PositiveIndex:
    """What ``corrupt_batch`` reads of a graph: its sizes and positive index,
    without vocabularies, splits or noise labels, to send to another process."""

    def __init__(self, graph: KnowledgeGraph):
        self.n_entities, self.n_relations = graph.n_entities, graph.n_relations
        self.positive_index = graph.positive_index
        self._code_weights = graph._code_weights

    encode = KnowledgeGraph.encode
    encode_array = KnowledgeGraph.encode_array
    is_positive = KnowledgeGraph.is_positive
    known_rows = KnowledgeGraph.known_rows


def _read_split(path, split: str, entity_vocab: Vocabulary, relation_vocab: Vocabulary,
                report: LoadReport):
    rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    raw = dups = 0
    for lineno, line in text_lines(path):
        if line.endswith("\n"):
            line = line[:-1]
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        raw += 1
        head_name, rel_name, tail_name = fields
        triple = (entity_vocab.add(head_name), relation_vocab.add(rel_name),
                  entity_vocab.add(tail_name))
        if triple in seen:
            dups += 1
            continue
        seen.add(triple)
        rows.append(triple)
    report.raw_lines[split] = raw
    report.kept[split] = len(rows)
    report.duplicates[split] = dups
    return rows


def load_graph(train_path, valid_path, test_path) -> KnowledgeGraph:
    """Load the three split files into a ``KnowledgeGraph``.

    Duplicate lines within a split are dropped (counted in the load
    report); cross-split duplicates are kept for the filtered evaluation
    protocol to neutralize. Entities or relations first appearing in
    valid/test are accepted and flagged in the report.
    """
    entity_vocab = Vocabulary()
    relation_vocab = Vocabulary()
    report = LoadReport()

    train_rows = _read_split(train_path, "train", entity_vocab, relation_vocab, report)
    train_entities, train_relations = len(entity_vocab), len(relation_vocab)
    valid_rows = _read_split(valid_path, "valid", entity_vocab, relation_vocab, report)
    test_rows = _read_split(test_path, "test", entity_vocab, relation_vocab, report)
    # Ids follow first appearance, train first: every id past train's is eval-only.
    report.eval_only_entities = len(entity_vocab) - train_entities
    report.eval_only_relations = len(relation_vocab) - train_relations

    report.log()
    return KnowledgeGraph(
        entity_vocab,
        relation_vocab,
        train_rows,
        valid_rows,
        test_rows,
        load_report=report,
    )


def load_graph_dir(data_dir) -> KnowledgeGraph:
    """``load_graph`` over ``train.txt``, ``valid.txt`` and ``test.txt`` in ``data_dir``."""
    return load_graph(*(os.path.join(data_dir, f"{split}.txt") for split in SPLITS))


def write_triples(path, graph: KnowledgeGraph, triples: np.ndarray) -> None:
    """Write triples as a name-based TSV file (one fact per line)."""
    ent, rel = graph.entity_vocab, graph.relation_vocab
    with atomic_write(path) as handle:
        for h, r, t in triples:
            handle.write(f"{ent.name_of(h)}\t{rel.name_of(r)}\t{ent.name_of(t)}\n")


def write_flags(path, flags: np.ndarray) -> None:
    """Flag sidecar: one 0/1 per train line (noise labels, selection masks)."""
    with atomic_write(path) as handle:
        for flag in flags:
            handle.write(f"{int(flag)}\n")


def load_flags(path, expected: int) -> np.ndarray:
    """Read a flag sidecar that must hold ``expected`` (the train size) entries."""
    values = []
    for lineno, line in text_lines(path):
        text = line.strip()
        if not text:
            continue
        if text not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: entries must be 0 or 1")
        values.append(text == "1")
    flags = np.asarray(values, dtype=bool)
    if len(flags) != expected:
        raise DataError(f"{path}: {len(flags)} entries for {expected} training triples")
    return flags
