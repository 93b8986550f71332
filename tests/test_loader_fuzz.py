"""Fuzzed text inputs: the config, split, flag and cluster loaders raise only
package errors, and the CLI commands that read them exit 0, 1, 2 or 3.

Each file is built from lines that are mostly almost right (known keys,
names and values, wrong field counts, odd numbers) plus, now and then, raw
bytes that need not be UTF-8.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph
from kgedenoise.cli import run
from kgedenoise.clustering import load_clusters
from kgedenoise.config import TrainConfig, format_config, parse_config
from kgedenoise.errors import DataError, KgeDenoiseError, NumericError, UsageError
from kgedenoise.graph import Vocabulary, load_flags, load_graph, write_triples
from kgedenoise.models import TransE, init_embeddings, save_store

EXIT_CODES = {UsageError: 1, DataError: 2, NumericError: 3}

word = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
number = st.one_of(st.integers(-3, 12).map(str), st.integers().map(str),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["1e999", "-0", "0x10", "1_000", "٣", "1.5e-320", ""]))


def text_file(line):
    """A file of fuzzed lines, or of raw bytes one time in eight."""
    lines = st.lists(line, max_size=12).map(lambda ls: "".join(ls).encode("utf-8"))
    return st.one_of(lines, lines, lines, lines, lines, lines, lines, st.binary(max_size=64))


CONFIG_KEYS = list(TrainConfig.__dataclass_fields__)
config_line = st.one_of(
    st.builds("{} = {}\n".format, st.sampled_from(CONFIG_KEYS), number),
    st.builds("{} = {}\n".format, st.sampled_from(CONFIG_KEYS),
              st.sampled_from(["transe", "distmult", "rotate", "plain", "strl", "mtrl",
                               "xscore", "l1", "l2"]) | word),
    st.builds("{}{}\n".format, word, st.sampled_from(["", "=", " = 1", "# note", "\t"])),
    st.sampled_from(["\n", "# comment\n", "   \n", "= 3\n"]))

NAMES = ["e0", "e1", "e2", "e3", "r0", "r1"]
name = st.sampled_from(NAMES) | word
split_line = st.builds(lambda fields, end: "\t".join(fields) + end,
                       st.lists(name, min_size=0, max_size=5) | st.lists(name, min_size=3,
                                                                         max_size=3),
                       st.sampled_from(["\n", "\r\n", ""]))
flag_line = st.builds("{}{}".format, st.sampled_from(["0", "1", " 1 ", "", "2", "true"]) | word,
                      st.sampled_from(["\n", "\r\n", "\n\n"]))
cluster_line = st.builds("{}\t{}\n".format, st.sampled_from(["r0", "r1"]) | word, number) \
    | st.builds("{}\n".format, word)

SMALL_SPLIT = b"e0\tr0\te1\ne1\tr1\te2\ne2\tr0\te3\ne3\tr1\te0\n"


def loads(load, *contents):
    """``load`` of files holding ``contents``; a package error is returned, not raised."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"input{i}" for i in range(len(contents))]
        for path, content in zip(paths, contents):
            path.write_bytes(content)
        try:
            return load(*paths)
        except KgeDenoiseError as exc:
            return exc


def exit_code(outcome):
    return EXIT_CODES[type(outcome)] if isinstance(outcome, KgeDenoiseError) else 0


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    train = [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (0, 1, 2), (1, 0, 3)]
    graph = make_graph(train, valid=[(2, 1, 3)], test=[(3, 0, 1)], n_entities=4, n_relations=2)
    directory = tmp_path_factory.mktemp("data")
    for split in ("train", "valid", "test"):
        write_triples(directory / f"{split}.txt", graph, getattr(graph, split))
    store = init_embeddings(4, 2, 2, TransE(), seed=0)
    save_store(directory / "model.ckpt", store)
    return directory


# A cheap run appended after the fuzzed lines: later lines win, so whatever
# the fuzzed lines set, a valid config trains one tiny epoch.
CHEAP_RUN = TrainConfig(dim=2, batch_size=4, pretrain_epochs=1, mode="plain", seed=1)


@settings(max_examples=300, deadline=None)
@given(text_file(config_line))
def test_parse_config_raises_only_package_errors(content):
    loads(parse_config, content)


@settings(max_examples=30, deadline=None)
@given(text_file(config_line))
def test_train_with_fuzzed_config_exits_with_a_documented_code(data_dir, content):
    content += b"\n" + format_config(CHEAP_RUN).encode()
    expected = exit_code(loads(parse_config, content))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.cfg"
        path.write_bytes(content)
        code = run_cli(["train", "--data", str(data_dir), "--config", str(path),
                        "--out", str(Path(tmp) / "out")])
    assert code == expected


@settings(max_examples=300, deadline=None)
@given(text_file(split_line), text_file(split_line), text_file(split_line))
def test_load_graph_raises_only_package_errors(train, valid, test):
    loads(load_graph, train, valid, test)


@settings(max_examples=30, deadline=None)
@given(text_file(split_line), st.sampled_from(["train", "valid", "test"]))
def test_inject_noise_with_fuzzed_split_exits_with_a_documented_code(data_dir, content, split):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "data"
        directory.mkdir()
        for name in ("train", "valid", "test"):
            (directory / f"{name}.txt").write_bytes(content if name == split else SMALL_SPLIT)
        code = run_cli(["inject-noise", "--rate", "0.5", "--seed", "1", "--in", str(directory),
                        "--out", str(Path(tmp) / "noisy")])
    assert code in (0, 2)


@settings(max_examples=300, deadline=None)
@given(text_file(flag_line), st.integers(0, 6))
def test_load_flags_raises_only_package_errors(content, expected):
    flags = loads(lambda path: load_flags(path, expected), content)
    if not isinstance(flags, KgeDenoiseError):
        assert flags.dtype == bool and flags.shape == (expected,)


@settings(max_examples=30, deadline=None)
@given(text_file(flag_line))
def test_evaluate_with_fuzzed_labels_exits_with_a_documented_code(data_dir, content):
    expected = exit_code(loads(lambda path: load_flags(path, 6), content))
    with tempfile.TemporaryDirectory() as tmp:
        labels = Path(tmp) / "labels.tsv"
        labels.write_bytes(content)
        code = run_cli(["evaluate", "--checkpoint", str(data_dir / "model.ckpt"),
                        "--graph", str(data_dir), "--labels", str(labels),
                        "--out", str(Path(tmp) / "report.json")])
    assert code == expected


@settings(max_examples=300, deadline=None)
@given(text_file(cluster_line))
def test_load_clusters_raises_only_package_errors(content):
    clusters = loads(lambda path: load_clusters(path, Vocabulary(["r0", "r1"])), content)
    if not isinstance(clusters, KgeDenoiseError):
        assert 1 <= clusters.k <= 2
        assert ((0 <= clusters.assignment) & (clusters.assignment < clusters.k)).all()


@settings(max_examples=30, deadline=None)
@given(text_file(cluster_line))
def test_mtrl_train_with_fuzzed_clusters_exits_with_a_documented_code(data_dir, content):
    vocab = Vocabulary(["r0", "r1"])
    expected = exit_code(loads(lambda path: load_clusters(path, vocab), content))
    config = CHEAP_RUN.replace(mode="mtrl", episodes=1, agent_warmup_episodes=1,
                               joint_kge_epochs=1, clusters_k=2)
    with tempfile.TemporaryDirectory() as tmp:
        clusters, config_path = Path(tmp) / "clusters.tsv", Path(tmp) / "train.cfg"
        clusters.write_bytes(content)
        config_path.write_text(format_config(config))
        code = run_cli(["train", "--data", str(data_dir), "--config", str(config_path),
                        "--clusters", str(clusters), "--out", str(Path(tmp) / "out")])
    assert code == expected


@pytest.mark.parametrize("load", [
    parse_config, lambda path: load_graph(path, path, path), lambda path: load_flags(path, 1),
    lambda path: load_clusters(path, Vocabulary(["r0"]))],
    ids=["config", "graph", "flags", "clusters"])
def test_non_utf8_and_missing_files_are_data_errors(load, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("r0\t0\né\n".encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8 text"):
        load(path)
    with pytest.raises(DataError, match="cannot read"):
        load(tmp_path / "missing.txt")
