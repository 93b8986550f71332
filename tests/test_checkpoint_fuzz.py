"""Forged model and policy checkpoints: the loaders raise only package errors.

Each example starts from a valid checkpoint, overwrites some header fields
with random or extreme values, and then keeps the body, truncates the file
anywhere (header included), appends bytes, or replaces the body by random
bytes of exactly the size the forged header declares, so that the checks
past the size check run too.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_graph
from kgedenoise.agent import PolicyParams, load_policy, save_policy
from kgedenoise.cli import run
from kgedenoise.errors import DataError, KgeDenoiseError
from kgedenoise.graph import write_triples
from kgedenoise.models import DistMult, RotatE, TransE, init_embeddings, load_store, save_store

N_ENTITIES, N_RELATIONS = 5, 2

MODEL_HEADER = struct.Struct("<4sIBBdIQQQQQ")
POLICY_HEADER = struct.Struct("<4sIBQQQ")

u8 = st.integers(0, 2 ** 8 - 1)
u32 = st.integers(0, 2 ** 32 - 1)
u64 = st.integers(0, 2 ** 64 - 1)
# Mostly small sizes, so that a forged header can still match a body; zero
# rows with a huge width declare no bytes at all.
size = st.one_of(st.sampled_from([0, 1, 2, 5]), st.integers(0, 12),
                 st.sampled_from([2 ** 31, 2 ** 40, 2 ** 59, 2 ** 61, 2 ** 63, 2 ** 64 - 1]), u64)
magic = st.sampled_from([b"KGDN", b"KGDP", b"\0\0\0\0"])
version = st.sampled_from([1, 0, 2, 2 ** 32 - 1])

MODEL_FIELDS = [magic, version, st.integers(0, 3) | u8, st.integers(0, 3) | u8,
                st.floats(), st.integers(0, 4) | u32, size, size, size,
                st.integers(0, 3) | u64, st.integers(0, 3) | u64]
POLICY_FIELDS = [magic, version, st.integers(0, 2) | u8, size, size, size]
# The size fields (n_ent, n_rel, dim and n_clusters, n_relations, state_dim)
# are the last three of the policy header and sit at 6-8 in the model header.
MODEL_SIZES, POLICY_SIZES = (6, 7, 8), (3, 4, 5)


def model_matrix_bytes(fields):
    _, _, code, _, _, _, n_ent, n_rel, dim, _, _ = fields
    width = 2 * dim if code == 2 else dim
    return 8 * 3 * (n_ent * width + n_rel * dim)


def policy_matrix_bytes(fields):
    _, _, _, n_clusters, n_relations, state_dim = fields
    return 8 * (n_clusters + n_relations) * state_dim


def model_checkpoint(kind):
    store = init_embeddings(N_ENTITIES, N_RELATIONS, 3, kind, seed=0)
    store.step = 2
    store.m_ent += 0.5
    with tempfile.TemporaryDirectory() as tmp:
        save_store(Path(tmp) / "model.ckpt", store)
        return (Path(tmp) / "model.ckpt").read_bytes()


def policy_checkpoint():
    params = PolicyParams("mtrl", np.full((2, 4), 0.5), np.full((N_RELATIONS, 4), -1.5))
    with tempfile.TemporaryDirectory() as tmp:
        save_policy(Path(tmp) / "policy.ckpt", params)
        return (Path(tmp) / "policy.ckpt").read_bytes()


MODEL_CHECKPOINTS = [model_checkpoint(kind) for kind in (TransE("l2"), DistMult(), RotatE())]
POLICY_CHECKPOINT = policy_checkpoint()


def forge(data, original, header, field_strategies, size_fields, matrix_bytes):
    """A forged copy of the checkpoint bytes ``original``."""
    fields = list(header.unpack_from(original))
    # Each size field half the time, and a few other fields, so that many
    # forgeries pass the earlier checks.
    forged_fields = {i for i in size_fields if data.draw(st.booleans())}
    forged_fields |= data.draw(st.sets(st.integers(0, len(fields) - 1), max_size=2))
    for i in sorted(forged_fields):
        fields[i] = data.draw(field_strategies[i])
    forged = header.pack(*fields) + original[header.size:]
    body = data.draw(st.sampled_from(["keep", "truncate", "append", "fit"]))
    if body == "truncate":
        forged = forged[:data.draw(st.integers(0, len(forged) - 1))]
    elif body == "append":
        forged += data.draw(st.binary(min_size=1, max_size=64))
    elif body == "fit" and matrix_bytes(fields) <= 2 ** 16:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        forged = forged[:header.size] + rng.bytes(matrix_bytes(fields))
    return forged


def load_forged(load, forged):
    """``load`` on a file holding ``forged``; a package error is returned, not raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "forged.ckpt"
        path.write_bytes(forged)
        try:
            return load(path)
        except KgeDenoiseError as exc:
            return exc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forged_model_checkpoint_raises_only_package_errors(data):
    original = data.draw(st.sampled_from(MODEL_CHECKPOINTS))
    load_forged(load_store, forge(data, original, MODEL_HEADER, MODEL_FIELDS, MODEL_SIZES,
                      model_matrix_bytes))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forged_policy_checkpoint_raises_only_package_errors(data):
    load_forged(load_policy,
                forge(data, POLICY_CHECKPOINT, POLICY_HEADER, POLICY_FIELDS, POLICY_SIZES,
                       policy_matrix_bytes))


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    train = [(i, i % N_RELATIONS, (i + 1) % N_ENTITIES) for i in range(N_ENTITIES)]
    graph = make_graph(train, valid=[(0, 1, 2)], test=[(1, 0, 3)],
                       n_entities=N_ENTITIES, n_relations=N_RELATIONS)
    directory = tmp_path_factory.mktemp("graph")
    for split in ("train", "valid", "test"):
        write_triples(directory / f"{split}.txt", graph, getattr(graph, split))
    return directory


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_forged_model_checkpoint_exits_two(graph_dir, data):
    original = data.draw(st.sampled_from(MODEL_CHECKPOINTS))
    forged = forge(data, original, MODEL_HEADER, MODEL_FIELDS, MODEL_SIZES,
                      model_matrix_bytes)
    loaded = load_forged(load_store, forged)
    assume(isinstance(loaded, DataError)
           or (loaded.n_entities, loaded.n_relations) != (N_ENTITIES, N_RELATIONS))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "forged.ckpt"
        checkpoint.write_bytes(forged)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["evaluate", "--checkpoint", str(checkpoint), "--graph", str(graph_dir),
                        "--out", str(Path(tmp) / "report.json")])
    assert code == 2
    assert "data error:" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("load, original", [(load_store, MODEL_CHECKPOINTS[2]),
                                            (load_policy, POLICY_CHECKPOINT)],
                         ids=["model", "policy"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_is_rejected(load, original, value):
    # A valid header and size; one float of the last matrix is not finite.
    forged = original[:-8] + struct.pack("<d", value)
    loaded = load_forged(load, forged)
    assert isinstance(loaded, DataError) and "non-finite value" in str(loaded)


@pytest.mark.parametrize("load, original, header, size_fields", [
    (load_store, MODEL_CHECKPOINTS[1], MODEL_HEADER, MODEL_SIZES),
    (load_policy, POLICY_CHECKPOINT, POLICY_HEADER, POLICY_SIZES),
], ids=["model", "policy"])
def test_zero_rows_of_huge_width_are_rejected(load, original, header, size_fields):
    # Zero rows declare no matrix bytes, so only the width check stops numpy
    # from failing to shape an empty matrix 2^61 columns wide.
    fields = list(header.unpack_from(original))
    for i, value in zip(size_fields, (0, 0, 2 ** 61)):
        fields[i] = value
    loaded = load_forged(load, header.pack(*fields))
    assert isinstance(loaded, DataError) and "dimension above the file size" in str(loaded)


@pytest.mark.parametrize("load", [load_store, load_policy], ids=["model", "policy"])
def test_unreadable_checkpoint_is_a_data_error(tmp_path, load):
    for path in (tmp_path / "missing.ckpt", tmp_path):  # no such file; a directory
        with pytest.raises(DataError, match=f"cannot read {path}: "):
            load(path)
