import numpy as np
import pytest

from kgedenoise import experiments
from kgedenoise.atomic import atomic_write
from kgedenoise.errors import DataError
from kgedenoise.graph import write_flags
from kgedenoise.models import TransE, init_embeddings, load_store, save_store


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as handle:
        handle.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("binary", [False, True])
def test_unwritable_target_is_a_data_error(tmp_path, binary):
    # The target's directory is a regular file, so it cannot be made.
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "out.txt"
    with pytest.raises(DataError, match=f"cannot create directory {tmp_path / 'file'}: "):
        with atomic_write(path, binary=binary):
            pass
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_failed_report_write_keeps_old_file_and_no_temp(tmp_path):
    path = tmp_path / "report.json"
    experiments.write_report({"a": 1}, path)
    before = path.read_bytes()
    # json.dump streams "a" before it meets the unserialisable value.
    with pytest.raises(TypeError):
        experiments.write_report({"a": 2, "b": object()}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_failed_checkpoint_write_keeps_old_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    store = init_embeddings(8, 2, 4, TransE(), seed=0)
    save_store(path, store)
    before = path.read_bytes()
    # Five matrices are written before the last one fails to convert.
    store.v_rel = np.array([["x"]], dtype=object)
    with pytest.raises(ValueError):
        save_store(path, store)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    assert load_store(path).step == 0


def test_failed_flag_write_keeps_old_sidecar(tmp_path):
    path = tmp_path / "mask.tsv"
    write_flags(path, np.array([True, False]))
    with pytest.raises(ValueError):
        write_flags(path, [1, 0, "x"])
    assert path.read_text() == "1\n0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["mask.tsv"]
