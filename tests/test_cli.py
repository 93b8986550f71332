import json

import numpy as np
import pytest

from conftest import make_graph
from kgedenoise import experiments, models
from kgedenoise.cli import run
from kgedenoise.config import TrainConfig, format_config, parse_config, write_config
from kgedenoise.errors import DataError
from kgedenoise.graph import write_triples
from kgedenoise.models import TransE, init_embeddings, save_store


@pytest.fixture
def data_dir(tmp_path):
    train = [(i, 0, (i + 1) % 8) for i in range(8)] + [(i, 1, (i + 2) % 8) for i in range(6)]
    graph = make_graph(train, valid=[(6, 1, 0), (0, 0, 1)], test=[(7, 1, 1), (2, 0, 3)],
                       n_entities=8, n_relations=2)
    d = tmp_path / "data"
    d.mkdir()
    write_triples(d / "train.txt", graph, graph.train)
    write_triples(d / "valid.txt", graph, graph.valid)
    write_triples(d / "test.txt", graph, graph.test)
    return d


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def config_file(tmp_path, **overrides):
    values = dict(model="transe", dim=4, batch_size=8, learning_rate=0.01,
                  pretrain_epochs=3, episodes=1, agent_warmup_episodes=1,
                  agent_mimic_steps=10, clusters_k=2, seed=5)
    values.update(overrides)
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def test_inject_noise_is_byte_deterministic(data_dir, tmp_path):
    out1, out2 = tmp_path / "noisy1", tmp_path / "noisy2"
    for out in (out1, out2):
        code = run(["inject-noise", "--rate", "0.25", "--seed", "7",
                    "--in", str(data_dir), "--out", str(out)])
        assert code == 0
    assert read_all(out1) == read_all(out2)
    labels = (out1 / "noise_labels.tsv").read_text().splitlines()
    assert labels.count("1") == 3  # floor(0.25 * 14)


def test_inject_noise_overwrites_idempotently(data_dir, tmp_path):
    out = tmp_path / "noisy"
    run(["inject-noise", "--rate", "0.25", "--seed", "7", "--in", str(data_dir),
         "--out", str(out)])
    first = read_all(out)
    run(["inject-noise", "--rate", "0.25", "--seed", "7", "--in", str(data_dir),
         "--out", str(out)])
    assert read_all(out) == first


def test_train_and_evaluate_round_trip(data_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--mode", "plain",
                "--config", str(config_file(tmp_path)), "--out", str(out)])
    assert code == 0
    assert (out / "model.ckpt").exists()
    assert (out / "config_used.cfg").exists()
    mask_lines = (out / "selection_mask.tsv").read_text().splitlines()
    assert mask_lines == ["1"] * 14

    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--checkpoint", str(out / "model.ckpt"),
                "--graph", str(data_dir), "--seed", "3", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["mrr"] <= 1.0
    assert set(report["hits"]) == {"1", "3", "10"}


def test_evaluate_untrained_checkpoint_finite(data_dir, tmp_path):
    store = init_embeddings(8, 2, 4, TransE(), seed=0)
    ckpt = tmp_path / "random.ckpt"
    save_store(ckpt, store)
    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--checkpoint", str(ckpt), "--graph", str(data_dir),
                "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert np.isfinite(report["mrr"])
    assert np.isfinite(report["classification_accuracy"])


@pytest.mark.parametrize("n_entities, n_relations", [(4, 2), (20, 2), (8, 3)],
                         ids=["fewer-entities", "more-entities", "more-relations"])
def test_evaluate_checkpoint_of_another_graph_exits_two(data_dir, tmp_path, capsys,
                                                        n_entities, n_relations):
    # data_dir has 8 entities and 2 relations. A smaller checkpoint used to
    # end in an IndexError; a larger one scored rows the graph never named.
    ckpt = tmp_path / "other.ckpt"
    save_store(ckpt, init_embeddings(n_entities, n_relations, 4, TransE(), seed=0))
    code = run(["evaluate", "--checkpoint", str(ckpt), "--graph", str(data_dir),
                "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"data error: checkpoint has {n_entities} entities and {n_relations} relations; "
            "the data directory has 8 and 2") in err
    assert "Traceback" not in err and not (tmp_path / "report.json").exists()


def test_evaluate_non_finite_checkpoint_exits_two(data_dir, tmp_path, capsys):
    # NaN entity rows used to exit 0 with "mrr": Infinity, which is not JSON.
    store = init_embeddings(8, 2, 4, TransE(), seed=0)
    store.entities[:] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_store(ckpt, store)
    code = run(["evaluate", "--checkpoint", str(ckpt), "--graph", str(data_dir),
                "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2 and "checkpoint holds a non-finite value" in err
    assert "Traceback" not in err and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(data_dir, tmp_path, capsys, count):
    code = run(["--threads", count, "inject-noise", "--rate", "0.25", "--in", str(data_dir),
                "--out", str(tmp_path / "noisy")])
    assert code == 1 and "--threads: thread count must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "noisy").exists()


def test_threads_above_usable_cpus_is_clamped(data_dir, tmp_path, monkeypatch):
    # No pool is started: only the cap is checked.
    monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(models, "_max_threads", None)
    monkeypatch.setattr(models, "_helpers", None)
    monkeypatch.setattr(models, "_pool", None)
    code = run(["--threads", "64", "inject-noise", "--rate", "0.25", "--in", str(data_dir),
                "--out", str(tmp_path / "noisy")])
    assert code == 0 and models._max_threads == 64 and models._step_threads() == 2
    assert models._pool is None
    run(["--threads", "1", "inject-noise", "--rate", "0.25", "--in", str(data_dir),
         "--out", str(tmp_path / "noisy")])
    assert models._step_threads() == 1


def test_train_strl_writes_policy_and_mask(data_dir, tmp_path):
    out = tmp_path / "strl"
    code = run(["train", "--data", str(data_dir), "--mode", "strl",
                "--config", str(config_file(tmp_path)), "--out", str(out)])
    assert code == 0
    assert (out / "policy.ckpt").exists()
    mask = (out / "selection_mask.tsv").read_text().splitlines()
    assert len(mask) == 14


def test_train_xscore_then_evaluate_with_labels(data_dir, tmp_path):
    noisy = tmp_path / "noisy"
    run(["inject-noise", "--rate", "0.25", "--seed", "7", "--in", str(data_dir),
         "--out", str(noisy)])
    out = tmp_path / "xscore"
    code = run(["train", "--data", str(noisy), "--mode", "xscore",
                "--config", str(config_file(tmp_path, delta=0.2)), "--out", str(out)])
    assert code == 0
    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--checkpoint", str(out / "model.ckpt"),
                "--graph", str(noisy), "--labels", str(noisy / "noise_labels.tsv"),
                "--mask", str(out / "selection_mask.tsv"), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "noise_f1" in report and "noise_f1_score_sweep" in report


def test_evaluate_clean_labels_leaves_out_noise_f1(data_dir, tmp_path):
    ckpt = tmp_path / "random.ckpt"
    save_store(ckpt, init_embeddings(8, 2, 4, TransE(), seed=0))
    labels, mask = tmp_path / "labels.tsv", tmp_path / "mask.tsv"
    labels.write_text("0\n" * 14)
    mask.write_text("1\n" * 14)
    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--checkpoint", str(ckpt), "--graph", str(data_dir),
                "--labels", str(labels), "--mask", str(mask), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert not any(key.startswith("noise_f1") for key in report)
    assert np.isfinite(report["mrr"])


def test_cluster_command(data_dir, tmp_path):
    out = tmp_path / "plain"
    run(["train", "--data", str(data_dir), "--mode", "plain",
         "--config", str(config_file(tmp_path)), "--out", str(out)])
    clusters = tmp_path / "clusters.tsv"
    code = run(["cluster", "--checkpoint", str(out / "model.ckpt"),
                "--data", str(data_dir), "--k", "2", "--seed", "1",
                "--out", str(clusters)])
    assert code == 0
    lines = clusters.read_text().splitlines()
    assert len(lines) == 2
    assert all("\t" in line for line in lines)


def test_experiment_preset_smoke(tmp_path):
    report_path = tmp_path / "exp.json"
    code = run(["experiment", "--preset", "synthetic-tiny", "--seed", "3",
                "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["preset"] == "synthetic-tiny"
    assert {"plain", "strl", "xscore", "xscore_matched"} <= set(report["models"])


def test_preset_default_config_is_fresh_default():
    first = experiments.SyntheticPreset(name="x")
    second = experiments.SyntheticPreset(name="y")
    assert first.config == TrainConfig()
    assert first.config is not second.config


def test_unknown_flag_exits_one(capsys):
    assert run(["train", "--nonsense"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_preset_exits_one(tmp_path):
    assert run(["experiment", "--preset", "nope", "--out", str(tmp_path / "r.json")]) == 1


def test_missing_data_exits_two(tmp_path):
    assert run(["train", "--data", str(tmp_path / "missing"), "--mode", "plain",
                "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0), ("dim", 0), ("k_negatives", 0), ("clusters_k", 0),
    ("pretrain_epochs", -1), ("episodes", -1), ("agent_warmup_episodes", -1),
    ("joint_kge_epochs", -1), ("agent_mimic_steps", -1), ("relation_cap", -1),
    ("learning_rate", 0.0), ("joint_learning_rate", -0.001), ("agent_learning_rate", -0.01),
    ("norm", "l3"), ("agent_mimic_quantile", 1.5),
    ("margin", "nan"), ("margin", -1.0), ("eta", "nan"), ("eta", "inf"),
    ("l2_coeff", -1e-5), ("alpha", "nan"), ("alpha", -0.5), ("lambda1", -0.001),
    ("lambda2", "-inf"), ("agent_mimic_sharpness", -1.0), ("agent_mimic_sharpness", "nan"),
    ("agent_baseline_decay", 1.5), ("agent_baseline_decay", "nan"),
    ("agent_learning_rate", "nan"), ("learning_rate", "inf"), ("delta", "nan"),
])
def test_out_of_range_config_exits_two(data_dir, tmp_path, capsys, key, value):
    code = run(["train", "--data", str(data_dir), "--mode", "plain",
                "--config", str(config_file(tmp_path, **{key: value})),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: {key} must be" in err
    assert "Traceback" not in err


def test_evaluate_forged_checkpoint_exits_two(data_dir, tmp_path, capsys):
    ckpt = tmp_path / "forged.ckpt"
    save_store(ckpt, init_embeddings(8, 2, 4, TransE(), seed=0))
    data = bytearray(ckpt.read_bytes())
    data[22:30] = (2 ** 40).to_bytes(8, "little")  # n_ent u64 of the model header
    ckpt.write_bytes(bytes(data))
    code = run(["evaluate", "--checkpoint", str(ckpt), "--graph", str(data_dir),
                "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "data error:" in err and "Traceback" not in err


def test_config_round_trip(tmp_path):
    config = TrainConfig(dim=12, margin=4.5, model="rotate", seed=9)
    path = tmp_path / "c.cfg"
    write_config(path, config)
    assert parse_config(path) == config
    assert "dim = 12" in format_config(config)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 3\n")
    with pytest.raises(DataError):
        parse_config(path)


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\ndim = 6  # inline\nmodel = distmult\n")
    config = parse_config(path)
    assert config.dim == 6 and config.model == "distmult"
