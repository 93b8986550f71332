import json

import numpy as np
import pytest

from conftest import make_graph
from kgedenoise.cli import run
from kgedenoise.config import TrainConfig, format_config, parse_config, write_config
from kgedenoise.errors import DataError
from kgedenoise.evaluation import link_prediction
from kgedenoise.experiments import PRESETS
from kgedenoise.graph import SPLITS, load_graph_dir, write_triples
from kgedenoise.models import TransE, init_embeddings, load_store, save_store
from kgedenoise.seeding import seed_for
from kgedenoise.synth import generate_shift_graph


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


def test_per_relation_matches_a_recomputation_from_ranks(data_dir, tmp_path, plain_checkpoint):
    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--checkpoint", str(plain_checkpoint), "--graph", str(data_dir),
                "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    graph = load_graph_dir(data_dir)
    store = load_store(plain_checkpoint)
    ranks = link_prediction(store.kind, store, graph).ranks
    # oracle: gather each relation's (head, tail) ranks in test order
    by_relation = {}
    for i, r in enumerate(graph.test[:, 1].tolist()):
        by_relation.setdefault(r, []).extend(ranks[2 * i:2 * i + 2].tolist())
    expected = {str(r): {"mrr": float((1.0 / np.asarray(rs)).mean()),
                         "hits10": float((np.asarray(rs) <= 10).mean()),
                         "queries": float(len(rs))}
                for r, rs in sorted(by_relation.items())}
    assert report["per_relation"] == expected


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


@pytest.mark.parametrize("command, args", [
    ("evaluate", ["--graph", "{data}", "--out", "{out}/report.json"]),
    ("cluster", ["--data", "{data}", "--k", "2", "--out", "{out}/clusters.tsv"]),
], ids=["evaluate", "cluster"])
def test_missing_checkpoint_exits_two(data_dir, tmp_path, capsys, command, args):
    missing = tmp_path / "missing.ckpt"
    code = run([command, "--checkpoint", str(missing),
                *(arg.format(data=data_dir, out=tmp_path) for arg in args)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: cannot read {missing}: No such file or directory" in err
    assert "Traceback" not in err and sorted(tmp_path.iterdir()) == [data_dir]


def test_removed_threads_flag_is_a_usage_error(data_dir, tmp_path, capsys):
    # The CPU affinity mask (taskset -c ...) is the only cap on the chunk pool.
    out = tmp_path / "noisy"
    code = run(["--threads", "2", "inject-noise", "--rate", "0.25", "--in", str(data_dir),
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and "usage error:" in err
    assert "Traceback" not in err and not out.exists()


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
    # One row per epoch of the retraining that made the saved store.
    curve = (out / "training_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,loss" and len(curve) == 1 + 3  # pretrain_epochs = 3
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


@pytest.mark.parametrize("command, args", [
    ("inject-noise", ["--rate", "0.25", "--in", "{data}", "--out", "{out}"]),
    ("cluster", ["--checkpoint", "{ckpt}", "--data", "{data}", "--k", "2", "--out", "{out}"]),
    ("train", ["--data", "{data}", "--mode", "plain", "--out", "{out}"]),
    ("evaluate", ["--checkpoint", "{ckpt}", "--graph", "{data}", "--out", "{out}"]),
    ("experiment", ["--preset", "synthetic-tiny", "--out", "{out}"]),
], ids=["inject-noise", "cluster", "train", "evaluate", "experiment"])
def test_negative_seed_exits_one(data_dir, tmp_path, plain_checkpoint, capsys, command, args):
    # numpy's generators reject a negative seed; inject-noise and cluster used
    # to end in its ValueError traceback.
    out = tmp_path / "out"
    code = run([command, "--seed", "-1",
                *(arg.format(data=data_dir, ckpt=plain_checkpoint, out=out) for arg in args)])
    err = capsys.readouterr().err
    assert code == 1 and "usage error: argument --seed: must be >= 0, got -1" in err
    assert "Traceback" not in err and not out.exists()


def test_unknown_flag_exits_one(capsys):
    assert run(["train", "--nonsense"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_preset_exits_one(tmp_path):
    assert run(["experiment", "--preset", "nope", "--out", str(tmp_path / "r.json")]) == 1


def test_missing_data_exits_two(tmp_path):
    assert run(["train", "--data", str(tmp_path / "missing"), "--mode", "plain",
                "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("mode", ["plain", "strl", "xscore"])
def test_train_clusters_outside_mtrl_exits_one(data_dir, tmp_path, capsys, mode):
    out = tmp_path / "out"
    code = run(["train", "--data", str(data_dir), "--mode", mode,
                "--config", str(config_file(tmp_path)),
                "--clusters", str(tmp_path / "missing.tsv"), "--out", str(out)])
    assert code == 1
    assert "usage error: --clusters" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_mask_without_labels_exits_one(data_dir, tmp_path, capsys):
    ckpt = tmp_path / "random.ckpt"
    save_store(ckpt, init_embeddings(8, 2, 4, TransE(), seed=0))
    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--checkpoint", str(ckpt), "--graph", str(data_dir),
                "--mask", str(tmp_path / "nonexistent"), "--out", str(report_path)])
    assert code == 1
    assert "usage error: --mask" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("command, args", [
    ("train", ["--data", "{data}", "--mode", "plain", "--out", "{out}"]),
    ("inject-noise", ["--rate", "0.25", "--in", "{data}", "--out", "{out}"]),
], ids=["train", "inject-noise"])
def test_missing_split_file_exits_two(data_dir, tmp_path, capsys, command, args):
    (data_dir / "valid.txt").unlink()
    out = tmp_path / "out"
    code = run([command, *(arg.format(data=data_dir, out=out) for arg in args)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: cannot read {data_dir / 'valid.txt'}: No such file or directory" in err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture
def plain_checkpoint(tmp_path):
    ckpt = tmp_path / "plain.ckpt"
    save_store(ckpt, init_embeddings(8, 2, 4, TransE(), seed=0))
    return ckpt


@pytest.mark.parametrize("command, args", [
    ("evaluate", ["--graph", "{data}"]),
    ("cluster", ["--data", "{data}", "--k", "2"]),
], ids=["evaluate", "cluster"])
def test_output_into_a_missing_directory_is_created(data_dir, tmp_path, plain_checkpoint,
                                                    command, args):
    out = tmp_path / "nodir" / "sub" / "output"
    code = run([command, "--checkpoint", str(plain_checkpoint),
                *(arg.format(data=data_dir) for arg in args), "--out", str(out)])
    assert code == 0 and out.read_text()
    assert [p.name for p in out.parent.iterdir()] == ["output"]


@pytest.mark.parametrize("command, args", [
    ("evaluate", ["--graph", "{data}"]),
    ("cluster", ["--data", "{data}", "--k", "2"]),
], ids=["evaluate", "cluster"])
@pytest.mark.parametrize("under", ["file", "file/sub"])
def test_output_under_a_regular_file_exits_two(data_dir, tmp_path, plain_checkpoint, capsys,
                                               command, args, under):
    (tmp_path / "file").write_text("")
    code = run([command, "--checkpoint", str(plain_checkpoint),
                *(arg.format(data=data_dir) for arg in args),
                "--out", str(tmp_path / under / "output")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: cannot create directory {tmp_path / under}" in err
    assert "Traceback" not in err and (tmp_path / "file").read_text() == ""


def test_output_onto_an_existing_directory_exits_two(data_dir, tmp_path, plain_checkpoint,
                                                     capsys):
    out = tmp_path / "out"
    out.mkdir()
    code = run(["evaluate", "--checkpoint", str(plain_checkpoint), "--graph", str(data_dir),
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: cannot write {out}: Is a directory" in err
    assert "Traceback" not in err
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
    assert list(out.iterdir()) == []


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
    ("seed", -1),
])
def test_out_of_range_config_exits_two(data_dir, tmp_path, capsys, key, value):
    code = run(["train", "--data", str(data_dir), "--mode", "plain",
                "--config", str(config_file(tmp_path, **{key: value})),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: {key} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("model", "transr"), ("mode", "mtlr")])
def test_unknown_config_name_exits_two(data_dir, tmp_path, capsys, key, value):
    # config.MODELS and config.MODES are the only lists of names.
    code = run(["train", "--data", str(data_dir),
                "--config", str(config_file(tmp_path, **{key: value})),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: unknown {key} '{value}'" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_repeated_config_key_exits_two(data_dir, tmp_path, capsys):
    # The second line used to win silently.
    path = config_file(tmp_path)
    path.write_text(path.read_text() + "dim = 6\n")
    code = run(["train", "--data", str(data_dir), "--mode", "plain", "--config", str(path),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: {path}:11: config key 'dim' is set twice" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, choices", [
    ("--model", "transr", "transe, distmult, rotate)"),
    ("--mode", "mtlr", "plain, strl, mtrl, xscore)"),
], ids=["model", "mode"])
def test_unknown_flag_choice_exits_one(data_dir, tmp_path, capsys, flag, value, choices):
    code = run(["train", "--data", str(data_dir), flag, value, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"usage error: argument {flag}: invalid choice: '{value}' (choose from " in err
    # Python releases differ in whether argparse quotes the choices.
    assert err.split("choose from ")[1].replace("'", "").startswith(choices)
    assert "Traceback" not in err and not (tmp_path / "out").exists()


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


def test_cluster_checkpoint_of_another_relation_count_exits_two(data_dir, tmp_path, capsys):
    ckpt = tmp_path / "three-relations.ckpt"
    save_store(ckpt, init_embeddings(8, 3, 4, TransE(), seed=0))  # the data has 2 relations
    out = tmp_path / "clusters.tsv"
    code = run(["cluster", "--checkpoint", str(ckpt), "--data", str(data_dir), "--k", "2",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "data error: checkpoint relation count does not match the data directory" in err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture
def tiny_dir(tmp_path):
    """The synthetic-tiny preset's clean splits, seed 7."""
    preset = PRESETS["synthetic-tiny"]
    clean = generate_shift_graph(
        grid_x=preset.grid_x, grid_y=preset.grid_y, n_relations=preset.n_relations,
        train_per_relation=preset.train_per_relation,
        valid_per_relation=preset.valid_per_relation,
        test_per_relation=preset.test_per_relation, seed=seed_for(7, "synthgraph"))
    data = tmp_path / "tiny"
    data.mkdir()
    for split in SPLITS:
        write_triples(data / f"{split}.txt", clean, getattr(clean, split))
    return data


def test_diverging_pretraining_exits_three(tiny_dir, tmp_path, capsys):
    config = config_file(tmp_path, model="distmult", dim=8, batch_size=16, pretrain_epochs=5,
                         learning_rate=1e300)
    out = tmp_path / "out"
    code = run(["train", "--data", str(tiny_dir), "--mode", "plain", "--config", str(config),
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines()[-1].startswith(
        "numeric failure: pre-training diverged at epoch 0: ")
    assert "Traceback" not in err and not (out / "model.ckpt").exists()


@pytest.mark.parametrize("mode", ["plain", "xscore"])
def test_overflowing_transe_projection_exits_three(data_dir, tmp_path, capsys, mode):
    # A step of 1e300 leaves finite entries whose squared norm overflows, so
    # projecting the rows would zero them.
    out = tmp_path / "out"
    code = run(["train", "--data", str(data_dir), "--mode", mode,
                "--config", str(config_file(tmp_path, learning_rate=1e300)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines()[-1].startswith(
        "numeric failure: pre-training diverged at epoch 0: ")
    assert "Traceback" not in err and not (out / "model.ckpt").exists()


def test_diverging_shared_weight_exits_three(tiny_dir, tmp_path, capsys):
    # Without the score-mimic warm start the relation weights start at zero,
    # so a cluster's shared weight overflows before any relation's does.
    config = config_file(tmp_path, agent_learning_rate=1e300, agent_mimic_steps=0,
                         agent_warmup_episodes=1, episodes=1)
    out = tmp_path / "out"
    code = run(["train", "--data", str(tiny_dir), "--mode", "mtrl", "--config", str(config),
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines()[-1] == "numeric failure: non-finite shared weight for cluster 0"
    assert "Traceback" not in err and not (out / "model.ckpt").exists()


def test_train_flags_override_the_config_file(data_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--mode", "plain", "--model", "distmult",
                "--seed", "9", "--config", str(config_file(tmp_path)), "--out", str(out)])
    assert code == 0
    used = parse_config(out / "config_used.cfg")
    assert used == parse_config(config_file(tmp_path)).replace(model="distmult", seed=9)


def test_inject_noise_rate_above_one_exits_two(data_dir, tmp_path, capsys):
    out = tmp_path / "noisy"
    code = run(["inject-noise", "--rate", "1.5", "--in", str(data_dir), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "data error: noise rate must lie in [0, 1]" in err
    assert "Traceback" not in err and not out.exists()


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
