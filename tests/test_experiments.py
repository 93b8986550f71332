import pytest

from kgedenoise.errors import UsageError
from kgedenoise.experiments import PRESETS, evaluate_store, run_file_experiment
from kgedenoise.graph import load_graph_dir, write_triples
from kgedenoise.noise import inject_noise, make_classification_negatives
from kgedenoise.seeding import seed_for
from kgedenoise.synth import generate_shift_graph
from kgedenoise.trainer import joint_train, model_kind, pretrain_kge


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    preset = PRESETS["synthetic-tiny"]
    clean = generate_shift_graph(
        grid_x=preset.grid_x, grid_y=preset.grid_y, n_relations=preset.n_relations,
        train_per_relation=preset.train_per_relation,
        valid_per_relation=preset.valid_per_relation,
        test_per_relation=preset.test_per_relation, seed=11)
    directory = tmp_path_factory.mktemp("tiny")
    for split in ("train", "valid", "test"):
        write_triples(directory / f"{split}.txt", clean, getattr(clean, split))
    return directory


@pytest.mark.parametrize("mode", ["plain", "strl", "mtrl"])
def test_file_experiment_equals_the_stages_run_by_hand(tiny_dir, mode):
    config = PRESETS["synthetic-tiny"].config.replace(seed=5, mode=mode)
    report = run_file_experiment(tiny_dir, config, noise_rate=0.2)

    graph = inject_noise(load_graph_dir(tiny_dir), 0.2, seed_for(5, "noise"))
    negatives = make_classification_negatives(graph, seed_for(5, "class-negatives"))
    kind = model_kind(config)
    plain = pretrain_kge(graph, kind, config.replace(seed=seed_for(5, "plain")))
    models = {"plain": evaluate_store(plain.store, graph, negatives, None)}
    if mode != "plain":
        joint = joint_train(graph, kind, mode, config.replace(seed=seed_for(5, "joint")))
        models[mode] = evaluate_store(joint.store, graph, negatives, joint.mask)

    assert report == {"data_dir": str(tiny_dir), "noise_rate": 0.2, "models": models}
    assert set(report["models"]) == ({"plain"} if mode == "plain" else {"plain", mode})
    assert graph.train_labels.any()  # the noise-detection metrics are in the compared reports


@pytest.mark.parametrize("mode", ["xscore"])
def test_file_experiment_rejects_modes_it_cannot_run(tiny_dir, mode):
    # Only plain, strl and mtrl have a file-experiment path.
    config = PRESETS["synthetic-tiny"].config.replace(seed=5, mode=mode)
    with pytest.raises(UsageError, match=f"plain, strl or mtrl, not '{mode}'"):
        run_file_experiment(tiny_dir, config, noise_rate=0.2)
