import hashlib
from unittest import mock

import numpy as np
import pytest

from conftest import chunk_threads, make_graph, random_graph
from kgedenoise import experiments, models, trainer
from kgedenoise.agent import PolicyParams, Trajectory, state_dim_for
from kgedenoise.config import TrainConfig
from kgedenoise.errors import DataError
from kgedenoise.graph import KnowledgeGraph, load_flags, write_flags
from kgedenoise.models import TransE, init_embeddings
from kgedenoise.noise import inject_noise
from kgedenoise.seeding import seed_for
from kgedenoise.trainer import (RewardBaselines, joint_train, model_kind,
                                pretrain_agents, pretrain_kge, run_kge_epoch,
                                write_training_curve, xscore_baseline)


def ten_triple_graph():
    train = [(i, 0, i + 1) for i in range(10)]
    valid = [(0, 0, 2)]
    test = [(1, 0, 3)]
    return make_graph(train, valid, test, n_entities=11, n_relations=1)


def small_config(**overrides):
    base = dict(model="transe", dim=8, norm="l1", margin=1.0, batch_size=8,
                learning_rate=0.01, joint_learning_rate=0.005, pretrain_epochs=5,
                episodes=2, agent_warmup_episodes=2, agent_learning_rate=0.01,
                alpha=0.05, lambda1=0.001, lambda2=0.01, clusters_k=2,
                joint_kge_epochs=1, delta=0.1, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def stores_equal(a, b):
    return (np.array_equal(a.entities, b.entities)
            and np.array_equal(a.relations, b.relations)
            and np.array_equal(a.m_ent, b.m_ent)
            and np.array_equal(a.v_rel, b.v_rel)
            and a.step == b.step)


# -- pre-training --------------------------------------------------------------------------


def test_zero_epochs_returns_initial_store():
    graph = ten_triple_graph()
    config = small_config(pretrain_epochs=0)
    kind = model_kind(config)
    result = pretrain_kge(graph, kind, config)
    seed = seed_for(config.seed, "pretrain")
    fresh = init_embeddings(graph.n_entities, graph.n_relations, config.dim, kind,
                            seed_for(seed, "init"))
    assert stores_equal(result.store, fresh)
    assert result.losses == []


def test_epoch_cap_clamped_with_warning(caplog):
    graph = ten_triple_graph()
    config = small_config(pretrain_epochs=200, dim=2)
    with caplog.at_level("WARNING"):
        result = pretrain_kge(graph, model_kind(config), config)
    assert len(result.losses) == 100
    assert "clamped" in caplog.text


def test_loss_descends_on_tiny_clean_graph():
    graph = ten_triple_graph()
    config = small_config(pretrain_epochs=100, dim=8, learning_rate=0.01)
    result = pretrain_kge(graph, model_kind(config), config)
    assert result.losses[-1] <= result.losses[0]


def test_pretrain_deterministic():
    graph = ten_triple_graph()
    config = small_config()
    a = pretrain_kge(graph, model_kind(config), config)
    b = pretrain_kge(graph, model_kind(config), config)
    assert stores_equal(a.store, b.store)
    assert a.losses == b.losses


def test_translation_rows_unit_norm_after_training():
    graph = ten_triple_graph()
    config = small_config(pretrain_epochs=3)
    result = pretrain_kge(graph, model_kind(config), config)
    norms = np.linalg.norm(result.store.entities, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_projection_keeps_the_bits_of_the_masked_divide(seed):
    # Rows of +0.0, of -0.0, of both, and of magnitudes over 16 decades.
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-8, 8, (40, 7))
    block[rng.random(40) < 0.3] = 0.0
    block[rng.random(40) < 0.3] = -0.0
    block[rng.random((40, 7)) < 0.2] *= -0.0
    expected = block.copy()
    norms = np.sqrt((expected ** 2).sum(axis=1, keepdims=True))
    np.divide(expected, norms, out=expected, where=norms > 0.0)
    assert (np.square(block).sum(axis=1) == 0.0).any()
    out = trainer._normalize_entity_rows(block)
    assert out is block
    assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))


def test_empty_train_set_rejected():
    graph = ten_triple_graph()
    config = small_config()
    with pytest.raises(DataError):
        run_kge_epoch(model_kind(config), init_embeddings(11, 1, 4, TransE(), 0), graph,
                      np.zeros((0, 3), dtype=np.int64), 0.001, 4,
                      np.random.default_rng(0))


# -- agent warm-up ---------------------------------------------------------------------------


def test_zero_warmup_leaves_params_unchanged():
    graph = ten_triple_graph()
    config = small_config(agent_warmup_episodes=0)  # mimic off by default
    store = pretrain_kge(graph, model_kind(config), config).store
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    pretrain_agents(graph, store, params, None, config)
    assert np.all(params.u == 0.0) and np.all(params.v == 0.0)


def test_warmup_freezes_store_bitwise():
    graph = ten_triple_graph()
    config = small_config(agent_warmup_episodes=4, agent_mimic_steps=50)
    store = pretrain_kge(graph, model_kind(config), config).store
    snapshot = store.copy()
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    pretrain_agents(graph, store, params, None, config)
    assert stores_equal(store, snapshot)
    assert not np.all(params.v == 0.0)


def test_warmup_deterministic():
    graph = ten_triple_graph()
    config = small_config(agent_warmup_episodes=3, agent_mimic_steps=20)
    store = pretrain_kge(graph, model_kind(config), config).store

    def run():
        params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
        pretrain_agents(graph, store, params, None, config)
        return params

    a, b = run(), run()
    assert np.array_equal(a.v, b.v)


def reference_mimic(graph, store, params, config):
    """The score-mimic fit one relation at a time: the reference for the
    lockstep groups."""
    from scipy.special import expit

    from kgedenoise.agent import policy_states
    kind = store.kind
    for r in range(graph.n_relations):
        positions = graph.relation_positions(r)
        if len(positions) == 0:
            continue
        triples = graph.train[positions]
        heads, tails = store.entities[triples[:, 0]], store.entities[triples[:, 2]]
        zeros = np.zeros_like(heads)
        states = policy_states(models.relation_features(kind, store, np.array([r]))[0],
                               heads, tails, zeros, zeros)
        scores = models.score_batch(kind, store, triples)
        keep = (scores >= np.quantile(scores, config.agent_mimic_quantile)).astype(np.float64)
        v = params.v[r].copy()
        m = np.zeros_like(v)
        s2 = np.zeros_like(v)
        for step in range(1, config.agent_mimic_steps + 1):
            grad = states.T @ (keep - expit(states @ v)) / len(keep) - 2e-5 * v
            m = 0.9 * m + 0.1 * grad
            s2 = 0.999 * s2 + 0.001 * grad * grad
            v += 0.02 * (m / (1.0 - 0.9 ** step)) / (np.sqrt(s2 / (1.0 - 0.999 ** step)) + 1e-8)
        params.v[r] = v * config.agent_mimic_sharpness


@pytest.mark.parametrize("model", ["transe", "rotate"])
@pytest.mark.parametrize("budget", [1, 10_000, 1 << 20, 1 << 30])
def test_grouped_mimic_fit_is_bitwise_the_per_relation_fit(model, budget):
    # Relation 2 has no train triple; the others hold 1 to 30, whose states
    # take 320 (TransE) or 640 (RotatE) bytes a triple.
    rng = np.random.default_rng(4)
    train = [(int(rng.integers(40)), r, int(rng.integers(40)))
             for r, count in ((0, 30), (1, 1), (3, 12), (4, 25)) for _ in range(count)]
    graph = make_graph(train, [(0, 2, 1)], [(1, 2, 0)], n_entities=40, n_relations=5)
    config = small_config(model=model, agent_mimic_steps=40, agent_mimic_sharpness=3.0)
    store = pretrain_kge(graph, model_kind(config), config).store
    runs = []
    for fit in (trainer.mimic_score_filter, reference_mimic):
        params = PolicyParams.zeros("strl", 1, graph.n_relations, state_dim_for(store))
        start = np.random.default_rng(5).normal(size=params.v.shape)
        params.v[:] = start
        groups = []
        real = trainer._fit_mimic

        def recording(*args):
            groups.append(list(args[-1]))
            return real(*args)

        with mock.patch.object(trainer, "_MIMIC_GROUP_BYTES", budget), \
                mock.patch.object(trainer, "_fit_mimic", recording):
            fit(graph, store, params, config)
        runs.append((params.v.copy(), groups))
    (v, groups), (expected, _) = runs
    assert np.array_equal(v.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(v[2], start[2]) and not np.array_equal(v[0], start[0])
    middle = [[0, 1], [3], [4]] if model == "transe" else [[0], [1, 3], [4]]
    assert groups == {1: [[0], [1], [3], [4]], 10_000: middle,
                      1 << 20: [[0, 1, 3, 4]], 1 << 30: [[0, 1, 3, 4]]}[budget]


def test_reward_baseline_centering():
    baselines = RewardBaselines(decay=0.5)
    assert baselines.advantage(0, -2.0) == 0.0          # first visit seeds the mean
    assert baselines.advantage(0, -1.0) == pytest.approx(1.0)
    assert baselines.values[0] == pytest.approx(-1.5)
    raw = RewardBaselines(decay=-1.0)
    assert raw.advantage(0, -2.0) == -2.0               # disabled: pass-through


# -- joint loop -------------------------------------------------------------------------------


def test_zero_episodes_equals_pretraining_outputs():
    graph = inject_noise(ten_triple_graph(), 0.2, seed=1)
    config = small_config(episodes=0, agent_warmup_episodes=0)
    kind = model_kind(config)
    result = joint_train(graph, kind, "strl", config)
    reference = pretrain_kge(graph, kind, config, seed=seed_for(config.seed, "pretrain"))
    assert stores_equal(result.store, reference.store)
    assert result.mask.all()
    assert np.all(result.params.v == 0.0)


def test_joint_rejects_bad_mode():
    graph = ten_triple_graph()
    config = small_config()
    with pytest.raises(DataError):
        joint_train(graph, model_kind(config), "plain", config)


def select_all_trajectory(params, clusters, store, relation, triples, rng):
    n = len(triples)
    width = store.entities.shape[1]
    order = rng.permutation(n)
    rng.random(n)  # consume the uniforms exactly like the real sampler
    trajectory = Trajectory(
        relation=relation,
        order=order,
        actions=np.ones(n, dtype=bool),
        rel_feat=np.zeros(width),
        heads=store.entities[triples[order, 0]],
        tails=store.entities[triples[order, 2]],
    )
    return trajectory, np.arange(n)


def test_saturated_policy_reduces_to_plain_training(monkeypatch):
    """Select-all selection makes each visit exactly one plain epoch."""
    graph = inject_noise(ten_triple_graph(), 0.2, seed=2)
    config = small_config(episodes=2, agent_warmup_episodes=0, agent_learning_rate=0.0)
    kind = model_kind(config)
    monkeypatch.setattr(trainer, "sample_trajectory", select_all_trajectory)
    result = joint_train(graph, kind, "strl", config)
    assert result.mask.all()

    # replay: pre-train, then run the same epochs on the full noisy set
    master = config.seed
    replay = pretrain_kge(graph, kind, config, seed=seed_for(master, "pretrain")).store
    for episode in (1, 2):
        order_rng = np.random.default_rng(seed_for(master, "episode-order", episode))
        for visit, _ in enumerate(order_rng.permutation([0])):
            rng = np.random.default_rng(seed_for(master, "joint-kge", episode, visit, 0))
            run_kge_epoch(kind, replay, graph, graph.train, config.joint_learning_rate,
                          config.batch_size, rng)
    assert np.array_equal(result.store.entities, replay.entities)
    assert np.array_equal(result.store.relations, replay.relations)


def test_joint_mask_covers_only_train(monkeypatch):
    graph = inject_noise(ten_triple_graph(), 0.3, seed=5)
    config = small_config(episodes=2, agent_warmup_episodes=1, agent_mimic_steps=30)
    result = joint_train(graph, model_kind(config), "strl", config)
    assert result.mask.shape == (len(graph.train),)
    assert 0 < result.mask.sum() <= len(graph.train)
    assert len(result.episode_stats) == 2


def test_joint_deterministic():
    graph = inject_noise(ten_triple_graph(), 0.2, seed=3)
    config = small_config(episodes=1, agent_warmup_episodes=1, agent_mimic_steps=20)
    kind = model_kind(config)
    a = joint_train(graph, kind, "strl", config)
    b = joint_train(graph, kind, "strl", config)
    assert stores_equal(a.store, b.store)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.params.v, b.params.v)


def test_noise_labels_cannot_influence_training():
    base = inject_noise(ten_triple_graph(), 0.3, seed=4)
    permuted = KnowledgeGraph(base.entity_vocab, base.relation_vocab, base.train,
                              base.valid, base.test,
                              train_labels=base.train_labels[::-1].copy())
    config = small_config(episodes=1, agent_warmup_episodes=1, agent_mimic_steps=20)
    kind = model_kind(config)
    a = joint_train(base, kind, "strl", config)
    b = joint_train(permuted, kind, "strl", config)
    assert stores_equal(a.store, b.store)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.params.v, b.params.v)


def test_mtrl_builds_clusters_and_trains():
    train = [(i, r, (i + r + 1) % 9) for r in range(3) for i in range(6)]
    graph = inject_noise(make_graph(train, valid=[(0, 0, 3)], test=[(1, 1, 4)],
                                    n_entities=9, n_relations=3), 0.2, seed=8)
    config = small_config(episodes=1, agent_warmup_episodes=1, agent_mimic_steps=20,
                          clusters_k=2)
    result = joint_train(graph, model_kind(config), "mtrl", config)
    assert result.clusters is not None and result.clusters.k == 2
    assert result.params.mode == "mtrl"
    # shared vectors move only for clusters with at least two relations
    for c in range(2):
        if result.clusters.size(c) >= 2:
            continue
        assert np.all(result.params.u[c] == 0.0)


def test_relation_cap_subsamples_trajectories():
    graph = inject_noise(ten_triple_graph(), 0.2, seed=6)
    config = small_config(episodes=1, agent_warmup_episodes=0, relation_cap=4)
    result = joint_train(graph, model_kind(config), "strl", config)
    # triples never drawn in the capped episode keep their select-all default
    assert result.mask.sum() >= len(graph.train) - 4


# -- score-filter baseline ---------------------------------------------------------------------


def test_xscore_delta_zero_keeps_everything():
    graph = inject_noise(ten_triple_graph(), 0.2, seed=7)
    config = small_config()
    result = xscore_baseline(graph, model_kind(config), 0.0, config)
    assert result.mask.all()
    assert result.dropped == 0


def test_xscore_delta_one_rejected():
    graph = ten_triple_graph()
    config = small_config()
    with pytest.raises(DataError):
        xscore_baseline(graph, model_kind(config), 1.0, config)


def test_xscore_drops_exactly_the_lowest_scored():
    graph = ten_triple_graph()
    config = small_config()
    kind = model_kind(config)
    result = xscore_baseline(graph, kind, 0.2, config)
    assert result.dropped == 2
    order = np.argsort(result.pretrain_scores, kind="stable")
    assert not result.mask[order[:2]].any()
    assert result.mask[order[2:]].all()


def test_xscore_keep_count_override():
    graph = ten_triple_graph()
    config = small_config()
    result = xscore_baseline(graph, model_kind(config), 0.2, config, keep_count=7)
    assert result.mask.sum() == 7


def test_score_filter_mask_matches_keep_count_rerun():
    # The matched-budget mask is cut from the first run's pre-training
    # scores; a second xscore_baseline run with keep_count gave the same.
    graph = ten_triple_graph()
    config = small_config()
    kind = model_kind(config)
    first = xscore_baseline(graph, kind, 0.2, config)
    rerun = xscore_baseline(graph, kind, 0.2, config, keep_count=7)
    assert np.array_equal(trainer.score_filter_mask(first.pretrain_scores, 3), rerun.mask)
    # Ties go to the earlier triple; a filter must keep at least one.
    assert trainer.score_filter_mask(np.array([1.0, 0.5, 0.5, 2.0]), 1).tolist() == \
        [True, False, True, True]
    for drop in (-1, 4):
        with pytest.raises(DataError, match="must keep >= 1"):
            trainer.score_filter_mask(np.zeros(4), drop)


# -- seed scheme and file formats -----------------------------------------------------------------


def test_seed_scheme_is_frozen():
    # stability contract: these exact values must never change across versions
    assert seed_for(0, "pretrain") == 1089807148782355001
    assert seed_for(7, "trajectory", 3, 14) == 3859509272789355949
    assert seed_for(7, "trajectory", 3) != seed_for(7, "trajectory", 4)
    assert seed_for(1, "a") != seed_for(1, "b")


def test_selection_mask_round_trip(tmp_path):
    # the selection mask is written in the shared 0/1-per-train-line format
    mask = np.array([True, False, True, True])
    write_flags(tmp_path / "mask.tsv", mask)
    assert (tmp_path / "mask.tsv").read_text() == "1\n0\n1\n1\n"
    assert np.array_equal(load_flags(tmp_path / "mask.tsv", 4), mask)


def test_training_curve_format(tmp_path):
    write_training_curve(tmp_path / "curve.csv", [1.5, 0.75])
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert lines[1] == "0,1.5"


# SHA-256 of entities, relations, m_ent, v_ent, m_rel and v_rel after three
# epochs of pre-training. They pin every bit of the training step: its
# negatives, gradient sums, Adam arithmetic and TransE projection. Taken with
# numpy 2.4.6 and scipy 1.17.1 on x86-64; numpy builds whose transcendental
# kernels round differently can change them without any change here.
GOLDEN_STORE_DIGESTS = {
    "transe-l1": (
        "77f8449b945aa669cf6362b9b2230261228a9b056c7972df796891d0e225ec47",
        "5b1488bbb92127e64f9da35a10071f15baa5f77cb89f6e8db00b86407e55ecd3",
        "d922898c4190417ed3258a2d6014185b8fea89db0509d7719ddf602e8cc8d5d1",
        "e963e157ab2277c801b38ea36b5b840714e2d7e9cb7e966316eb695d36da2876",
        "c70a5ed05dae282be0e12fdca8dbf50a0d601dc7d15ce2fce6f73f5afe2ffa44",
        "cc23f8d8b7d5f655e192d3f1abe709611e5e14a521342dc455361645373a413f",
    ),
    "transe-l2": (
        "426607b7e611383e0e4fa8dea9f036ec1c34277f7a9600b434174cebe57b4512",
        "fff8af04bbdb07e5c7877384fdc653d32657d6490b9b9d6b570e87fc78cbd3ff",
        "505e098113659b739197dfec7cac06c33b5446bb5b34fd90a68b42ec14c30687",
        "c15059d37b1ee3f95a0016b2b95656d359b94227aba19bc9a432698b674935fd",
        "324c17dab68805c3be077fc6adff94af6728e35912f1dd50061f4e3ec606f452",
        "c6de45049f2fe5ba3be63c37744355d329434f2e2e8015fbf19441d2339fa6d6",
    ),
    "distmult": (
        "1151982baec853632b30837e24ba99aaedf48eb043fb36685af9345bebf2647c",
        "f46f2a03991b02120120a250aabbc0b4672713c169a8e85e45458f00596df6af",
        "b124a9d3c397844129b9aec6453e110d2a316f2a689b08a004ef757badb1bab2",
        "1711420108f23f69f9f3542ba5702efb418c91b93f66e43f1fed73d0d33c5668",
        "99f400a83bd7cd9022d8a7b63b9c350d42388681c811ed518777da217675898a",
        "8385b91a9f56f4286114bff940d22ef31b3709964850544a134cafd0688656f6",
    ),
    "rotate": (
        "cfe6cba9a404a23d0f2d6363d5fd7153121cbeb414d6e91ac2459833287161c7",
        "ed467e52600db8a8aee310968fdb94ce014f8213d56d72e2ede8b60ffe31375e",
        "be4288119be92c63a334a9cbb01e897c288ef69df4fe828e505793ced91d6cb7",
        "879777aa55854126f38969cb70f4afc10f591d138b184bfcd2ef170c6f2622ca",
        "0182cd6efb69d24b065702a8bb6e12b4d09abf0a14bdf4a0598bd1b79abede10",
        "52d596fc9720d4892f6ce127921575df44ce9a2f0a232eb8c6f6fcaa85684dc2",
    ),
}


GOLDEN_CASES = pytest.mark.parametrize(
    "model, norm", [("transe", "l1"), ("transe", "l2"), ("distmult", "l1"), ("rotate", "l1")],
    ids=["transe-l1", "transe-l2", "distmult", "rotate"])


def golden_store_digests(model, norm):
    graph = random_graph(np.random.default_rng(21), n_entities=25, n_relations=4,
                         n_train=120, n_valid=5, n_test=5)
    config = TrainConfig(model=model, norm=norm, dim=6, batch_size=16, pretrain_epochs=3,
                         k_negatives=3, learning_rate=0.05, seed=5)
    store = pretrain_kge(graph, model_kind(config), config).store
    return tuple(hashlib.sha256(getattr(store, name).tobytes()).hexdigest()
                 for name in ("entities", "relations", "m_ent", "v_ent", "m_rel", "v_rel"))


@GOLDEN_CASES
def test_pretrain_store_matches_golden_digests(model, norm):
    key = f"{model}-{norm}" if model == "transe" else model
    assert golden_store_digests(model, norm) == GOLDEN_STORE_DIGESTS[key]


@GOLDEN_CASES
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_golden_digests_hold_for_any_thread_count(model, norm, threads):
    # Chunks of 7 rows and gradient-sum ranges of about 64 cells split every
    # loop of the step into many pieces.
    with mock.patch.object(models, "_ROW_BLOCK", 7), mock.patch.object(models, "_CELL_BLOCK", 64), \
            mock.patch.object(models, "_MIN_CELL_BLOCK", 8), chunk_threads(threads):
        digests = golden_store_digests(model, norm)
    key = f"{model}-{norm}" if model == "transe" else model
    assert digests == GOLDEN_STORE_DIGESTS[key]


@pytest.mark.parametrize("model", ["transe", "distmult", "rotate"])
def test_synthetic_scale_epoch_never_builds_the_pool(model):
    # The synthetic preset's sizes (batch 32, d=32, 10 negatives): every loop
    # of the step is one piece, so it runs inline without a pool.
    preset = experiments.PRESETS["synthetic-n1"].config.replace(model=model)
    graph = random_graph(np.random.default_rng(4), n_entities=200, n_relations=20,
                         n_train=400, n_valid=4, n_test=4)
    kind = model_kind(preset)
    store = init_embeddings(200, 20, preset.dim, kind, seed=0)
    with mock.patch.object(models, "_helpers", None), mock.patch.object(models, "_pool", None), \
            mock.patch.object(models, "ThreadPoolExecutor", side_effect=AssertionError):
        run_kge_epoch(kind, store, graph, graph.train, 0.01,
                      preset.batch_size, np.random.default_rng(0))
        assert models._helpers is None


def test_projection_leaves_a_zero_row_bitwise():
    block = np.array([[-0.0, 0.0, -0.0], [3.0, 0.0, -4.0]])
    zero_bits = block[0].view(np.uint64).copy()
    assert trainer._normalize_entity_rows(block) is block
    assert np.array_equal(block[0].view(np.uint64), zero_bits)
    assert block[1].tolist() == [0.6, 0.0, -0.8]
