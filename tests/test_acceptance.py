"""Acceptance suite: one criterion per test, one printed verdict line each.

Criteria 4, 5 and 7 drive the full synthetic pipeline (minutes); the rest
run in seconds. Criterion 8 is the optional full-scale spot check and
needs on-disk FB15k-237 splits (hours); point KGEDENOISE_FB15K237_DIR at
a directory with train/valid/test.txt to enable it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import central_difference, random_graph
from kgedenoise import experiments
from kgedenoise.agent import (PolicyParams, compute_reward, policy_prob, sample_trajectory,
                              surrogate_and_grad)
from kgedenoise.clustering import RelationClusters
from kgedenoise.config import TrainConfig
from kgedenoise.evaluation import link_prediction
from kgedenoise.models import (DistMult, EmbeddingStore, RotatE, TransE, init_embeddings,
                               loss_and_grad, score)
from kgedenoise.noise import inject_noise
from kgedenoise.synth import generate_shift_graph
from kgedenoise.trainer import joint_train, model_kind

from test_models import run_fd_check

SYNTHETIC_SEEDS = (7, 8, 9)


def verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient correctness ---------------------------------------------------------


def test_criterion_1_gradient_correctness():
    worst_overall = 0.0
    for kind, label in [(TransE("l1", 1.0), "transe-l1"), (TransE("l2", 1.0), "transe-l2"),
                        (DistMult(l2_coeff=1e-3, negatives=3), "distmult"),
                        (RotatE(margin=2.0, negatives=3), "rotate")]:
        for dim in (4, 8):
            checked, seed = 0, 0
            while checked < 20:
                seed += 1
                worst = run_fd_check(kind, dim, seed)
                if worst is None:
                    continue
                worst_overall = max(worst_overall, worst)
                assert worst < 1e-4, f"{label} d={dim} seed={seed}: rel err {worst}"
                checked += 1

    # policy surrogate: gradient of R * sum log pi against central differences
    rng = np.random.default_rng(0)
    for dim in (4, 8):
        store = init_embeddings(10, 2, dim, TransE(), seed=dim)
        width = store.entities.shape[1]
        for case in range(20):
            triples = np.array([[rng.integers(10), 1, rng.integers(10)] for _ in range(6)])
            params = PolicyParams.zeros("strl", 1, 2, 5 * width)
            params.v[1] = rng.normal(scale=0.3, size=5 * width)
            trajectory, _ = sample_trajectory(params, None, store, 1, triples,
                                              np.random.default_rng(100 + case))
            reward = float(rng.normal())
            w0 = rng.normal(scale=0.3, size=5 * width)
            _, analytic = surrogate_and_grad(w0, trajectory, reward)
            numeric = central_difference(
                lambda w: surrogate_and_grad(w, trajectory, reward)[0], w0)
            scale = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-5)
            worst = float((np.abs(numeric - analytic) / scale).max())
            worst_overall = max(worst_overall, worst)
            assert worst < 1e-4, f"policy surrogate d={dim} case={case}: rel err {worst}"

    verdict(1, True, f"all analytic gradients within 1e-4 of central differences "
                     f"(worst {worst_overall:.2e})")


# -- criterion 2: ranking oracle equivalence ---------------------------------------------------


def test_criterion_2_ranking_oracle_equivalence():
    rng = np.random.default_rng(2)
    graph = random_graph(rng, n_entities=50, n_relations=4, n_train=150, n_valid=25,
                         n_test=25)
    kind = TransE("l1")
    store = init_embeddings(50, 4, 8, kind, seed=1)
    result = link_prediction(kind, store, graph)

    known = set()
    for split in (graph.train, graph.valid, graph.test):
        known.update(map(tuple, split.tolist()))

    mismatches = 0
    idx = 0
    for h, r, t in graph.test.tolist():
        true_score = score(kind, store, h, r, t)
        rank_head = 1 + sum(
            1 for e in range(50)
            if e != h and (e, r, t) not in known and score(kind, store, e, r, t) >= true_score)
        rank_tail = 1 + sum(
            1 for e in range(50)
            if e != t and (h, r, e) not in known and score(kind, store, h, r, e) >= true_score)
        mismatches += (result.ranks[idx] != rank_head) + (result.ranks[idx + 1] != rank_tail)
        idx += 2

    ordered = result.hits[1] <= result.hits[3] <= result.hits[10]
    verdict(2, mismatches == 0 and ordered,
            f"{len(result.ranks)} filtered ranks all match the brute-force scorer; "
            f"hits ordering {result.hits[1]:.3f} <= {result.hits[3]:.3f} <= {result.hits[10]:.3f}")


# -- criterion 3: exact-value unit checks -------------------------------------------------------


def test_criterion_3_exact_values():
    checks = []

    # reward formula: scores {-1, -3}, |T_r| = 4, alpha = 0.05 -> -1.975
    store = EmbeddingStore(TransE("l1"), 1,
                           np.array([[0.0], [1.0], [3.0], [9.0]]), np.array([[0.0]]))
    selected = np.array([[0, 0, 1], [0, 0, 2]])
    full = np.array([[0, 0, 1], [0, 0, 2], [0, 0, 3], [1, 0, 2]])
    reward = compute_reward(store.kind, store, selected, full, alpha=0.05)
    checks.append(("reward -1.975", abs(reward - (-1.975)) < 1e-12))

    # sigmoid(ln 3) = 0.75
    params = PolicyParams.zeros("strl", 1, 1, 5)
    params.v[0, 0] = np.log(3.0)
    p = policy_prob(params, None, 0, np.array([1.0, 0, 0, 0, 0]))
    checks.append(("sigma(ln 3) = 0.75", abs(p - 0.75) < 1e-12))

    # translation L1 score -3
    t_store = EmbeddingStore(TransE("l1"), 2,
                             np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[0.0, 0.0]]))
    checks.append(("translation L1 -3", score(TransE("l1"), t_store, 0, 0, 1) == -3.0))

    # bilinear 63
    d_store = EmbeddingStore(DistMult(), 2,
                             np.array([[1.0, 2.0], [5.0, 6.0]]), np.array([[3.0, 4.0]]))
    checks.append(("bilinear 63", score(DistMult(), d_store, 0, 0, 1) == 63.0))

    # exact rotation scores 0
    r_store = EmbeddingStore(RotatE(), 2,
                             np.array([[1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]]),
                             np.array([[np.pi / 2, np.pi / 2]]))
    checks.append(("exact rotation 0",
                   abs(score(RotatE(), r_store, 0, 0, 1)) < 1e-15))

    # inactive hinge contributes zero loss and zero gradient
    from conftest import make_graph
    graph = make_graph([(0, 0, 1)], n_entities=2)
    h_store = EmbeddingStore(TransE("l1", margin=1.0), 1,
                             np.array([[0.0], [1.0]]), np.array([[2.0]]))
    loss, grads = loss_and_grad(TransE("l1", margin=1.0), h_store, graph, graph.train,
                                np.random.default_rng(0))
    checks.append(("inactive hinge", loss == 0.0
                   and all(np.all(g.values == 0.0) for g in grads.values())))

    failed = [name for name, ok in checks if not ok]
    verdict(3, not failed, f"{len(checks)} exact-value checks"
            + (f"; failed: {failed}" if failed else " all hold"))


# -- criteria 4 and 5: synthetic pipeline comparisons --------------------------------------------


@pytest.fixture(scope="module")
def synthetic_reports():
    return {seed: experiments.run_synthetic_experiment("synthetic-n1", seed)
            for seed in SYNTHETIC_SEEDS}


def test_criterion_4_noise_detection_superiority(synthetic_reports):
    f1s, matched = [], []
    for seed, report in synthetic_reports.items():
        agent_f1 = report["models"]["strl"]["noise_f1"]
        assert agent_f1 > 0.0, f"seed {seed}: mask F1 must beat select-all (0)"
        f1s.append(agent_f1)
        matched.append(report["models"]["xscore_matched"]["noise_f1"])
    mean_f1, mean_matched = float(np.mean(f1s)), float(np.mean(matched))
    verdict(4, mean_f1 >= mean_matched,
            f"selection-agent mask F1 {mean_f1:.3f} vs matched-budget score filter "
            f"{mean_matched:.3f} (3-seed means; per-seed agent F1 "
            + ", ".join(f"{v:.3f}" for v in f1s) + ")")


def test_criterion_5_link_prediction_improvement(synthetic_reports):
    deltas = [report["models"]["strl"]["mrr"] - report["models"]["plain"]["mrr"]
              for report in synthetic_reports.values()]
    mean_delta = float(np.mean(deltas))
    verdict(5, mean_delta >= 0.005,
            f"mean MRR improvement over plain noisy training {mean_delta:+.4f} "
            f"(needs >= +0.005; per-seed " + ", ".join(f"{d:+.3f}" for d in deltas) + ")")


# -- criterion 6: multi-task invariance and single-task reduction --------------------------------


def test_criterion_6_invariance_and_reduction():
    # (a) policy probabilities invariant under (u + delta, v - delta)
    rng = np.random.default_rng(6)
    store = init_embeddings(12, 4, 4, TransE(), seed=2)
    sd = 5 * store.entities.shape[1]
    clusters = RelationClusters(2, np.array([0, 0, 1, 1]), np.zeros((2, 1)))
    params = PolicyParams("mtrl", rng.normal(size=(2, sd)), rng.normal(size=(4, sd)))
    delta = rng.normal(size=sd)
    shifted = PolicyParams("mtrl", params.u.copy(), params.v.copy())
    shifted.u[0] += delta
    shifted.v[0] -= delta
    shifted.v[1] -= delta
    invariant = True
    for _ in range(25):
        state = rng.normal(size=sd)
        for r in range(4):
            a = policy_prob(params, clusters, r, state)
            b = policy_prob(shifted, clusters, r, state)
            if not np.isclose(a, b, rtol=1e-12, atol=1e-12):
                invariant = False

    # (b) mtrl with k = |R| singleton clusters and lambda1 = 0 == strl, bitwise
    graph = inject_noise(generate_shift_graph(grid_x=8, grid_y=5, n_relations=4,
                                              train_per_relation=12, valid_per_relation=3,
                                              test_per_relation=3, seed=1), 0.2, seed=2)
    config = TrainConfig(model="transe", dim=8, batch_size=16, learning_rate=0.01,
                         pretrain_epochs=4, episodes=3, agent_warmup_episodes=2,
                         agent_mimic_steps=40, agent_learning_rate=0.01,
                         lambda1=0.0, lambda2=0.01, alpha=0.1, seed=11)
    kind = model_kind(config)
    strl = joint_train(graph, kind, "strl", config)
    singles = RelationClusters.singletons(graph.n_relations, dim=8)
    mtrl = joint_train(graph, kind, "mtrl", config, clusters=singles)

    bitwise = (np.array_equal(strl.mask, mtrl.mask)
               and np.array_equal(strl.params.v, mtrl.params.v)
               and np.array_equal(strl.store.entities, mtrl.store.entities)
               and np.array_equal(strl.store.relations, mtrl.store.relations)
               and np.all(mtrl.params.u == 0.0))
    verdict(6, invariant and bitwise,
            "(u+d, v-d) reparameterization leaves probabilities unchanged; "
            "multi-task with singleton clusters and lambda1=0 reproduces "
            "single-task masks, weights and stores bitwise")


# -- criterion 7: determinism ---------------------------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path):
    # The two runs share nothing but the machine, so they run at once. Their
    # logs go to files: an unread pipe could fill and stall a run.
    names = ("a", "b")
    procs = []
    for name in names:
        with open(tmp_path / f"log_{name}.txt", "w") as log:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "kgedenoise.cli", "experiment", "--preset",
                 "synthetic-n1", "--seed", "7", "--out", str(tmp_path / f"report_{name}.json")],
                stdout=log, stderr=subprocess.STDOUT))
    try:
        for proc in procs:
            proc.wait(timeout=1800)
    finally:
        for proc in procs:
            proc.kill()  # a no-op once the run has exited
            proc.wait()
    for name, proc in zip(names, procs):
        assert proc.returncode == 0, (tmp_path / f"log_{name}.txt").read_text()[-2000:]
    outputs = [(tmp_path / f"report_{name}.json").read_bytes() for name in names]
    verdict(7, outputs[0] == outputs[1],
            f"two CLI runs produced byte-identical {len(outputs[0])}-byte reports")


# -- criterion 8: optional full-scale spot check ---------------------------------------------------


FB15K237 = os.environ.get("KGEDENOISE_FB15K237_DIR")


@pytest.mark.skipif(not FB15K237, reason="set KGEDENOISE_FB15K237_DIR to run the "
                                         "hours-scale FB15k-237 spot check")
def test_criterion_8_full_scale_spot_check():
    config = experiments.FULLSCALE_CONFIG.replace(seed=7, mode="mtrl")
    report = experiments.run_file_experiment(FB15K237, config, noise_rate=0.1)
    plain_mrr = report["models"]["plain"]["mrr"]
    mtrl_mrr = report["models"]["mtrl"]["mrr"]
    within = abs(plain_mrr - 0.221) <= 0.02
    verdict(8, within and mtrl_mrr > plain_mrr,
            f"plain MRR {plain_mrr:.3f} (target 0.221 +- 0.02), "
            f"multi-task MRR {mtrl_mrr:.3f} exceeds plain")
