import struct

import numpy as np
import pytest

from conftest import central_difference
from kgedenoise.agent import (PolicyParams, compute_reward, load_policy,
                              policy_prob, policy_states, regularizer_and_grad,
                              reinforce_update, sample_trajectory, save_policy,
                              state_dim_for, surrogate_and_grad)
from kgedenoise.clustering import RelationClusters
from kgedenoise.errors import DataError
from kgedenoise.models import (DistMult, EmbeddingStore, RotatE, TransE, init_embeddings,
                               relation_features)


def line_store(values, relations, kind=TransE("l1")):
    """d=1 store whose entities sit at given scalar positions."""
    ent = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    rel = np.asarray(relations, dtype=np.float64).reshape(-1, 1)
    return EmbeddingStore(kind, 1, ent, rel)


def small_store(dim=2, kind=TransE("l1")):
    ent = np.array([[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    rel = np.array([[1.0, 2.0]])
    return EmbeddingStore(kind, dim, ent, rel)


# -- state construction -----------------------------------------------------------------


def triple_states(store, relation, triples, mean_heads, mean_tails):
    """``policy_states`` for the rows of ``triples`` under ``store``."""
    triples = np.asarray(triples).reshape(-1, 3)
    rel_feat = relation_features(store, np.array([relation]))[0]
    return policy_states(rel_feat, store.entities[triples[:, 0]],
                         store.entities[triples[:, 2]], mean_heads, mean_tails)


def test_policy_states_concatenation_order():
    store = small_store()
    states = triple_states(store, 0, [(0, 0, 1), (2, 0, 0)],
                           np.zeros((2, 2)), np.array([[0.0, 0.0], [9.0, 10.0]]))
    assert states.tolist() == [[1, 2, 3, 4, 5, 6, 0, 0, 0, 0],
                               [1, 2, 7, 8, 3, 4, 0, 0, 9, 10]]


def test_policy_states_width_is_five_blocks():
    for kind, dim in [(TransE("l1"), 4), (DistMult(), 4), (RotatE(), 4)]:
        store = init_embeddings(5, 2, dim, kind, seed=0)
        zeros = np.zeros((3, store.entities.shape[1]))
        states = triple_states(store, 1, [(0, 1, 2), (3, 1, 4), (4, 1, 0)], zeros, zeros)
        assert states.shape == (3, state_dim_for(store))
        assert state_dim_for(store) == 5 * store.entities.shape[1]


def test_running_mean_of_one_and_two():
    store = small_store()
    graph_triples = np.array([[0, 0, 1], [1, 0, 2], [2, 0, 0]])
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    params.v[0] = 1e9  # saturate: select everything
    trajectory, selected = sample_trajectory(params, None, store, 0, graph_triples,
                                             np.random.default_rng(0))
    states = trajectory.states()
    width = store.entities.shape[1]
    heads_in_order = store.entities[graph_triples[trajectory.order, 0]]
    # first visited step sees zero means; the second sees exactly the first head
    np.testing.assert_array_equal(states[0, 3 * width:4 * width], np.zeros(width))
    np.testing.assert_allclose(states[1, 3 * width:4 * width], heads_in_order[0])
    np.testing.assert_allclose(states[2, 3 * width:4 * width],
                               heads_in_order[:2].mean(axis=0))


def test_running_means_match_batch_mean_recompute():
    rng = np.random.default_rng(4)
    store = init_embeddings(10, 2, 3, TransE(), seed=1)
    triples = np.array([[rng.integers(10), 1, rng.integers(10)] for _ in range(12)])
    params = PolicyParams.zeros("strl", 1, 2, state_dim_for(store))
    trajectory, selected = sample_trajectory(params, None, store, 1, triples,
                                             np.random.default_rng(2))
    if len(selected) == 0:
        pytest.skip("nothing selected under this seed")
    assert selected.tolist() == sorted(trajectory.order[trajectory.actions].tolist())
    # step i sees the means of the head and tail rows selected at steps 0..i-1,
    # recomputed from the store; zeros until the first selection
    mean_h, mean_t = trajectory.prior_means()
    visited = triples[trajectory.order]
    width = store.entities.shape[1]
    for step in range(len(trajectory)):
        earlier = visited[:step][trajectory.actions[:step]]
        for column, means in ((0, mean_h), (2, mean_t)):
            expect = (store.entities[earlier[:, column]].mean(axis=0) if len(earlier)
                      else np.zeros(width))
            np.testing.assert_allclose(means[step], expect, rtol=1e-12, atol=1e-15)


# -- policy -------------------------------------------------------------------------------


def test_policy_prob_at_zero_weight():
    store = small_store()
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    state = triple_states(store, 0, (0, 0, 1), np.zeros((1, 2)), np.zeros((1, 2)))[0]
    assert policy_prob(params, None, 0, state) == 0.5


def test_policy_prob_log_three():
    params = PolicyParams.zeros("strl", 1, 1, 5)
    params.v[0, 0] = np.log(3.0)
    state = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert policy_prob(params, None, 0, state) == pytest.approx(0.75, rel=1e-12)


def test_decomposition_cancellation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=10)
    clusters = RelationClusters.singletons(1)
    params = PolicyParams("mtrl", x.reshape(1, -1).copy(), -x.reshape(1, -1).copy())
    state = rng.normal(size=10)
    assert policy_prob(params, clusters, 0, state) == pytest.approx(0.5, abs=1e-12)


def test_probabilities_sum_to_one():
    # P(a=0) = 1 - P(a=1) exactly, by construction of the Bernoulli draw
    params = PolicyParams.zeros("strl", 1, 1, 5)
    params.v[0] = np.array([0.3, -1.0, 2.0, 0.0, 0.5])
    state = np.array([1.0, 2.0, -0.5, 3.0, 0.1])
    p1 = policy_prob(params, None, 0, state)
    assert 0.0 < p1 < 1.0
    assert p1 + (1.0 - p1) == 1.0


def test_reparameterization_invariance():
    rng = np.random.default_rng(6)
    store = init_embeddings(8, 3, 4, TransE(), seed=3)
    sd = state_dim_for(store)
    clusters = RelationClusters(2, np.array([0, 0, 1]), np.zeros((2, 1)))
    params = PolicyParams("mtrl", rng.normal(size=(2, sd)), rng.normal(size=(3, sd)))
    delta = rng.normal(size=sd)
    shifted = PolicyParams("mtrl", params.u.copy(), params.v.copy())
    shifted.u[0] += delta
    for r in (0, 1):  # relations in cluster 0
        shifted.v[r] -= delta
    state = rng.normal(size=sd)
    for r in range(3):
        assert policy_prob(params, clusters, r, state) == \
            pytest.approx(policy_prob(shifted, clusters, r, state), rel=1e-12, abs=1e-12)


# -- trajectories ----------------------------------------------------------------------


def saturated_params(store, n_relations, sign):
    params = PolicyParams.zeros("strl", 1, n_relations, state_dim_for(store))
    params.v[:] = sign * 1e9
    return params


def test_trajectory_saturation_selects_all():
    # all-positive embeddings make w.s huge positive under a huge positive w
    kind = TransE("l1")
    ent = np.full((5, 2), 0.5)
    rel = np.full((1, 2), 0.5)
    store = EmbeddingStore(kind, 2, ent, rel)
    triples = np.array([[0, 0, 1], [2, 0, 3], [4, 0, 0]])
    params = saturated_params(store, 1, +1.0)
    trajectory, selected = sample_trajectory(params, None, store, 0, triples,
                                             np.random.default_rng(1))
    assert selected.tolist() == [0, 1, 2]
    params = saturated_params(store, 1, -1.0)
    trajectory, selected = sample_trajectory(params, None, store, 0, triples,
                                             np.random.default_rng(1))
    assert selected.tolist() == []


def test_trajectory_deterministic():
    store = init_embeddings(6, 1, 3, TransE(), seed=2)
    triples = np.array([[0, 0, 1], [2, 0, 3], [4, 0, 5], [1, 0, 2]])
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    a = sample_trajectory(params, None, store, 0, triples, np.random.default_rng(7))
    b = sample_trajectory(params, None, store, 0, triples, np.random.default_rng(7))
    assert np.array_equal(a[0].order, b[0].order)
    assert np.array_equal(a[0].actions, b[0].actions)
    assert np.array_equal(a[1], b[1])


def test_trajectory_rejects_empty_set():
    store = init_embeddings(3, 1, 2, TransE(), seed=0)
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    with pytest.raises(DataError):
        sample_trajectory(params, None, store, 0, np.zeros((0, 3)), np.random.default_rng(0))


def test_trajectory_length_matches_input():
    store = init_embeddings(6, 1, 2, TransE(), seed=1)
    triples = np.array([[0, 0, 1]] * 7)
    params = PolicyParams.zeros("strl", 1, 1, state_dim_for(store))
    trajectory, _ = sample_trajectory(params, None, store, 0, triples,
                                      np.random.default_rng(3))
    assert len(trajectory) == 7


# -- reward -------------------------------------------------------------------------------


def reward_fixture():
    # d=1 translation scores: (0,r,1) -> -1, (0,r,2) -> -3
    store = line_store([0.0, 1.0, 3.0, 9.0], [0.0])
    selected = np.array([[0, 0, 1], [0, 0, 2]])
    full = np.array([[0, 0, 1], [0, 0, 2], [0, 0, 3], [1, 0, 2]])
    return store, selected, full


def test_reward_exact_value():
    store, selected, full = reward_fixture()
    reward = compute_reward(store.kind, store, selected, full, alpha=0.05)
    assert reward == pytest.approx(-1.975, rel=1e-12)


def test_reward_degenerate_alpha():
    store, selected, full = reward_fixture()
    # scores: (0,r,1) -> -1, (0,r,2) -> -3, (0,r,3) -> -9, (1,r,2) -> -2
    assert compute_reward(store.kind, store, full, full, alpha=0.0) == pytest.approx(
        np.mean([-1.0, -3.0, -9.0, -2.0]), rel=1e-12)


def test_reward_empty_selection_fallback():
    store = line_store([0.0, 2.0, 4.0], [0.0])
    full = np.array([[0, 0, 1], [0, 0, 2]])  # scores -2 and -4
    reward = compute_reward(store.kind, store, np.zeros((0, 3), dtype=np.int64), full, 0.05)
    assert reward == pytest.approx(-3.0, rel=1e-12)


# -- policy updates ------------------------------------------------------------------------


def make_trajectory(seed=0, n=10, width=3, relation=0):
    rng = np.random.default_rng(seed)
    from kgedenoise.agent import Trajectory

    return Trajectory(
        relation=relation,
        order=np.arange(n),
        actions=rng.random(n) < 0.5,
        rel_feat=rng.normal(size=width),
        heads=rng.normal(size=(n, width)),
        tails=rng.normal(size=(n, width)),
    )


def test_zero_reward_zero_penalty_is_noop():
    trajectory = make_trajectory()
    params = PolicyParams.zeros("strl", 1, 1, 15)
    before_u, before_v = params.u.copy(), params.v.copy()
    reinforce_update(params, None, trajectory, 0.0, 0.0, 0.0, learning_rate=0.5)
    assert np.array_equal(params.u, before_u)
    assert np.array_equal(params.v, before_v)


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for case in range(10):
        trajectory = make_trajectory(seed=case, n=8, width=2)
        reward = float(rng.normal())
        w0 = rng.normal(size=10)
        _, analytic = surrogate_and_grad(w0, trajectory, reward)
        numeric = central_difference(
            lambda w: surrogate_and_grad(w, trajectory, reward)[0], w0)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(numeric - analytic) / scale).max() < 1e-4


def test_pure_decay_shrinks_relation_weights():
    trajectory = make_trajectory(n=5, width=2)
    params = PolicyParams.zeros("strl", 1, 1, 10)
    params.v[0] = np.linspace(0.5, 1.5, 10)
    norm_before = np.linalg.norm(params.v[0])
    reinforce_update(params, None, trajectory, 0.0, 0.0, lambda2=0.1, learning_rate=0.1)
    assert np.linalg.norm(params.v[0]) < norm_before


def test_strl_shared_weights_stay_bitwise_zero():
    store = init_embeddings(6, 2, 2, TransE(), seed=0)
    params = PolicyParams.zeros("strl", 1, 2, state_dim_for(store))
    triples = np.array([[0, 0, 1], [2, 0, 3], [4, 0, 5]])
    for episode in range(10):
        trajectory, selected = sample_trajectory(params, None, store, 0, triples,
                                                 np.random.default_rng(episode))
        reward = compute_reward(store.kind, store, triples[selected], triples, 0.05)
        reinforce_update(params, None, trajectory, reward, 0.01, 0.01, 0.1)
    assert np.all(params.u == 0.0)
    assert not np.all(params.v == 0.0)


def test_mtrl_updates_shared_weights_only_for_real_clusters():
    trajectory = make_trajectory(n=6, width=2, relation=0)
    # cluster 0 has two members: shared vector moves
    clusters = RelationClusters(2, np.array([0, 0, 1]), np.zeros((2, 1)))
    params = PolicyParams.zeros("mtrl", 2, 3, 10)
    reinforce_update(params, clusters, trajectory, 1.0, 0.0, 0.0, 0.1)
    assert not np.all(params.u[0] == 0.0)
    assert np.all(params.u[1] == 0.0)
    # singleton clusters keep their shared vector frozen (pure gauge direction)
    singles = RelationClusters.singletons(3)
    params2 = PolicyParams.zeros("mtrl", 3, 3, 10)
    reinforce_update(params2, singles, trajectory, 1.0, 0.0, 0.0, 0.1)
    assert np.all(params2.u == 0.0)
    assert not np.all(params2.v[0] == 0.0)


def test_regularizer_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = PolicyParams("mtrl", rng.normal(size=(2, 6)), rng.normal(size=(3, 6)))
    lambda1, lambda2 = 0.3, 0.7
    value, grad_u, grad_v = regularizer_and_grad(params, 1, 2, lambda1, lambda2)

    def value_of_u(u):
        trial = PolicyParams("mtrl", params.u.copy(), params.v.copy())
        trial.u[1] = u
        return regularizer_and_grad(trial, 1, 2, lambda1, lambda2)[0]

    def value_of_v(v):
        trial = PolicyParams("mtrl", params.u.copy(), params.v.copy())
        trial.v[2] = v
        return regularizer_and_grad(trial, 1, 2, lambda1, lambda2)[0]

    np.testing.assert_allclose(central_difference(value_of_u, params.u[1].copy()), grad_u,
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(central_difference(value_of_v, params.v[2].copy()), grad_v,
                               rtol=1e-6, atol=1e-8)


def test_policy_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    params = PolicyParams("mtrl", rng.normal(size=(4, 10)), rng.normal(size=(6, 10)))
    path = tmp_path / "policy.ckpt"
    save_policy(path, params)
    loaded = load_policy(path)
    assert loaded.mode == "mtrl"
    assert np.array_equal(loaded.u, params.u)
    assert np.array_equal(loaded.v, params.v)


# policy.ckpt header: magic 4s, version u32, mode u8 at byte 8, n_clusters u64 at byte 9
@pytest.mark.parametrize("offset, fmt, value, message", [
    (8, "<B", 5, "mode code 5"),
    (9, "<Q", 2 ** 40, "matrix bytes"),
], ids=["unknown-mode", "huge-cluster-count"])
def test_policy_checkpoint_rejects_forged_header(tmp_path, offset, fmt, value, message):
    path = tmp_path / "policy.ckpt"
    save_policy(path, PolicyParams.zeros("strl", 1, 3, 10))
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match=message):
        load_policy(path)
