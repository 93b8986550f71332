"""Per-relation triple-selection agents.

Each relation gets a logistic policy over a 5-block state: the relation
row, the candidate triple's head and tail rows, and the running means of
the heads and tails selected so far in the episode (zero vectors before
the first selection). The policy weight decomposes into a cluster-shared
part and a relation-specific part, w_r = u[cluster(r)] + v[r]; in
single-task mode u stays identically zero.

Updates follow the episodic policy-gradient rule: one delayed reward per
trajectory, ascent on reward * sum_t grad log pi(a_t | s_t), with an L2
penalty 2*lambda1*u_c + 2*lambda2*v_r. The shared-part gradient is routed
identically to u and v, except that singleton clusters never update their
shared vector: for a one-relation cluster the shared part is a pure
reparameterization that would silently double the effective step, so
multi-task training with k = |R| clusters reproduces single-task runs
exactly.

Policy checkpoint layout (little-endian):

    magic b"KGDP" | version u32 | mode u8 (0=strl, 1=mtrl)
    n_clusters u64 | n_relations u64 | state_dim u64
    u matrix, v matrix as raw <f8

The loader checks the mode code and the declared matrix bytes before it
reads any matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .atomic import atomic_write
from .clustering import RelationClusters
from .errors import DataError, NumericError
from .graph import open_input
from .models import (EmbeddingStore, ModelKind, read_matrices, relation_features,
                     score_batch)

MODES = ("strl", "mtrl")


@dataclass
class PolicyParams:
    mode: str                 # "strl" or "mtrl"
    u: np.ndarray             # (n_clusters, state_dim) cluster-shared vectors
    v: np.ndarray             # (n_relations, state_dim) relation-specific vectors

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"unknown agent mode {self.mode!r}")

    @classmethod
    def zeros(cls, mode: str, n_clusters: int, n_relations: int, state_dim: int) -> "PolicyParams":
        # zero init puts every selection probability at 0.5
        return cls(mode, np.zeros((n_clusters, state_dim)), np.zeros((n_relations, state_dim)))

    @property
    def state_dim(self) -> int:
        return self.v.shape[1]


def state_dim_for(store: EmbeddingStore) -> int:
    """Five blocks, each as wide as one entity row."""
    return 5 * store.entities.shape[1]


def policy_states(rel_feat: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                  mean_heads: np.ndarray, mean_tails: np.ndarray) -> np.ndarray:
    """The (n, 5W) states: relation row, head and tail rows, selected-so-far means."""
    rel = np.broadcast_to(rel_feat, (len(heads), len(rel_feat)))
    return np.concatenate([rel, heads, tails, mean_heads, mean_tails], axis=1)


def effective_weight(params: PolicyParams, clusters: RelationClusters | None,
                     relation: int) -> np.ndarray:
    if params.mode == "mtrl":
        if clusters is None:
            raise DataError("multi-task policies require relation clusters")
        return params.u[clusters.assignment[relation]] + params.v[relation]
    # single-task: u is pinned at zero; same code path keeps runs comparable
    return params.u[0] + params.v[relation]


def policy_prob(params: PolicyParams, clusters: RelationClusters | None, relation: int,
                state: np.ndarray) -> float:
    """P(select | state) = sigmoid(w_r . state)."""
    return float(expit(effective_weight(params, clusters, relation) @ state))


@dataclass
class Trajectory:
    """One selection episode over a relation's (possibly capped) triples.

    Snapshots the embedding rows seen at sampling time, since the store
    may be updated before the policy update happens.
    """

    relation: int
    order: np.ndarray        # visit order: permutation of range(n)
    actions: np.ndarray      # (n,) bool, True = selected
    rel_feat: np.ndarray     # (W,)
    heads: np.ndarray        # (n, W) head rows in visit order
    tails: np.ndarray        # (n, W) tail rows in visit order

    def __len__(self) -> int:
        return len(self.actions)

    def prior_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Selected-head/tail means visible to the policy at each step."""
        sel = self.actions.astype(np.float64)[:, None]
        cum_h = np.cumsum(self.heads * sel, axis=0)
        cum_t = np.cumsum(self.tails * sel, axis=0)
        counts = np.cumsum(self.actions.astype(np.float64))
        prior_counts = np.concatenate([[0.0], counts[:-1]])[:, None]
        prior_h = np.concatenate([np.zeros((1, self.heads.shape[1])), cum_h[:-1]])
        prior_t = np.concatenate([np.zeros((1, self.tails.shape[1])), cum_t[:-1]])
        safe = np.where(prior_counts > 0.0, prior_counts, 1.0)
        return (np.where(prior_counts > 0.0, prior_h / safe, 0.0),
                np.where(prior_counts > 0.0, prior_t / safe, 0.0))

    def states(self) -> np.ndarray:
        """Materialize the (n, 5W) state matrix of the episode."""
        return policy_states(self.rel_feat, self.heads, self.tails, *self.prior_means())


def sample_trajectory(params: PolicyParams, clusters: RelationClusters | None,
                      store: EmbeddingStore, relation: int, triples: np.ndarray,
                      rng: np.random.Generator) -> tuple[Trajectory, np.ndarray]:
    """Visit ``triples`` in a seeded random order, drawing Bernoulli actions.

    Returns the trajectory plus the selected row indices into ``triples``
    (ascending). Consumes exactly one permutation and ``len(triples)``
    uniforms from ``rng``.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n = len(triples)
    if n == 0:
        raise DataError("cannot sample a trajectory over an empty triple set")

    w = effective_weight(params, clusters, relation)
    width = store.entities.shape[1]
    order = rng.permutation(n)
    uniforms = rng.random(n)

    rel_feat = relation_features(store, np.array([relation]))[0]
    heads = store.entities[triples[order, 0]]
    tails = store.entities[triples[order, 2]]

    w_r, w_h, w_t = w[:width], w[width:2 * width], w[2 * width:3 * width]
    w_hbar, w_tbar = w[3 * width:4 * width], w[4 * width:]
    base = float(w_r @ rel_feat) + heads @ w_h + tails @ w_t
    head_dots = heads @ w_hbar
    tail_dots = tails @ w_tbar

    actions = np.zeros(n, dtype=bool)
    sum_h = sum_t = 0.0
    count = 0
    for step in range(n):
        z = base[step]
        if count:
            z += sum_h / count + sum_t / count
        if uniforms[step] < expit(z):
            actions[step] = True
            sum_h += head_dots[step]
            sum_t += tail_dots[step]
            count += 1

    trajectory = Trajectory(relation, order, actions, rel_feat, heads, tails)
    selected = np.sort(order[actions])
    return trajectory, selected


def compute_reward(kind: ModelKind, store: EmbeddingStore, selected: np.ndarray,
                   full_set: np.ndarray, alpha: float) -> float:
    """Mean score of the selected triples plus the keep-more bonus.

    An empty selection falls back to the mean score of the whole set the
    agent acted on, without the bonus term.
    """
    full_set = np.asarray(full_set, dtype=np.int64).reshape(-1, 3)
    if len(full_set) == 0:
        raise DataError("compute_reward requires a nonempty triple set")
    selected = np.asarray(selected, dtype=np.int64).reshape(-1, 3)
    if len(selected) == 0:
        return float(score_batch(kind, store, full_set).mean())
    mean_score = float(score_batch(kind, store, selected).mean())
    return mean_score + alpha * len(selected) / len(full_set)


def surrogate_and_grad(weight: np.ndarray, trajectory: Trajectory,
                       reward: float) -> tuple[float, np.ndarray]:
    """Episode surrogate R * sum_t log pi(a_t|s_t) and its w-gradient."""
    states = trajectory.states()
    z = states @ weight
    logp = np.where(trajectory.actions, log_expit(z), log_expit(-z))
    value = reward * float(logp.sum())
    coeff = reward * (trajectory.actions.astype(np.float64) - expit(z))
    return value, states.T @ coeff


def regularizer_and_grad(params: PolicyParams, cluster: int, relation: int,
                         lambda1: float, lambda2: float):
    """Penalty lambda1 ||u_c||^2 + lambda2 ||v_r||^2 and its gradients."""
    u_c, v_r = params.u[cluster], params.v[relation]
    value = lambda1 * float(u_c @ u_c) + lambda2 * float(v_r @ v_r)
    return value, 2.0 * lambda1 * u_c, 2.0 * lambda2 * v_r


def reinforce_update(params: PolicyParams, clusters: RelationClusters | None,
                     trajectory: Trajectory, reward: float, lambda1: float,
                     lambda2: float, learning_rate: float) -> None:
    """One ascent step on the episode surrogate minus the L2 penalty."""
    r = trajectory.relation
    w = effective_weight(params, clusters, r)
    _, grad_w = surrogate_and_grad(w, trajectory, reward)
    if not np.isfinite(grad_w).all():
        raise NumericError(f"non-finite policy gradient for relation {r}")

    c = int(clusters.assignment[r]) if params.mode == "mtrl" else 0
    _, grad_u, grad_v = regularizer_and_grad(params, c, r, lambda1, lambda2)
    params.v[r] += learning_rate * (grad_w - grad_v)
    if params.mode == "mtrl":
        if clusters.size(c) >= 2:
            params.u[c] += learning_rate * (grad_w - grad_u)
        if not np.isfinite(params.u[c]).all():
            raise NumericError(f"non-finite shared weight for cluster {c}")
    if not np.isfinite(params.v[r]).all():
        raise NumericError(f"non-finite policy weight for relation {r}")


# -- checkpoint IO ----------------------------------------------------------------

_MAGIC = b"KGDP"
_VERSION = 1
_HEADER = struct.Struct("<4sIBQQQ")


def save_policy(path, params: PolicyParams) -> None:
    mode_code = MODES.index(params.mode)
    header = _HEADER.pack(_MAGIC, _VERSION, mode_code, params.u.shape[0],
                          params.v.shape[0], params.state_dim)
    with atomic_write(path, binary=True) as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(params.u, dtype="<f8").tobytes())
        handle.write(np.ascontiguousarray(params.v, dtype="<f8").tobytes())


def load_policy(path) -> PolicyParams:
    with open_input(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DataError(f"{path}: truncated policy header")
        magic, version, mode_code, n_clusters, n_relations, state_dim = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise DataError(f"{path}: not a policy checkpoint (bad magic)")
        if version != _VERSION:
            raise DataError(f"{path}: unsupported policy version {version}")
        if mode_code >= len(MODES):
            raise DataError(f"{path}: unknown policy mode code {mode_code}")
        u, v = read_matrices(handle, path, [(n_clusters, state_dim), (n_relations, state_dim)])
    return PolicyParams(MODES[mode_code], u, v)
