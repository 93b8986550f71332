"""Training orchestration: pre-training, the joint selection loop, baselines.

The pipeline runs in three stages. First the embedding model is
pre-trained on the full noisy split for at most 100 epochs (a hard cap;
longer pre-training overfits the noise). Then the selection agents are
warmed up against the frozen store. Finally the joint loop alternates,
per relation and episode: sample a selection trajectory, swap the
relation's triples in the working set for the selected ones, run a
configurable amount of embedding training on the working set, compute
the delayed reward, and update the policy.

Every stochastic step draws from its own child generator derived from
the master seed (see ``seeding``), so whole pipelines are reproducible
and individual stages can be replayed in isolation (``sampler`` may draw
and plan an epoch's batches in a helper process, with the same bits). The
score-mimic warm start fits relations in cache-sized lockstep groups.
Ground-truth noise labels are never read anywhere in this module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import agent as agent_mod
from .agent import (PolicyParams, compute_reward, policy_states, reinforce_update,
                    sample_trajectory)
from .atomic import atomic_write
from .clustering import RelationClusters, kmeans
from .config import TrainConfig
from .errors import DataError, NumericError
from .graph import KnowledgeGraph
from .models import (DistMult, EmbeddingStore, ModelKind, RotatE, TransE, adam_step,
                     init_embeddings, loss_and_grad, relation_features, score_batch)
from .sampler import epoch_batches
from .seeding import seed_for

logger = logging.getLogger(__name__)

PRETRAIN_EPOCH_CAP = 100


def model_kind(config: TrainConfig) -> ModelKind:
    if config.model == "transe":
        return TransE(norm=config.norm, margin=config.margin)
    if config.model == "distmult":
        return DistMult(l2_coeff=config.l2_coeff, negatives=config.k_negatives)
    return RotatE(margin=config.eta, negatives=config.k_negatives)


def run_kge_epoch(kind: ModelKind, store: EmbeddingStore, graph: KnowledgeGraph,
                  triples: np.ndarray, learning_rate: float, batch_size: int,
                  rng: np.random.Generator) -> float:
    """One shuffled mini-batch pass; returns the mean per-positive loss.

    Translation models project their updated entity rows back onto the
    unit sphere inside the Adam step, before the rows are stored.
    """
    n = len(triples)
    if n == 0:
        raise DataError("cannot train on an empty triple set")
    project = _normalize_entity_rows if kind.projects_entities else None
    shuffled = triples[rng.permutation(n)]
    total = 0.0
    with epoch_batches(kind, graph, shuffled, batch_size, rng) as prepared:
        for start in range(0, n, batch_size):
            negatives, plan = next(prepared)
            loss, grads = loss_and_grad(kind, store, graph, shuffled[start:start + batch_size],
                                        rng, negatives=negatives, plan=plan)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss on batch starting at {start}")
            adam_step(store, grads, learning_rate, project)
            total += loss
    return total / n


def _normalize_entity_rows(block: np.ndarray) -> np.ndarray:
    """Project updated entity rows back onto the unit L2 sphere, in place.

    The margin objective is degenerate under uniform norm growth, so
    translation training keeps the original method's unit-norm entity
    constraint. Only rows the batch touched move, preserving sparse
    update locality; relation rows stay free to carry offset magnitude.
    Rows of norm 0, which hold only +-0.0, are left as they are, bits and
    all. A row whose squared norm overflows raises ``NumericError``, since
    it would project to zeros. ``adam_step`` passes a view of one row
    chunk's gathered entity rows, all of them finite, from whichever thread
    runs that chunk, and stores them once every chunk has passed, so this
    reads and writes only ``block``, and a raise stores nothing of the table.
    """
    norms = np.square(block).sum(1, keepdims=True)
    if not math.isfinite(norms.max()):
        raise NumericError("an updated entity row's norm overflows")
    np.sqrt(norms, out=norms)
    return np.divide(block, norms, out=block, where=norms > 0.0)


@dataclass
class PretrainResult:
    store: EmbeddingStore
    losses: list[float]


def pretrain_kge(graph: KnowledgeGraph, kind: ModelKind, config: TrainConfig, *,
                 triples: np.ndarray | None = None, seed: int | None = None,
                 store: EmbeddingStore | None = None) -> PretrainResult:
    """Mini-batch training on the (noisy) train split, capped at 100 epochs."""
    epochs = config.pretrain_epochs
    if epochs > PRETRAIN_EPOCH_CAP:
        logger.warning("pretrain epochs clamped from %d to %d", epochs, PRETRAIN_EPOCH_CAP)
        epochs = PRETRAIN_EPOCH_CAP
    if seed is None:
        seed = seed_for(config.seed, "pretrain")
    if triples is None:
        triples = graph.train
    if store is None:
        store = init_embeddings(graph.n_entities, graph.n_relations, config.dim, kind,
                                seed_for(seed, "init"))

    losses: list[float] = []
    for epoch in range(epochs):
        rng = np.random.default_rng(seed_for(seed, "epoch", epoch))
        try:
            losses.append(run_kge_epoch(kind, store, graph, triples, config.learning_rate,
                                        config.batch_size, rng))
        except NumericError as exc:
            raise NumericError(f"pre-training diverged at epoch {epoch}: {exc}") from exc
    return PretrainResult(store, losses)


def relation_clusters(store: EmbeddingStore, config: TrainConfig,
                      seed: int | None = None) -> RelationClusters:
    """Cluster pretrained relation rows (phases lifted to the unit circle)."""
    features = relation_features(store, np.arange(store.n_relations))
    k = min(config.clusters_k, store.n_relations)
    if seed is None:
        seed = seed_for(config.seed, "clusters")
    return kmeans(features, k, seed)


class RewardBaselines:
    """Per-relation running mean of episode rewards.

    The policy update receives the centered reward (the reinforcement
    comparison of the cited policy-gradient algorithm); with the raw
    reward the constant mean-score level drowns the selection signal.
    A negative decay disables centering.
    """

    def __init__(self, decay: float):
        self.decay = decay
        self.values: dict[int, float] = {}

    def advantage(self, relation: int, reward: float) -> float:
        if self.decay < 0.0:
            return reward
        previous = self.values.get(relation)
        if previous is None:
            self.values[relation] = reward
            return 0.0
        self.values[relation] = self.decay * previous + (1.0 - self.decay) * reward
        return reward - previous


# Bytes of policy states that one lockstep group of the score-mimic fit holds:
# half of a 2 MiB per-core L2 cache.
_MIMIC_GROUP_BYTES = 1 << 20


def mimic_score_filter(graph: KnowledgeGraph, store: EmbeddingStore, params: PolicyParams,
                       config: TrainConfig) -> None:
    """Supervised warm start: teach each agent its model's own score judgment.

    Fits the relation-specific weights so the selection probability
    reproduces "keep unless the triple scores in the lowest
    ``agent_mimic_quantile`` of its relation" under the pretrained
    embeddings. From a zero start the episodic policy gradient cannot
    tell triples apart within any practical budget (the delayed reward
    spreads one scalar over the whole trajectory); anchoring the agents
    to the embedding model's judgment gives the joint loop a working
    selector to refine. Deterministic; no randomness consumed.

    Relations are fitted in groups, in order, whose states total at most
    ``_MIMIC_GROUP_BYTES`` (or one larger relation), each built and fitted
    before the next. A group steps in lockstep: each relation's products
    on its own states, the elementwise Adam once on the stacked weights,
    so each relation's weights are bitwise those of a fit on its own.
    """
    if config.agent_mimic_steps <= 0:
        return
    group, size = [], 0
    for r in range(graph.n_relations):
        nbytes = len(graph.relation_positions(r)) * params.v.shape[1] * 8
        if group and size + nbytes > _MIMIC_GROUP_BYTES:
            _fit_mimic(graph, store, params, config, group)
            group, size = [], 0
        if nbytes:  # a relation with no train triples is not fitted
            group, size = group + [r], size + nbytes
    if group:
        _fit_mimic(graph, store, params, config, group)


def _fit_mimic(graph: KnowledgeGraph, store: EmbeddingStore, params: PolicyParams,
               config: TrainConfig, relations: list[int]) -> None:
    """The score-mimic fit of ``relations``, in lockstep."""
    kind = store.kind
    fits = []
    for r in relations:
        triples = graph.train[graph.relation_positions(r)]
        heads, tails = store.entities[triples[:, 0]], store.entities[triples[:, 2]]
        zeros = np.zeros_like(heads)  # episode start: no selected-so-far means yet
        states = policy_states(relation_features(store, np.array([r]))[0], heads, tails,
                               zeros, zeros)
        scores = score_batch(kind, store, triples)
        fits.append((states, (scores >= np.quantile(scores, config.agent_mimic_quantile))
                     .astype(np.float64)))
    v = params.v[relations]
    m, s2, grad = np.zeros_like(v), np.zeros_like(v), np.empty_like(v)
    for step in range(1, config.agent_mimic_steps + 1):
        for g, (states, keep) in enumerate(fits):
            grad[g] = states.T @ (keep - expit(states @ v[g])) / len(keep) - 2e-5 * v[g]
        m = 0.9 * m + 0.1 * grad
        s2 = 0.999 * s2 + 0.001 * grad * grad
        v += 0.02 * (m / (1.0 - 0.9 ** step)) / (np.sqrt(s2 / (1.0 - 0.999 ** step)) + 1e-8)
    params.v[relations] = v * config.agent_mimic_sharpness


def pretrain_agents(graph: KnowledgeGraph, store: EmbeddingStore, params: PolicyParams,
                    clusters: RelationClusters | None, config: TrainConfig,
                    baselines: RewardBaselines | None = None) -> None:
    """Warm up the agents against the frozen store; no embedding updates.

    Runs the optional score-mimic fit first, then the configured number
    of policy-gradient episodes.
    """
    kind = store.kind
    seed = seed_for(config.seed, "agents")
    if baselines is None:
        baselines = RewardBaselines(config.agent_baseline_decay)
    mimic_score_filter(graph, store, params, config)
    active = [r for r in range(graph.n_relations) if len(graph.relation_positions(r))]
    for episode in range(config.agent_warmup_episodes):
        order_rng = np.random.default_rng(seed_for(seed, "warmup-order", episode))
        for visit, r in enumerate(order_rng.permutation(active)):
            r = int(r)
            positions = _capped_positions(graph, r, config.relation_cap,
                                          seed_for(seed, "warmup-cap", episode, visit))
            triples = graph.train[positions]
            traj_rng = np.random.default_rng(seed_for(seed, "warmup-trajectory", episode, visit))
            trajectory, selected = sample_trajectory(params, clusters, store, r,
                                                     triples, traj_rng)
            reward = compute_reward(kind, store, triples[selected], triples, config.alpha)
            reinforce_update(params, clusters, trajectory, baselines.advantage(r, reward),
                             config.lambda1, config.lambda2, config.agent_learning_rate)


def _capped_positions(graph: KnowledgeGraph, relation: int, cap: int, seed: int) -> np.ndarray:
    positions = graph.relation_positions(relation)
    if cap and len(positions) > cap:
        rng = np.random.default_rng(seed)
        positions = np.sort(rng.choice(positions, size=cap, replace=False))
    return positions


@dataclass
class EpisodeStats:
    episode: int
    kept: int
    total: int
    mean_reward: float
    mean_kge_loss: float


@dataclass
class JointResult:
    store: EmbeddingStore
    params: PolicyParams
    clusters: RelationClusters | None
    mask: np.ndarray                    # last-episode selection over the train split
    pretrain_losses: list[float]
    episode_stats: list[EpisodeStats] = field(default_factory=list)


def joint_train(graph: KnowledgeGraph, kind: ModelKind, mode: str, config: TrainConfig,
                clusters: RelationClusters | None = None) -> JointResult:
    """Pre-train, warm up the agents, then run the joint selection loop.

    Returns the final store and policy plus the last selection judgment
    for every training triple (triples a capped relation never re-drew
    keep their most recent judgment; select-all before any episode).
    """
    if mode not in agent_mod.MODES:
        raise DataError(f"joint training mode must be strl or mtrl, got {mode!r}")
    master = config.seed

    pre = pretrain_kge(graph, kind, config)
    store = pre.store
    if mode == "mtrl" and clusters is None:
        clusters = relation_clusters(store, config)
    if mode == "strl":
        clusters = None

    n_clusters = clusters.k if clusters is not None else 1
    params = PolicyParams.zeros(mode, n_clusters, graph.n_relations, agent_mod.state_dim_for(store))
    baselines = RewardBaselines(config.agent_baseline_decay)
    pretrain_agents(graph, store, params, clusters, config, baselines=baselines)

    selected = np.ones(len(graph.train), dtype=bool)
    stats: list[EpisodeStats] = []
    active = [r for r in range(graph.n_relations) if len(graph.relation_positions(r))]

    for episode in range(1, config.episodes + 1):
        order_rng = np.random.default_rng(seed_for(master, "episode-order", episode))
        rewards, losses = [], []
        for visit, r in enumerate(order_rng.permutation(active)):
            r = int(r)
            positions = _capped_positions(graph, r, config.relation_cap,
                                          seed_for(master, "cap", episode, visit))
            triples = graph.train[positions]
            traj_rng = np.random.default_rng(seed_for(master, "trajectory", episode, visit))
            trajectory, sel_idx = sample_trajectory(params, clusters, store, r,
                                                    triples, traj_rng)

            selected[positions] = False
            selected[positions[sel_idx]] = True
            working = graph.train[selected]
            if len(working):
                for sub_epoch in range(config.joint_kge_epochs):
                    rng = np.random.default_rng(
                        seed_for(master, "joint-kge", episode, visit, sub_epoch))
                    losses.append(run_kge_epoch(kind, store, graph, working,
                                                config.joint_learning_rate, config.batch_size, rng))
            else:
                logger.warning("episode %d: empty working set after relation %d", episode, r)

            reward = compute_reward(kind, store, triples[sel_idx], triples, config.alpha)
            reinforce_update(params, clusters, trajectory, baselines.advantage(r, reward),
                             config.lambda1, config.lambda2, config.agent_learning_rate)
            rewards.append(reward)

        stats.append(EpisodeStats(
            episode=episode,
            kept=int(selected.sum()),
            total=len(selected),
            mean_reward=float(np.mean(rewards)) if rewards else 0.0,
            mean_kge_loss=float(np.mean(losses)) if losses else 0.0,
        ))
        logger.info("episode %d: kept %d/%d, mean reward %.4f", episode,
                    stats[-1].kept, stats[-1].total, stats[-1].mean_reward)

    return JointResult(store, params, clusters, selected, pre.losses, stats)


def score_filter_mask(scores: np.ndarray, drop: int) -> np.ndarray:
    """Keep mask that drops the ``drop`` lowest scores; ties break by stable order."""
    n = len(scores)
    if drop < 0 or drop >= n:
        raise DataError(f"filter would keep {n - drop} of {n} triples; must keep >= 1")
    mask = np.ones(n, dtype=bool)
    if drop:
        mask[np.argsort(scores, kind="stable")[:drop]] = False
    return mask


@dataclass
class XScoreResult:
    store: EmbeddingStore
    mask: np.ndarray            # True = kept
    pretrain_scores: np.ndarray
    dropped: int
    losses: list[float]         # per epoch of the retraining


def xscore_baseline(graph: KnowledgeGraph, kind: ModelKind, delta: float,
                    config: TrainConfig, *, keep_count: int | None = None) -> XScoreResult:
    """Score-filter baseline: drop the lowest-scored fraction, retrain fresh.

    ``keep_count`` overrides ``delta`` to keep exactly that many triples.
    Ties break by stable triple order. A matched-budget mask alone needs
    no retraining: ``score_filter_mask`` cuts it from ``pretrain_scores``.
    """
    if not 0.0 <= delta <= 1.0:
        raise DataError("delta must lie in [0, 1]")
    n = len(graph.train)
    pre = pretrain_kge(graph, kind, config, seed=seed_for(config.seed, "xscore-pretrain"))
    scores = score_batch(kind, pre.store, graph.train)

    drop = n - keep_count if keep_count is not None else int(delta * n)
    mask = score_filter_mask(scores, drop)

    retrained = pretrain_kge(graph, kind, config, triples=graph.train[mask],
                             seed=seed_for(config.seed, "xscore-retrain"))
    return XScoreResult(retrained.store, mask, scores, drop, retrained.losses)


def write_training_curve(path, losses: list[float]) -> None:
    with atomic_write(path) as handle:
        handle.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            handle.write(f"{epoch},{loss!r}\n")
