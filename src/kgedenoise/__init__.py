"""Noise-robust knowledge-graph embedding with policy-gradient triple selection."""

from .agent import (PolicyParams, Trajectory, compute_reward, policy_prob, reinforce_update,
                    sample_trajectory)
from .clustering import RelationClusters, kmeans
from .config import TrainConfig, parse_config
from .errors import DataError, KgeDenoiseError, NumericError, UsageError
from .evaluation import link_prediction, noise_detection_f1, triple_classification
from .graph import KnowledgeGraph, load_graph
from .models import (DistMult, EmbeddingStore, RotatE, TransE, adam_step, init_embeddings,
                     loss_and_grad, score, score_batch)
from .noise import inject_noise, make_classification_negatives
from .trainer import joint_train, pretrain_agents, pretrain_kge, xscore_baseline

__version__ = "0.1.0"

__all__ = [
    "DataError", "DistMult", "EmbeddingStore", "KgeDenoiseError",
    "KnowledgeGraph", "NumericError", "PolicyParams", "RelationClusters", "RotatE",
    "TrainConfig", "Trajectory", "TransE", "UsageError", "adam_step", "compute_reward",
    "init_embeddings", "inject_noise", "joint_train", "kmeans", "link_prediction",
    "load_graph", "loss_and_grad",
    "make_classification_negatives", "noise_detection_f1", "parse_config", "policy_prob",
    "pretrain_agents", "pretrain_kge", "reinforce_update", "sample_trajectory", "score",
    "score_batch", "triple_classification", "xscore_baseline",
]
