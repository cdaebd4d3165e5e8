"""Fair-exposure slate allocation: quota-constrained vertical allocation,
comparison baselines, and a two-sided (relevance vs. fairness) evaluation
stack."""

from .allocator import SlateSet, allocate, allocate_individual
from .baselines import fairco, pr_k, random_k, top_k
from .data import (DataError, GroupMap, RelevanceMatrix, identity_groups,
                   load_groups, load_relevance, save_groups, save_relevance,
                   synth_relevance)
from .exposure import ExposureLedger, ExposureModel, accumulate, total_exposure
from .metrics import EvalReport, evaluate, jsd_fairness, ndcg
from .quota import AnchorPoint, compute_quotas, find_anchor

__all__ = [
    "AnchorPoint", "DataError", "EvalReport", "ExposureLedger",
    "ExposureModel", "GroupMap", "RelevanceMatrix", "SlateSet", "accumulate",
    "allocate", "allocate_individual", "compute_quotas", "evaluate",
    "fairco", "find_anchor", "identity_groups", "jsd_fairness", "load_groups",
    "load_relevance", "ndcg", "pr_k", "random_k", "save_groups",
    "save_relevance", "synth_relevance", "top_k", "total_exposure",
]
