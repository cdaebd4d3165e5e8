"""Frozen copy of `verfair.baselines.pr_k` and `fairco` as they were
before their per-consumer selections became a deficit heap and a
partition select: one full two-key `np.lexsort` of all n items per
consumer.

It is the differential reference of `tests/test_baselines_differential.py`.
Do not edit the bodies below; they exist only to pin behaviour.
"""

from __future__ import annotations

import numpy as np

from reference_quota import compute_quotas
from verfair.allocator import SlateSet
from verfair.baselines import _horizontal
from verfair.data import GroupMap, RelevanceMatrix, identity_groups
from verfair.exposure import ExposureModel
from verfair.quota import group_relevance


def _id_ranks(ids):
    """rank[i] = position of ids[i] in ascending lexicographic order."""
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    ranks = np.empty(len(ids), dtype=int)
    ranks[order] = np.arange(len(ids))
    return ranks


def pr_k(rel: RelevanceMatrix, model: ExposureModel, k) -> SlateSet:
    """Pure-fairness baseline: give each consumer the k most under-exposed
    items relative to their full fair share (alpha=1), largest deficit at
    the top rank, updating the running ledger after each slate."""
    if rel.n < k:
        raise ValueError(f"need n >= k (n={rel.n}, k={k})")
    id_rank = _id_ranks(rel.item_ids)
    quota = compute_quotas(rel, identity_groups(rel), model, 1.0)
    quota_vec = np.array([quota.per_group[d] for d in rel.item_ids])
    exposure = np.zeros(rel.n)
    slate_idx = np.empty((rel.m, k), dtype=int)
    for c in range(rel.m):
        deficit = quota_vec - exposure
        picks = np.lexsort((id_rank, -deficit))[:k]
        slate_idx[c] = picks
        exposure[picks] += model.probs[:k]
    return _horizontal(rel, slate_idx)


def fairco(rel: RelevanceMatrix, groups: GroupMap, model: ExposureModel,
           lam) -> SlateSet:
    """Proportional-controller baseline: boost each item's score by its
    group's under-exposure relative to the best exposure-to-relevance
    ratio seen so far, then rank top-k by the boosted score. It works at
    the level of `groups`; `identity_groups(rel)` gives individual level."""
    if rel.n < model.k:
        raise ValueError(f"need n >= k (n={rel.n}, k={model.k})")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be a finite number >= 0")
    gidx = groups.indices(rel)
    rg = group_relevance(rel, groups)
    positive = rg > 0
    id_rank = _id_ranks(rel.item_ids)
    k = model.k
    exposure = np.zeros(len(groups.group_ids))
    slate_idx = np.empty((rel.m, k), dtype=int)
    for c in range(rel.m):
        err = np.zeros(len(groups.group_ids))
        if positive.any():
            ratio = np.where(positive, exposure / np.where(positive, rg, 1.0), 0.0)
            err[positive] = np.maximum(0.0, ratio[positive].max() - ratio[positive])
        boosted = rel.scores[c] + lam * err[gidx]
        picks = np.lexsort((id_rank, -boosted))[:k]
        slate_idx[c] = picks
        np.add.at(exposure, gidx[picks], model.probs[:k])
    return _horizontal(rel, slate_idx)
