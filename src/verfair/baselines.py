"""Comparison allocators and an exhaustive oracle for tiny instances.

All baselines build slates horizontally (one consumer's full list at a
time) and return their (m, k) item index array as the same SlateSet the
vertical allocator returns, so the evaluation stack treats them uniformly.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .allocator import (APPENDING, PHASE_TAG, SlateSet, _id_ranks,
                        _preferences)
from .data import GroupMap, RelevanceMatrix, identity_groups
from .exposure import ExposureModel
from .quota import compute_quotas, group_relevance

_APPENDED = np.int8(PHASE_TAG.index(APPENDING))


def _horizontal(rel: RelevanceMatrix, slate_idx) -> SlateSet:
    """An (m, k) array of item indices in dataset consumer order, every
    item appended at its final rank."""
    m, k = slate_idx.shape
    return SlateSet(rel.consumer_ids, rel.item_ids, np.arange(m), slate_idx,
                    phase=np.broadcast_to(_APPENDED, (m, k)),
                    pre_rank=np.broadcast_to(np.arange(1, k + 1), (m, k)))


def top_k(rel: RelevanceMatrix, model: ExposureModel, k) -> SlateSet:
    """Each consumer's k highest-relevance items, descending."""
    if rel.n < k:
        raise ValueError(f"need n >= k (n={rel.n}, k={k})")
    top = _preferences(rel.scores, _id_ranks(rel.item_ids))[:, :k].copy()
    return _horizontal(rel, top)


def random_k(rel: RelevanceMatrix, k, seed) -> SlateSet:
    """Seeded uniform sample of k items per consumer, in random order."""
    if rel.n < k:
        raise ValueError(f"need n >= k (n={rel.n}, k={k})")
    rng = np.random.default_rng(seed)
    slate_idx = np.array([rng.choice(rel.n, size=k, replace=False)
                          for _ in range(rel.m)])
    return _horizontal(rel, slate_idx)


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
           lam, level="individual") -> SlateSet:
    """Proportional-controller baseline: boost each item's score by its
    group's under-exposure relative to the best exposure-to-relevance
    ratio seen so far, then rank top-k by the boosted score."""
    if rel.n < model.k:
        raise ValueError(f"need n >= k (n={rel.n}, k={model.k})")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if level == "individual":
        groups = identity_groups(rel)
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


_ORACLE_LIMIT = 4_000_000  # max enumerated combinations held in memory at once


def oracle_exact(rel: RelevanceMatrix, groups: GroupMap,
                 model: ExposureModel, alpha):
    """Exhaustively enumerate every assignment of length-k permutations to
    consumers; return (best mean NDCG@k among assignments whose group
    exposures meet every quota within a probs[k] slack, feasible flag).

    Only for tiny instances (m <= 4, n <= 6, k <= 3)."""
    m, n, k = rel.m, rel.n, model.k
    if m > 4 or n > 6 or k > 3:
        raise ValueError("instance too large for exhaustive enumeration")
    gidx = groups.indices(rel)
    n_groups = len(groups.group_ids)
    probs = model.probs
    quota = compute_quotas(rel, groups, model, alpha).vector(groups)
    slack = probs[k - 1] + 1e-9

    choices = list(permutations(range(n), k))
    ideal = -np.sort(-rel.scores, axis=1)[:, :k] @ probs
    per_cons_exp = []   # (n_choices, n_groups) group exposure of each choice
    per_cons_ndcg = []  # (n_choices,) this consumer's NDCG contribution
    for c in range(m):
        exp = np.zeros((len(choices), n_groups))
        dcg = np.empty(len(choices))
        for i, ch in enumerate(choices):
            np.add.at(exp[i], gidx[list(ch)], probs)
            dcg[i] = rel.scores[c, list(ch)] @ probs
        nd = dcg / ideal[c] if ideal[c] > 0 else np.ones(len(choices))
        per_cons_exp.append(exp)
        per_cons_ndcg.append(nd)

    # Fold consumers 2..m into one cross-product table, then stream over
    # consumer 1's choices to bound memory.
    exp_rest = per_cons_exp[-1]
    nd_rest = per_cons_ndcg[-1]
    for c in range(m - 2, 0, -1):
        size = exp_rest.shape[0] * len(choices)
        if size > _ORACLE_LIMIT:
            raise ValueError("instance too large for exhaustive enumeration")
        exp_rest = (per_cons_exp[c][:, None, :] + exp_rest[None, :, :]
                    ).reshape(-1, n_groups)
        nd_rest = (per_cons_ndcg[c][:, None] + nd_rest[None, :]).ravel()

    best = -np.inf
    feasible = False
    if m == 1:
        exp_rest = np.zeros((1, n_groups))
        nd_rest = np.zeros(1)
    for i in range(len(choices)):
        total_exp = exp_rest + per_cons_exp[0][i]
        ok = (total_exp >= quota - slack).all(axis=1)
        if ok.any():
            feasible = True
            cand = (nd_rest[ok] + per_cons_ndcg[0][i]).max()
            best = max(best, cand)
    if not feasible:
        return float("nan"), False
    return float(best / m), True
