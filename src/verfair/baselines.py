"""Comparison allocators.

All baselines build slates horizontally (one consumer's full list at a
time) and return their (m, k) item index array as the same SlateSet the
vertical allocator returns, so the evaluation stack treats them uniformly.
"""

from __future__ import annotations

import numpy as np

from .allocator import APPENDING, PHASE_TAG, SlateSet
from .data import (GroupMap, RelevanceMatrix, _id_ranks, _partitions,
                   identity_groups)
from .exposure import ExposureModel
from .quota import compute_quotas, group_relevance

_APPENDED = np.int8(PHASE_TAG.index(APPENDING))
_FMAX = np.finfo(float).max


def _horizontal(rel: RelevanceMatrix, slate_idx) -> SlateSet:
    """An (m, k) array of item indices in dataset consumer order, every
    item appended at its final rank."""
    m, k = slate_idx.shape
    return SlateSet(rel.consumer_ids, rel.item_ids, np.arange(m), slate_idx,
                    phase=np.broadcast_to(_APPENDED, (m, k)),
                    pre_rank=np.broadcast_to(np.arange(1, k + 1), (m, k)))


def top_k(rel: RelevanceMatrix, k) -> SlateSet:
    """Each consumer's k highest-relevance items, descending: the first k
    of `rel.preferences`."""
    if rel.n < k:
        raise ValueError(f"need n >= k (n={rel.n}, k={k})")
    return _horizontal(rel, rel.preferences(k))


def random_k(rel: RelevanceMatrix, k, seed) -> SlateSet:
    """Seeded uniform sample of k items per consumer, in random order."""
    if rel.n < k:
        raise ValueError(f"need n >= k (n={rel.n}, k={k})")
    rng = np.random.default_rng(seed)
    slate_idx = np.array([rng.choice(rel.n, size=k, replace=False)
                          for _ in range(rel.m)])
    return _horizontal(rel, slate_idx)


def _top_k(neg, id_rank, k):
    """The first k of `np.lexsort((id_rank, neg))`: positions of the k
    smallest `neg`, ties by ascending id rank, nan last.

    When n is large against k (`_partitions(n, k)`) it keeps only the
    entries not above the k-th smallest value, found by `np.partition`,
    and sorts those. That is faster when few entries tie at the k-th
    value; when most do, it sorts nearly all n after the partition."""
    if not _partitions(neg.size, k):
        return np.lexsort((id_rank, neg))[:k]
    kth = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(~(neg > kth))  # nan is never above: kept, sorts last
    return cand[np.lexsort((id_rank[cand], neg[cand]))[:k]]


def pr_k(rel: RelevanceMatrix, model: ExposureModel) -> SlateSet:
    """Pure-fairness baseline: give each consumer the k most under-exposed
    items relative to their full fair share (alpha=1), largest deficit at
    the top rank, ties by item id (`_top_k`), updating the running ledger
    after each slate."""
    k = model.k
    if rel.n < k:
        raise ValueError(f"need n >= k (n={rel.n}, k={k})")
    id_rank = _id_ranks(rel.item_ids)
    quota_vec = compute_quotas(rel, identity_groups(rel), model, 1.0)
    probs = model.probs
    exposure = np.zeros(rel.n)
    slate_idx = np.empty((rel.m, k), dtype=int)
    for c in range(rel.m):
        # exposure - quota is -(quota - exposure) up to the sign of 0
        picks = _top_k(exposure - quota_vec, id_rank, k)
        slate_idx[c] = picks
        exposure[picks] += probs
    return _horizontal(rel, slate_idx)


def fairco(rel: RelevanceMatrix, groups: GroupMap, model: ExposureModel,
           lam) -> SlateSet:
    """Proportional-controller baseline: boost each item's score by its
    group's under-exposure relative to the best exposure-to-relevance
    ratio seen so far, then rank top-k by the boosted score, ties by
    item id (`_top_k`). It works at the level of `groups`;
    `identity_groups(rel)` gives individual level."""
    if rel.n < model.k:
        raise ValueError(f"need n >= k (n={rel.n}, k={model.k})")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be a finite number >= 0")
    gidx = groups.indices(rel)
    rg = group_relevance(rel, groups)
    positive = rg > 0
    # exposure / inf = 0 keeps groups without relevance out of the max
    rg_safe = np.where(positive, rg, np.inf)
    id_rank = _id_ranks(rel.item_ids)
    k = model.k
    probs = model.probs[:k]
    exposure = np.zeros(len(groups.group_ids))
    slate_idx = np.empty((rel.m, k), dtype=int)
    # A subnormal relevance can overflow a ratio to inf, and inf - inf
    # would be nan; the largest double keeps every err finite, so lam=0
    # ranks as top_k and no boost is nan.
    with np.errstate(over="ignore"):
        for c in range(rel.m):
            ratio = np.minimum(exposure / rg_safe, _FMAX)
            err = np.where(positive, np.maximum(0.0, ratio.max() - ratio), 0.0)
            picks = _top_k(-(rel.scores[c] + lam * err[gidx]), id_rank, k)
            slate_idx[c] = picks
            np.add.at(exposure, gidx[picks], probs)
    return _horizontal(rel, slate_idx)
