"""Frozen copy of the allocator's allocate, _resort, _pick and _exchange
(and _id_ranks) as they were before the array rewrite of the hot path,
with the dict-shaped SlateSet record they build.

It is the differential reference: `tests/test_allocator_differential.py`
requires the production `verfair.allocator.allocate` to return a SlateSet
equal to this one, field by field. Do not edit the bodies below; they are
deliberately slow and exist only to pin behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference_quota import compute_quotas
from verfair.allocator import ALLOCATION, APPENDING
from verfair.data import GroupMap, RelevanceMatrix
from verfair.exposure import ExposureModel
from verfair.quota import find_anchor

_QUOTA_EPS = 1e-9


@dataclass(frozen=True)
class SlateSet:
    """The m slates of length k produced by an allocator.

    `provenance` tags each placed item with the phase that placed it and
    `pre_ranks` records its 1-based rank before the re-sorting phase, so
    the no-demotion guarantee can be audited after the fact.
    `fallback_used` means some allocation slot was filled beyond its
    group's quota. A same-rank exchange is not a fallback: it charges the
    needy group within its headroom and moves the handed item's charge
    unchanged.
    """

    order: tuple                  # consumer ids in allocation order
    slates: dict                  # consumer_id -> list of item_ids (final)
    provenance: dict              # consumer_id -> {item_id: phase tag}
    pre_ranks: dict               # consumer_id -> {item_id: rank before re-sort}
    fallback_used: bool = False
    allocation_exposure: dict = field(default_factory=dict)  # group -> exposure


def _id_ranks(ids):
    """rank[i] = position of ids[i] in ascending lexicographic order."""
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    ranks = np.empty(len(ids), dtype=int)
    ranks[order] = np.arange(len(ids))
    return ranks


def _pick(scores_row, candidates, id_rank):
    """Most relevant candidate; ties broken by ascending item id."""
    s = scores_row[candidates]
    tied = candidates[s == s.max()]
    return tied[np.argmin(id_rank[tied])]


def _exchange(c, r, slate, avail, needy, scores, id_rank):
    """Same-rank exchange for a slot whose consumer already shows every
    needy item: (c2, y) such that consumer c2, filled earlier at rank r,
    can take the needy item y it does not show and hand its own rank-r
    item, which c does not show, to c. Among all such pairs the one that
    keeps the most relevance (c's score for the handed item, plus c2's for
    y, minus c2's for the handed item) wins; ties go to the smaller item
    id, then the earlier consumer. None when no pair exists."""
    filled = np.flatnonzero(slate[:, r] >= 0)
    handed = slate[filled, r]
    ok = avail[c, handed]
    filled, handed = filled[ok], handed[ok]
    fi, yi = np.nonzero(avail[np.ix_(filled, needy)])
    if fi.size == 0:
        return None
    c2, x, y = filled[fi], handed[fi], needy[yi]
    gain = scores[c, x] + scores[c2, y] - scores[c2, x]
    best = np.lexsort((c2, id_rank[y], -gain))[0]
    return c2[best], y[best]


def _resort(items, phases, scores_row, id_rank, probs):
    """Relevance-descending permutation that never demotes allocation items.

    A plain sort can push an allocation-phase item below the rank whose
    examination probability was charged against its group's quota, silently
    shrinking the exposure the quota mechanism just granted. Each
    allocation item therefore gets a deadline: the last rank whose
    examination probability still matches its placement rank's (the
    placement rank itself when probs strictly decrease; unconstrained when
    probs are flat). Ranks are filled top-down with the most relevant
    remaining item, restricted to the deadline-critical items whenever
    deferring them any further would force one past its deadline. Whenever
    the plain sort already meets every deadline, the result is identical
    to it.
    """
    k = len(items)
    deadline = np.empty(k, dtype=int)
    for r in range(k):
        deadline[r] = np.flatnonzero(probs >= probs[r] - 1e-12).max()
    placed = np.zeros(k, dtype=bool)
    out = np.empty(k, dtype=int)
    for r in range(k):
        pending = [j for j in range(k) if not placed[j] and phases[j] == 1]
        critical = None
        for d in sorted({deadline[j] for j in pending}):
            if sum(deadline[j] <= d for j in pending) >= d - r + 1:
                critical = d
                break
        if critical is not None:
            cands = [j for j in pending if deadline[j] <= critical]
        else:
            cands = [j for j in range(k) if not placed[j]]
        best = min(cands,
                   key=lambda j: (-scores_row[items[j]], id_rank[items[j]]))
        placed[best] = True
        out[r] = best
    return out


def allocate(rel: RelevanceMatrix, groups: GroupMap, model: ExposureModel,
             alpha, seed, shuffle=True) -> SlateSet:
    """Run the full three-phase allocation and return the slate set.

    The consumer order is a seeded shuffle; `shuffle=False` keeps dataset
    order, which pins the order for golden tests. alpha=0 skips the
    allocation phase entirely and degenerates to pure relevance ranking.
    """
    k = model.k
    m, n = rel.m, rel.n
    if n < k:
        raise ValueError(f"need n >= k to fill distinct slates (n={n}, k={k})")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0,1]")

    if shuffle:
        order = np.random.default_rng(seed).permutation(m)
    else:
        order = np.arange(m)
    scores = rel.scores[order]            # row c = consumer at order position c
    id_rank = _id_ranks(rel.item_ids)
    gidx = groups.indices(rel)
    n_groups = len(groups.group_ids)

    slate = np.full((m, k), -1, dtype=int)
    phase = np.zeros((m, k), dtype=np.int8)  # 1 allocation, 2 appending
    avail = np.ones((m, n), dtype=bool)
    alloc_exp = np.zeros(n_groups)
    fallback_used = False

    if alpha > 0:
        quota = compute_quotas(rel, groups, model, alpha).vector(groups)
        anchor = find_anchor(model, m, alpha)
        slots = [(c, anchor.rank) for c in range(anchor.consumer, m + 1)]
        for r in range(anchor.rank + 1, k + 1):
            slots.extend((c, r) for c in range(1, m + 1))
        for c1, r1 in slots:
            c, r = c1 - 1, r1 - 1
            p = model.probs[r]
            headroom_ok = (quota - alloc_exp)[gidx] >= p - _QUOTA_EPS
            candidates = np.flatnonzero(avail[c] & headroom_ok)
            if candidates.size == 0 and headroom_ok.any():
                swap = _exchange(c, r, slate, avail,
                                 np.flatnonzero(headroom_ok), scores, id_rank)
                if swap is not None:
                    c2, y = swap
                    d = slate[c2, r]
                    slate[c2, r], slate[c, r], phase[c, r] = y, d, 1
                    avail[c2, d], avail[c2, y], avail[c, d] = True, False, False
                    alloc_exp[gidx[y]] += p
                    continue
            if candidates.size == 0:
                fallback_used = True
                candidates = np.flatnonzero(avail[c])
            d = _pick(scores[c], candidates, id_rank)
            slate[c, r] = d
            phase[c, r] = 1
            alloc_exp[gidx[d]] += p
            avail[c, d] = False

    for c in range(m):
        for r in range(k):
            if slate[c, r] < 0:
                d = _pick(scores[c], np.flatnonzero(avail[c]), id_rank)
                slate[c, r] = d
                phase[c, r] = 2
                avail[c, d] = False

    order_ids = tuple(rel.consumer_ids[c] for c in order)
    slates, provenance, pre_ranks = {}, {}, {}
    for c, cid in enumerate(order_ids):
        items = slate[c]
        resort = _resort(items, phase[c], scores[c], id_rank, model.probs)
        slates[cid] = [rel.item_ids[d] for d in items[resort]]
        provenance[cid] = {
            rel.item_ids[items[r]]: (ALLOCATION if phase[c, r] == 1 else APPENDING)
            for r in range(k)
        }
        pre_ranks[cid] = {rel.item_ids[items[r]]: r + 1 for r in range(k)}

    return SlateSet(
        order=order_ids,
        slates=slates,
        provenance=provenance,
        pre_ranks=pre_ranks,
        fallback_used=fallback_used,
        allocation_exposure=dict(zip(groups.group_ids, alloc_exp.tolist())),
    )
