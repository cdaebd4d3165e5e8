"""Quota-constrained vertical slate allocation in three phases.

Starting from the anchor point, the allocation phase fills one rank across
all consumers before moving to the next rank, placing for each slot the
most relevant item whose group still has quota headroom of at least the
slot's examination probability. When no item the consumer does not yet
show has such headroom but some group still does, the slot is exchanged
with a consumer already filled at the same rank: that consumer takes a
needy item it does not show, and hands its own item, which this consumer
does not show, over to this slot, so the needy group gains the slot's
probability and the handed item's charge is unchanged. Only when no such
exchange exists does the slot fall back to the most relevant item left,
spending its exposure beyond quota. The appending phase then fills the
remaining (top) slots greedily by relevance, and the re-sorting phase sorts
each consumer's slate by personal relevance, with the constraint that an
allocation-phase item never ends below the rank it was placed at, so its
exposure never drops below what the quota granted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import GroupMap, RelevanceMatrix, identity_groups
from .exposure import ExposureModel
from .quota import compute_quotas, find_anchor

_QUOTA_EPS = 1e-9

ALLOCATION = "allocation"
APPENDING = "appending"
PHASE_TAG = ("", ALLOCATION, APPENDING)  # phase code -> tag


@dataclass(frozen=True, eq=False)
class SlateSet:
    """The m slates of length k produced by an allocator, as index arrays.

    Row c is the slate of consumer `consumer_ids[rows[c]]`, rows in
    allocation order. `items[c, j]` indexes into `item_ids` the item shown
    at rank j + 1, `phase[c, j]` codes the phase that placed it (see
    `PHASE_TAG`) and `pre_rank[c, j]` is its 1-based rank before the
    re-sorting phase, so the no-demotion guarantee can be audited after
    the fact. Ids are mapped only by the CSV writers and by the read-only
    views `order`, `slates`, `provenance` and `pre_ranks`.
    `fallback_used` means some allocation slot was filled beyond its
    group's quota. A same-rank exchange is not a fallback: it charges the
    needy group within its headroom and moves the handed item's charge
    unchanged.
    """

    consumer_ids: tuple           # every consumer id of the dataset
    item_ids: tuple               # every item id of the dataset
    rows: np.ndarray              # (m,) positions in consumer_ids
    items: np.ndarray             # (m, k) item indices, final rank order
    phase: np.ndarray             # (m, k) int8 phase code of items
    pre_rank: np.ndarray          # (m, k) rank of items before re-sort
    fallback_used: bool = False
    allocation_exposure: dict = field(default_factory=dict)  # group -> exposure

    @property
    def order(self):
        """Consumer ids in allocation order."""
        return tuple(self.consumer_ids[r] for r in self.rows.tolist())

    def _item_rows(self):
        return np.array(self.item_ids, dtype=object)[self.items].tolist()

    @property
    def slates(self):
        """consumer_id -> list of item_ids (final)."""
        return dict(zip(self.order, self._item_rows()))

    @property
    def provenance(self):
        """consumer_id -> {item_id: phase tag}."""
        tags = np.array(PHASE_TAG, dtype=object)[self.phase].tolist()
        return {cid: dict(zip(row, row_tags)) for cid, row, row_tags
                in zip(self.order, self._item_rows(), tags)}

    @property
    def pre_ranks(self):
        """consumer_id -> {item_id: rank before re-sort}."""
        return {cid: dict(zip(row, ranks)) for cid, row, ranks
                in zip(self.order, self._item_rows(), self.pre_rank.tolist())}


def _id_ranks(ids):
    """rank[i] = position of ids[i] in ascending lexicographic order."""
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    ranks = np.empty(len(ids), dtype=int)
    ranks[order] = np.arange(len(ids))
    return ranks


def _preferences(scores, id_rank):
    """Per-row item indices by descending score, ties by ascending item id."""
    m, n = scores.shape
    return np.lexsort((np.broadcast_to(id_rank, (m, n)), -scores), axis=1)


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


def _deadlines(probs):
    """deadline[r] = the last rank whose examination probability still
    matches rank r's: r itself when probs strictly decrease, k-1 when they
    are flat."""
    return np.array([np.flatnonzero(probs >= probs[r] - 1e-12).max()
                     for r in range(len(probs))])


def _resort(items, phases, scores_row, id_rank, deadline):
    """Relevance-descending permutation that never demotes allocation items.

    A plain sort can push an allocation-phase item below the rank whose
    examination probability was charged against its group's quota, silently
    shrinking the exposure the quota mechanism just granted. Each
    allocation item placed at rank r therefore may end no lower than
    `deadline[r]` (see `_deadlines`). Ranks are filled top-down with the
    most relevant remaining item, restricted to the deadline-critical items
    whenever deferring them any further would force one past its deadline.
    Whenever the plain sort already meets every deadline, the result is
    identical to it: the critical items pending at rank r must then fill
    ranks r..d exactly, so the plain sort's item at rank r is among them.
    """
    k = len(items)
    placed = np.zeros(k, dtype=bool)
    out = np.empty(k, dtype=int)
    for r in range(k):
        pending = [j for j in range(k) if not placed[j] and phases[j] == 1]
        # critical: the smallest d by which d - r + 1 pending items are
        # due, so they must fill ranks r..d; the (i+1)-th earliest due
        # rank d qualifies once i + 1 >= d - r + 1
        due = sorted(deadline[j] for j in pending)
        critical = next((d for i, d in enumerate(due) if i >= d - r), None)
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
    pref = _preferences(scores, id_rank)  # row c = c's items, best first

    slate = np.full((m, k), -1, dtype=int)
    phase = np.zeros((m, k), dtype=np.int8)  # 1 allocation, 2 appending
    avail = np.ones((m, n), dtype=bool)
    alloc_exp = np.zeros(n_groups)
    fallback_used = False

    if alpha > 0:
        quota = compute_quotas(rel, groups, model, alpha).vector(groups)
        anchor = find_anchor(model, m, alpha)
        by_group = np.argsort(gidx, kind="stable")
        members = np.split(by_group, np.cumsum(
            np.bincount(gidx, minlength=n_groups))[:-1])
        for r in range(anchor.rank - 1, k):
            p = model.probs[r]
            floor = p - _QUOTA_EPS
            # headroom[d]: item d's group can still take a slot of rank r
            headroom = ((quota - alloc_exp) >= floor)[gidx]
            first = anchor.consumer - 1 if r == anchor.rank - 1 else 0
            for c in range(first, m):
                prefs = pref[c]
                unshown = avail[c, prefs]
                hit = headroom[prefs] & unshown
                j = hit.argmax()
                swap = None
                if not hit[j] and headroom.any():
                    swap = _exchange(c, r, slate, avail,
                                     np.flatnonzero(headroom), scores, id_rank)
                if swap is not None:
                    c2, charged = swap
                    d = slate[c2, r]
                    slate[c2, r] = charged
                    avail[c2, d] = True
                    avail[c2, charged] = False
                elif hit[j]:
                    d = charged = prefs[j]
                else:
                    fallback_used = True
                    d = charged = prefs[unshown.argmax()]
                slate[c, r] = d
                phase[c, r] = 1
                avail[c, d] = False
                g = gidx[charged]
                alloc_exp[g] += p
                headroom[members[g]] = quota[g] - alloc_exp[g] >= floor

    # Appending: each consumer's empty slots, in rank order, take its best
    # items not yet shown. A row shows at most k - e items before this
    # phase, where e is its number of empty slots, so its first k
    # preferences hold at least e unshown ones.
    head = pref[:, :k]
    unused = avail[np.arange(m)[:, None], head]
    empty = slate < 0
    take = np.argsort(~unused, axis=1, kind="stable")
    into = np.argsort(~empty, axis=1, kind="stable")
    fill = np.arange(k) < empty.sum(axis=1)[:, None]
    rows = np.nonzero(fill)[0]
    slate[rows, into[fill]] = np.take_along_axis(head, take, axis=1)[fill]
    phase[empty] = 2

    # Re-sort: the plain relevance sort, except on the rows where it would
    # demote an allocation item past its deadline.
    row_scores = np.take_along_axis(scores, slate, axis=1)
    perm = np.lexsort((id_rank[slate], -row_scores), axis=1)
    deadline = _deadlines(model.probs)
    new_rank = np.empty_like(perm)
    np.put_along_axis(new_rank, perm, np.arange(k)[None, :], axis=1)
    late = ((phase == 1) & (new_rank > deadline)).any(axis=1)
    for c in np.flatnonzero(late):
        perm[c] = _resort(slate[c], phase[c], scores[c], id_rank, deadline)
    return SlateSet(
        consumer_ids=rel.consumer_ids, item_ids=rel.item_ids, rows=order,
        items=np.take_along_axis(slate, perm, axis=1),
        phase=np.take_along_axis(phase, perm, axis=1), pre_rank=perm + 1,
        fallback_used=fallback_used,
        allocation_exposure=dict(zip(groups.group_ids, alloc_exp.tolist())),
    )


def allocate_individual(rel: RelevanceMatrix, model: ExposureModel,
                        alpha, seed, shuffle=True) -> SlateSet:
    """Individual-level allocation: every item is its own group."""
    return allocate(rel, identity_groups(rel), model, alpha, seed, shuffle)
