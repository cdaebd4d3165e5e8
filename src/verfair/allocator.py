"""Quota-constrained vertical slate allocation in three phases.

Starting from the anchor point, the allocation phase fills one rank across
all consumers before moving to the next rank, placing for each slot the
most relevant item whose group still has quota headroom of at least the
slot's examination probability. When the consumer already shows every
item with such headroom but some group still has it, a consumer filled
earlier at the same rank takes a needy item and hands its own to this
slot (`_exchange`). Only when no such exchange exists does the slot fall
back to the most relevant item left, spending its exposure beyond quota.
The appending phase then fills the remaining (top) slots greedily by
relevance, and the re-sorting phase sorts each consumer's slate by
personal relevance, with the constraint that an allocation-phase item
never ends below the rank it was placed at, so its exposure never drops
below what the quota granted.

Every slate set is bit-identical to that of the slot-by-slot walk kept in
`tests/reference_allocator.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupMap, RelevanceMatrix, _id_ranks, identity_groups
from .exposure import ExposureModel
from .quota import compute_quotas, find_anchor

_QUOTA_EPS = 1e-9
# Preferences read per row before a pick looks further down the row. The
# first pick of a rank gathers (m, _PICK_DEPTH) of them at once: at 16 the
# benchmark's alloc-ind peak RSS rose by up to 5.6% over the slot-by-slot
# walk on some seeds, at 8 by at most 2.7%, with no loss of speed.
_PICK_DEPTH = 8

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
    unchanged. `allocation_exposure` is the exposure the allocation phase
    granted each group, ordered like the group map's group_ids; the
    horizontal baselines leave it None.
    """

    consumer_ids: tuple           # every consumer id of the dataset
    item_ids: tuple               # every item id of the dataset
    rows: np.ndarray              # (m,) positions in consumer_ids
    items: np.ndarray             # (m, k) item indices, final rank order
    phase: np.ndarray             # (m, k) int8 phase code of items
    pre_rank: np.ndarray          # (m, k) rank of items before re-sort
    fallback_used: bool = False
    allocation_exposure: np.ndarray = None  # (n_groups,) or None

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


def _exchange(c, r, slate, avail, needy, scores, order, id_rank):
    """Same-rank exchange for a slot whose consumer already shows every
    needy item: (c2, y) such that consumer c2, filled earlier at rank r,
    can take the needy item y it does not show and hand its own rank-r
    item, which c does not show, to c. Among all such pairs the one that
    keeps the most relevance (c's score for the handed item, plus c2's for
    y, minus c2's for the handed item) wins; ties go to the smaller item
    id, then the earlier consumer. None when no pair exists. Consumer c
    of the allocation order is row order[c] of `scores`."""
    filled = np.flatnonzero(slate[:, r] >= 0)
    handed = slate[filled, r]
    ok = avail[c, handed]
    filled, handed = filled[ok], handed[ok]
    fi, yi = np.nonzero(avail[np.ix_(filled, needy)])
    if fi.size == 0:
        return None
    c2, x, y = filled[fi], handed[fi], needy[yi]
    u, u2 = order[c], order[c2]
    gain = scores[u, x] + scores[u2, y] - scores[u2, x]
    best = np.lexsort((c2, id_rank[y], -gain))[0]
    return c2[best], y[best]


def _capacities(quota, alloc_exp, p, slots):
    """(cap, acc): group g has headroom for a slot of probability p while
    it has been charged fewer than cap[g] slots of this rank, and
    acc[g, t] is its exposure after t such charges.

    acc is one `np.add.accumulate` of [alloc_exp[g], p, p, ...], the same
    sequence of float additions as one `alloc_exp[g] += p` per slot, and
    `quota - acc` only shrinks along a row, so cap and the exposures read
    off acc are bit-identical to a slot-by-slot walk. The width starts at
    the largest capacity the quotients suggest and doubles until every
    group's capacity fits, or reaches `slots`, beyond which it is moot.
    """
    floor = p - _QUOTA_EPS
    room = max((quota - alloc_exp).max() - floor, 0.0)
    width = slots if room >= p * (slots - 2) else int(room / p) + 2
    while True:
        steps = np.full((len(quota), width + 1), p)
        steps[:, 0] = alloc_exp
        acc = np.add.accumulate(steps, axis=1)
        headroom = quota[:, None] - acc >= floor
        if width == slots or not headroom[:, -1].any():
            return headroom.sum(axis=1), acc
        width = min(slots, 2 * width)


def _picks(rows, start, position, pref, avail, last, budget):
    """(at, item): the first index at or after `start` in each row's
    preferences whose item is open where the row stands in the rank
    (`last[item] >= position`) and not shown by the row, and that item; n
    and -1 where there is none.

    Rows are read a window of preferences at a time, the window doubling
    for the rows still without a hit while at most `budget` preferences
    are gathered at once, so no temporary grows to (m, n).
    """
    n = pref.shape[1]
    flat_pref, flat_avail = pref.ravel(), avail.ravel()
    at = np.full(len(rows), n)
    item = np.full(len(rows), -1)
    todo = np.flatnonzero(start < n)
    lo = start[todo]
    width = _PICK_DEPTH
    while todo.size:
        cols = lo[:, None] + np.arange(width)
        base = rows[todo, None] * n
        items = flat_pref.take(base + np.minimum(cols, n - 1))
        hit = ((last[items] >= position[todo, None])
               & flat_avail.take(base + items) & (cols < n))
        j = hit.argmax(axis=1)
        found = hit[np.arange(todo.size), j]
        at[todo[found]] = lo[found] + j[found]
        item[todo[found]] = items[found, j[found]]
        lo = lo[~found] + width
        todo = todo[~found]
        todo, lo = todo[lo < n], lo[lo < n]
        width = max(_PICK_DEPTH, min(2 * width, budget // max(todo.size, 1)))
    return at, item


def _place(slate, avail, r, consumers, items):
    """Show each consumer its item at rank r."""
    slate[consumers, r] = items
    avail[consumers, items] = False


def _fallback(c, r, pref, avail):
    """The most relevant item not shown yet of consumer c, or of each
    consumer in the array c. A consumer shows at most r items before rank
    r, so it is among its first r + 1 preferences."""
    rows = np.atleast_1d(c)
    prefs = pref[rows, :r + 1]
    best = avail[rows[:, None], prefs].argmax(axis=1)
    items = prefs[np.arange(len(rows)), best]
    return items if np.ndim(c) else items[0]


def _closing(g, room, pos, size):
    """(end, over, last) for the consumers at positions pos..size-1 of a
    rank, whose picks are in groups g, when group h can still be charged
    room[h] times.

    last[h] is h's closing position, the position of its room[h]-th
    picker: pos - 1 when it has no room, `size` when fewer consumers pick
    it. `over` holds the positions of the consumers past their group's
    closing position, and `end` is the first of them (`size` if none).
    """
    by_group = np.argsort(g, kind="stable")
    sorted_g = g[by_group]
    pickers = np.bincount(g, minlength=room.size)
    seen = np.arange(g.size) - (np.cumsum(pickers) - pickers)[sorted_g]
    need = room[sorted_g]
    last = np.where(room > 0, size, pos - 1)
    closes = seen == need - 1
    last[sorted_g[closes]] = pos + by_group[closes]
    over = pos + by_group[seen >= need]
    return (over.min() if over.size else size), over, last


def _allocate_rank(r, first, p, quota, alloc_exp, gidx, pref, avail, slate,
                   scores, order, id_rank):
    """Fill rank r of consumers first..m-1 in order, each slot with the
    consumer's first unshown preference whose group has headroom, else an
    exchange, else the fallback; charge `alloc_exp` and return whether a
    fallback was used.

    Within a rank headroom only shrinks, so the walk picks for every
    remaining consumer at once and then makes passes. Each pass reads,
    from the current picks, every group's closing position (the position
    of its last picker within capacity, `_closing`), commits the run of
    consumers before the first one past its group's closing position, and
    re-picks every consumer past its group's closing position, from where
    its old pick stood, with a group open at a position only up to its
    closing position. A re-pick only adds pickers later in the rank, so
    closing positions read from the current picks are upper bounds on the
    true ones: a consumer found past one is truly shut out of that group,
    and every preference a pick skips is truly closed to it. A consumer
    left with no pick takes an exchange or the fallback on its own. Once
    no group has headroom, every consumer left falls back, all at once.
    """
    m = len(avail)
    n_groups = len(quota)
    rows = np.arange(first, m)
    size = len(rows)
    cap, acc = _capacities(quota, alloc_exp, p, size)
    # pick -1 (none) maps to a sentinel group of capacity 0, which is
    # always closed, so a consumer without a pick always ends a run. Group
    # codes take the smallest unsigned type that holds them: up to 16 bits,
    # numpy's stable argsort is a radix sort.
    cap = np.append(cap, 0)
    group = np.append(gidx, n_groups).astype(np.min_scalar_type(n_groups))
    count = np.zeros(n_groups + 1, dtype=int)
    budget = size * _PICK_DEPTH
    last = np.where(cap > 0, size, -1)
    at, pick = _picks(rows, np.zeros(size, dtype=int), np.arange(size), pref,
                      avail, last[gidx], budget)
    fallback = False
    pos = 0
    while pos < size:
        g = group[pick[pos:]]
        end, over, last = _closing(g, cap - count, pos, size)
        _place(slate, avail, r, rows[pos:end], pick[pos:end])
        count += np.bincount(g[:end - pos], minlength=n_groups + 1)
        pos = end
        if pos == size:
            break
        open_item = (count < cap)[gidx]
        if not open_item.any():
            # counts only rise, so every consumer left falls back
            d = _fallback(rows[pos:], r, pref, avail)
            _place(slate, avail, r, rows[pos:], d)
            count[:n_groups] += np.bincount(gidx[d], minlength=n_groups)
            fallback = True
            break
        stale = over[pick[over] >= 0]
        if stale.size:
            at[stale], pick[stale] = _picks(rows[stale], at[stale] + 1,
                                            stale, pref, avail, last[gidx],
                                            budget)
        if pick[pos] >= 0:
            continue
        c = rows[pos]
        swap = _exchange(c, r, slate, avail, np.flatnonzero(open_item),
                         scores, order, id_rank)
        if swap is not None:
            c2, charged = swap
            d = slate[c2, r]
            slate[c2, r] = charged
            avail[c2, d] = True
            avail[c2, charged] = False
        else:
            fallback = True
            d = charged = _fallback(c, r, pref, avail)
        _place(slate, avail, r, c, d)
        count[gidx[charged]] += 1
        pos += 1
    width = acc.shape[1] - 1
    count = count[:n_groups]
    alloc_exp[:] = acc[np.arange(n_groups), np.minimum(count, width)]
    for g in np.flatnonzero(count > width):
        # fallbacks charged g past the width acc was built to
        alloc_exp[g] = np.add.accumulate(
            np.append(alloc_exp[g], np.full(count[g] - width, p)))[-1]
    return fallback


def _deadlines(probs):
    """deadline[r] = the last rank whose examination probability still
    matches rank r's: r itself when probs strictly decrease, k-1 when they
    are flat."""
    return np.array([np.flatnonzero(probs >= probs[r] - 1e-12).max()
                     for r in range(len(probs))])


def _resort(plain_rank, last):
    """Relevance-descending slot orders that never demote allocation
    items, one per row of `plain_rank`, the 0-based rank of each slot in
    its row's plain sort by (score descending, item id ascending); slot j
    may end no lower than rank `last[:, j]`.

    A plain sort can push an allocation-phase item below the rank whose
    examination probability was charged against its group's quota, silently
    shrinking the exposure the quota mechanism just granted, so an
    allocation item placed at rank r gets `last` = `deadline[r]` (see
    `_deadlines`) and every other slot k - 1. Ranks are filled bottom-up
    (Lawler's backward rule): rank t takes the least relevant slot not yet
    placed whose `last` is at least t. Some slot always qualifies, as the
    order before the re-sort meets every `last`. Of the orders that
    meet every `last`, the result ranks the most relevant items first,
    compared rank by rank from the top, so where the plain sort meets
    every `last`, it is the result.
    """
    rows, k = plain_rank.shape
    at = np.arange(rows)
    rank = plain_rank.copy()   # -1 once placed
    out = np.empty((rows, k), dtype=int)
    for t in range(k - 1, -1, -1):
        best = np.where(last >= t, rank, -1).argmax(axis=1)
        rank[at, best] = -1
        out[:, t] = best
    return out


def allocate(rel: RelevanceMatrix, groups: GroupMap, model: ExposureModel,
             alpha, seed, shuffle=True) -> SlateSet:
    """Run the full three-phase allocation and return the slate set.

    The consumer order is a seeded shuffle; `shuffle=False` keeps dataset
    order, which pins the order for golden tests. Every slate is re-sorted
    by `_resort`, which keeps each allocation item at or above its deadline
    rank. alpha=0 has no allocation phase and degenerates to pure relevance
    ranking: each slate is the consumer's first k preferences, returned
    as they are.
    """
    k = model.k
    m, n = rel.m, rel.n
    if n < k:
        raise ValueError(f"need n >= k to fill distinct slates (n={n}, k={k})")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0,1]")
    # with no allocation phase only the appending phase reads the
    # preferences, and only the first k
    depth = n if alpha > 0 else k
    order = (np.random.default_rng(seed).permutation(m) if shuffle
             else np.arange(m))
    pref = rel.preferences(depth)[order]  # row c = c's items, best first
    alloc_exp = np.zeros(len(groups.group_ids))
    if alpha == 0:
        # every slot is appended, and each row's first k preferences are
        # already in its plain sort, which meets every deadline
        return SlateSet(
            consumer_ids=rel.consumer_ids, item_ids=rel.item_ids, rows=order,
            items=pref[:, :k], phase=np.full((m, k), 2, dtype=np.int8),
            pre_rank=np.tile(np.arange(1, k + 1), (m, 1)),
            allocation_exposure=alloc_exp)

    slate = np.full((m, k), -1, dtype=int)
    fallback_used = False
    gidx = groups.indices(rel)
    id_rank = _id_ranks(rel.item_ids)
    avail = np.ones((m, n), dtype=bool)  # items each row does not show yet
    quota = compute_quotas(rel, groups, model, alpha)
    anchor = find_anchor(model, m, alpha)
    for r in range(anchor.rank - 1, k):
        first = anchor.consumer - 1 if r == anchor.rank - 1 else 0
        fallback_used |= _allocate_rank(
            r, first, model.probs[r], quota, alloc_exp, gidx, pref,
            avail, slate, rel.scores, order, id_rank)

    # Appending: each consumer's empty slots, in rank order, take its best
    # items its slate does not show. The allocation phase fills whole ranks
    # from the anchor down, so a row's e empty slots are its first e ranks,
    # and its first k preferences hold at least e unshown ones.
    head = pref[:, :k]
    empty = slate < 0
    unused = np.ones((m, k), dtype=bool)
    for shown in slate.T:  # by rank: `.all` over an (m, k, k) is 2x slower
        unused &= head != shown[:, None]
    take = np.argsort(~unused, axis=1, kind="stable")
    slate[empty] = np.take_along_axis(head, take, axis=1)[empty]
    phase = np.where(empty, 2, 1).astype(np.int8)  # 2 appending

    # Re-sort: by relevance, no allocation item below its deadline
    row_scores = rel.scores[order[:, None], slate]
    plain = np.lexsort((id_rank[slate], -row_scores), axis=1)
    perm = _resort(np.argsort(plain, axis=1),
                   np.where(phase == 1, _deadlines(model.probs), k - 1))
    return SlateSet(
        consumer_ids=rel.consumer_ids, item_ids=rel.item_ids, rows=order,
        items=np.take_along_axis(slate, perm, axis=1),
        phase=np.take_along_axis(phase, perm, axis=1), pre_rank=perm + 1,
        fallback_used=fallback_used,
        allocation_exposure=alloc_exp,
    )


def allocate_individual(rel: RelevanceMatrix, model: ExposureModel,
                        alpha, seed, shuffle=True) -> SlateSet:
    """Individual-level allocation: every item is its own group."""
    return allocate(rel, identity_groups(rel), model, alpha, seed, shuffle)
