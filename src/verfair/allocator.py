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

The allocation phase walks a rank in runs of consumers, not slot by slot.
Every slot charges some group, and a charge only lowers that group's
headroom, so within a rank headroom only shrinks: a consumer's pick (its
first unshown preference whose group has headroom) changes only when the
group of that pick runs out. Each rank therefore picks for all its
consumers at once, commits the longest run in which no group is charged
past its capacity, and re-picks only the consumers whose picked group ran
out. Exchanges and fallbacks stay events taken one consumer at a time,
between runs, in consumer order. The capacities are exact: a group's
exposure after t charges of probability p is a running sum of
[exposure, p, p, ...], which `np.add.accumulate` computes with the same
float additions, in the same order, as one `+= p` per slot, so every
headroom test and every granted exposure is bit-identical to the
slot-by-slot walk kept in `tests/reference_allocator.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import GroupMap, RelevanceMatrix, identity_groups
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


def _picks(rows, start, pref, avail, open_item, budget):
    """(at, item): the first position at or after `start` in each row's
    preferences whose item is open and not shown by the row, and that
    item; n and -1 where there is none.

    Rows are read a window of preferences at a time, the window doubling
    for the rows still without a hit while at most `budget` preferences
    are gathered at once, so no temporary grows to (m, n).
    """
    n = pref.shape[1]
    at = np.full(len(rows), n)
    item = np.full(len(rows), -1)
    todo = np.flatnonzero(start < n)
    lo = start[todo]
    width = _PICK_DEPTH
    while todo.size:
        cols = lo[:, None] + np.arange(width)
        row = rows[todo, None]
        items = pref[row, np.minimum(cols, n - 1)]
        hit = open_item[items] & avail[row, items] & (cols < n)
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
    """Consumer c's most relevant item not shown yet. c shows at most r
    items before rank r, so it is among c's first r + 1 preferences."""
    prefs = pref[c, :r + 1]
    return prefs[avail[c, prefs].argmax()]


def _allocate_rank(r, first, p, quota, alloc_exp, gidx, pref, avail, slate,
                   scores, id_rank):
    """Fill rank r of consumers first..m-1 in order, each slot with the
    consumer's first unshown preference whose group has headroom, else an
    exchange, else the fallback; charge `alloc_exp` and return whether a
    fallback was used.

    Within a rank headroom only shrinks, so a consumer's pick stays valid
    until the group of that pick runs out. The walk therefore picks for
    every remaining consumer at once and commits, in one step, the longest
    run of consumers in which no group is charged past its capacity. The
    consumer after the run either picked a group that just ran out, and
    is re-picked from where its old pick stood, or has no pick, and takes
    an exchange or the fallback on its own.
    """
    m, n = avail.shape
    n_groups = len(quota)
    rows = np.arange(first, m)
    cap, acc = _capacities(quota, alloc_exp, p, len(rows))
    # pick -1 (none) maps to a sentinel group of capacity 0, which is
    # always open and always ends a run
    cap = np.append(cap, 0)
    group = np.append(gidx, n_groups)
    count = np.zeros(n_groups + 1, dtype=int)
    open_item = np.ones(n + 1, dtype=bool)
    open_item[:n] = (cap > 0)[gidx]
    budget = len(rows) * _PICK_DEPTH
    at, pick = _picks(rows, np.zeros(len(rows), dtype=int), pref, avail,
                      open_item, budget)
    fallback = False
    pos = 0
    while pos < len(rows):
        stale = pos + np.flatnonzero(~open_item[pick[pos:]])
        if stale.size:
            at[stale], pick[stale] = _picks(rows[stale], at[stale] + 1, pref,
                                            avail, open_item, budget)
        g = group[pick[pos:]]
        # the run ends at the first consumer whose group the consumers
        # before it in the run have already charged to capacity
        by_group = np.argsort(g, kind="stable")
        sorted_g = g[by_group]
        seen = np.arange(g.size) - np.searchsorted(sorted_g, sorted_g)
        over = by_group[seen >= (cap - count)[sorted_g]]
        end = over.min() if over.size else g.size
        _place(slate, avail, r, rows[pos:pos + end], pick[pos:pos + end])
        count += np.bincount(g[:end], minlength=n_groups + 1)
        open_item[:n] = (count < cap)[gidx]
        pos += end
        if pos == len(rows) or pick[pos] >= 0:
            continue
        c = rows[pos]
        swap = None
        if open_item[:n].any():
            swap = _exchange(c, r, slate, avail, np.flatnonzero(open_item[:n]),
                             scores, id_rank)
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
        open_item[:n] = (count < cap)[gidx]
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
        for r in range(anchor.rank - 1, k):
            first = anchor.consumer - 1 if r == anchor.rank - 1 else 0
            fallback_used |= _allocate_rank(
                r, first, model.probs[r], quota, alloc_exp, gidx, pref,
                avail, slate, scores, id_rank)
        phase[slate >= 0] = 1

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
