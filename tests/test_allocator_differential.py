"""The allocator must return exactly what the frozen reference returns.

`reference_allocator.py` holds the slot-by-slot allocator that the array
implementation in `verfair.allocator` replaced. Every SlateSet field is
compared with `==`, so slates, phase tags, pre-re-sort ranks, the fallback
flag and the granted exposure must all be bit-identical.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_allocator
import verfair.allocator as allocator
import verfair.data as data
import verfair.harness as harness
import verfair.metrics as metrics
from helpers import random_groups
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, find_anchor,
                     identity_groups, synth_relevance, top_k)
from verfair.allocator import ALLOCATION, _deadlines, _resort

FIELDS = ("order", "slates", "provenance", "pre_ranks", "fallback_used")


def assert_same(rel, groups, model, alpha, seed, shuffle=True):
    got = allocator.allocate(rel, groups, model, alpha, seed, shuffle)
    want = reference_allocator.allocate(rel, groups, model, alpha, seed,
                                        shuffle)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), \
            (name, rel.m, rel.n, model.k, alpha, seed)
    assert got.allocation_exposure.tolist() == \
        list(want.allocation_exposure.values()), \
        ("allocation_exposure", rel.m, rel.n, model.k, alpha, seed)
    return want


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 12), k=st.integers(1, 5), extra=st.integers(0, 8),
       eta=st.sampled_from([0.0, 1.0, 2.0]),
       alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       grouped=st.booleans(), tied=st.booleans(), shuffle=st.booleans(),
       seed=st.integers(0, 10_000))
def test_hypothesis_sweep(m, k, extra, eta, alpha, grouped, tied, shuffle,
                          seed):
    rel = synth_relevance(m, k + extra, seed=seed)
    if tied:  # three score levels, so the item-id tie-breaks decide
        rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids,
                              np.ceil(rel.scores * 3) / 3)
    groups = (random_groups(rel, np.random.default_rng(seed)) if grouped
              else identity_groups(rel))
    assert_same(rel, groups, ExposureModel.pbm(eta, k), alpha, seed, shuffle)


def test_acceptance_03_family():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        m = int(rng.integers(10, 201))
        n = int(rng.integers(15, 51))
        k = int(rng.integers(3, 11))
        eta = float(rng.choice([0.0, 1.0, 2.0]))
        alpha = float(rng.choice([0.3, 0.7, 1.0]))
        rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
        assert_same(rel, identity_groups(rel), ExposureModel.pbm(eta, k),
                    alpha, seed=trial)


def test_acceptance_06_family():
    rng = np.random.default_rng(7)
    for trial in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(3, 7))
        rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
        model = ExposureModel.pbm(float(rng.choice([0.0, 1.0])), 2)
        for alpha in (0.0, 0.5, 1.0):
            assert_same(rel, identity_groups(rel), model, alpha, seed=trial)


def test_tiny_family_with_exchanges(monkeypatch):
    # the seeded family in which the same-rank exchange fires
    exchanged = []

    def counting_exchange(*args):
        swap = real_exchange(*args)
        exchanged.append(swap is not None)
        return swap

    real_exchange = allocator._exchange
    monkeypatch.setattr(allocator, "_exchange", counting_exchange)
    rng = np.random.default_rng(11)
    for trial in range(2000):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 7))
        eta = float(rng.choice([0.0, 1.0, 2.0]))
        alpha = float(rng.choice([0.3, 0.7, 1.0]))
        rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
        assert_same(rel, identity_groups(rel), ExposureModel.pbm(eta, k),
                    alpha, seed=trial)
    assert sum(exchanged) > 0


def test_large_instance_resorts_every_row_once(monkeypatch):
    resorted = []

    def counting_resort(plain_rank, *args):
        resorted.append(len(plain_rank))
        return real_resort(plain_rank, *args)

    real_resort = allocator._resort
    monkeypatch.setattr(allocator, "_resort", counting_resort)
    rel = synth_relevance(2000, 100, seed=1)
    model = ExposureModel.pbm(1.0, 10)
    for alpha in (0.7, 1.0):
        assert_same(rel, identity_groups(rel), model, alpha, seed=7)
    assert resorted == [rel.m, rel.m]


def skewed_groups(m, seed):
    """m x 100 beta(0.5, 2) scores over 20 groups of unequal size, each
    group's scores scaled by a weight from 1.0 down to 0.3, so the popular
    groups run out of headroom within a rank."""
    sizes = (12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1)
    rng = np.random.default_rng(seed)
    label = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    weight = np.linspace(1.0, 0.3, len(sizes))[label]
    rel = RelevanceMatrix(tuple(f"u{i}" for i in range(m)),
                          tuple(f"d{j:03d}" for j in range(len(label))),
                          rng.beta(0.5, 2.0, size=(m, len(label))) * weight)
    group_ids = tuple(f"g{g:02d}" for g in range(len(sizes)))
    return rel, GroupMap({d: group_ids[g] for d, g in
                          zip(rel.item_ids, label)}, group_ids)


@pytest.mark.parametrize("eta, alphas", [(2.0, (0.25, 0.5, 0.75, 1.0)),
                                         (0.0, (0.55, 1.0))])
def test_large_grouped_instance_commits_runs_between_events(
        monkeypatch, eta, alphas):
    # ranks are committed in runs of many consumers, exchanges between two
    # runs of a rank still take one consumer at a time, and once no group
    # has headroom the rest of the rank falls back in one batch, each slot
    # filled as the reference fills it
    log = []
    tails = []

    def counting_place(slate, avail, r, consumers, items):
        if np.size(consumers):
            log.append(("run", r, int(np.min(consumers)),
                        int(np.size(consumers))))
        return real_place(slate, avail, r, consumers, items)

    def counting_exchange(c, r, *args):
        log.append(("_exchange", r, int(c), 1))
        return real_exchange(c, r, *args)

    def recording_fallback(c, r, pref, avail):
        d = real_fallback(c, r, pref, avail)
        if np.ndim(c):
            tails.append((r, np.array(c), np.array(d)))
        else:
            log.append(("_fallback", r, int(c), 1))
        return d

    real_place = allocator._place
    real_exchange = allocator._exchange
    real_fallback = allocator._fallback
    monkeypatch.setattr(allocator, "_place", counting_place)
    monkeypatch.setattr(allocator, "_exchange", counting_exchange)
    monkeypatch.setattr(allocator, "_fallback", recording_fallback)
    rel, groups = skewed_groups(1000, seed=0)
    model = ExposureModel.pbm(eta, 10)
    # the first alpha's anchor falls mid-rank
    assert find_anchor(model, rel.m, alphas[0]).consumer > 1
    for alpha in alphas:
        tails.clear()
        want = assert_same(rel, groups, model, alpha, seed=0)
        assert tails, alpha
        for r, consumers, items in tails:
            assert consumers.size > 1
            for c, d in zip(consumers.tolist(), items.tolist()):
                cid, item = want.order[c], rel.item_ids[d]
                assert want.pre_ranks[cid][item] == r + 1, (alpha, r, c)
                assert want.provenance[cid][item] == ALLOCATION
    assert max(size for kind, _, _, size in log if kind == "run") >= rel.m // 2
    mid_rank = {
        kind for i, (kind, r, c, _) in enumerate(log) if kind != "run"
        and any(e[0] == "run" and e[1] == r and e[3] > 1 for e in log[:i])
        and any(e[0] == "run" and e[1] == r and e[2] > c for e in log[i:])}
    if eta == 2.0:
        assert "_exchange" in mid_rank


def test_closing_positions_take_few_passes(monkeypatch):
    # each pass re-picks every consumer past its group's closing position,
    # not only the consumers of the groups its run closed (63 passes on
    # this instance), and the fallbacks after the last group closes take
    # one step, not one pass each: the walk takes 23 passes
    passes = []

    def counting_closing(*args):
        passes.append(1)
        return real_closing(*args)

    real_closing = allocator._closing
    monkeypatch.setattr(allocator, "_closing", counting_closing)
    rel = synth_relevance(2000, 100, seed=1)
    assert_same(rel, identity_groups(rel), ExposureModel.pbm(1.0, 10), 1.0,
                seed=7)
    assert len(passes) <= 40


@pytest.mark.parametrize("m", [1000, 10_000])
@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_wide_instances_match_reference(m, alpha):
    rel = synth_relevance(m, 1000, seed=1)
    assert_same(rel, identity_groups(rel), ExposureModel.pbm(1.0, 10), alpha,
                seed=7)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), extra=st.integers(0, 4),
       eta=st.sampled_from([0.0, 1.0, 2.0]), plateaus=st.booleans(),
       seed=st.integers(0, 10_000))
def test_resort_matches_reference(k, extra, eta, plateaus, seed):
    rng = np.random.default_rng(seed)
    n = k + extra
    scores_row = rng.choice([0.1, 0.4, 0.7, 1.0], size=n)  # ties on purpose
    id_rank = rng.permutation(n)
    items = rng.permutation(n)[:k]
    phases = rng.choice(np.array([1, 2], dtype=np.int8), size=k)
    if plateaus:
        # such as [1, .6, .6, .3]: deadlines neither each rank's own (pbm
        # at eta > 0) nor all k - 1 (pbm at eta 0)
        probs = np.sort(rng.choice([1.0, 0.6, 0.3], size=k))[::-1]
    else:
        probs = ExposureModel.pbm(eta, k).probs
    plain = np.lexsort((id_rank[items], -scores_row[items]))
    last = np.where(phases == 1, _deadlines(probs), k - 1)
    got = _resort(np.argsort(plain)[None], last[None])[0]
    want = reference_allocator._resort(items, phases, scores_row, id_rank,
                                       probs)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_batched_resort_matches_reference_on_every_late_row(monkeypatch,
                                                            alpha):
    # every row, on a wide input where hundreds of plain sorts demote an
    # allocation item past its deadline
    calls = []

    def recording_resort(*args):
        out = real_resort(*args)
        calls.append((args, out))
        return out

    real_resort = allocator._resort
    monkeypatch.setattr(allocator, "_resort", recording_resort)
    rel = synth_relevance(1000, 1000, seed=1)
    model = ExposureModel.pbm(1.0, 10)
    s = allocator.allocate(rel, identity_groups(rel), model, alpha, seed=1)
    [((plain_rank, last), out)] = calls
    # the slates as they were before the re-sort, and what it was given:
    # each slot's plain-sort rank, and its deadline if an allocation item
    pre = s.pre_rank - 1
    items = np.empty_like(s.items)
    np.put_along_axis(items, pre, s.items, axis=1)
    phase = np.empty_like(s.phase)
    np.put_along_axis(phase, pre, s.phase, axis=1)
    scores = rel.scores[s.rows]
    id_rank = data._id_ranks(rel.item_ids)
    want_rank = np.argsort(np.lexsort(
        (id_rank[items], -np.take_along_axis(scores, items, axis=1)),
        axis=1), axis=1)
    deadline = _deadlines(model.probs)
    late = np.flatnonzero(((phase == 1) & (want_rank > deadline)).any(axis=1))
    assert len(late) >= 300
    assert plain_rank.tolist() == want_rank.tolist()
    assert last.tolist() == np.where(phase == 1, deadline,
                                     model.k - 1).tolist()
    for row in range(rel.m):
        want = reference_allocator._resort(items[row], phase[row],
                                           scores[row], id_rank, model.probs)
        assert out[row].tolist() == want.tolist()


def lexsort_preferences(scores, id_rank):
    return np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores),
                      axis=1)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 30), n=st.integers(1, 12),
       block_rows=st.integers(1, 31),
       rounded=st.sampled_from(["none", "all", "first", "last"]),
       equal_rows=st.booleans(), signed_zeros=st.booleans(),
       seed=st.integers(0, 10_000))
def test_preferences_match_lexsort(m, n, block_rows, rounded, equal_rows,
                                   signed_zeros, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((m, n))
    # three score levels, so the item-id tie-breaks decide; with half the
    # rows tied, blocks that switch to the stable sort meet untied rows
    rows = {"none": slice(0), "all": slice(None), "first": slice(m // 2),
            "last": slice(m // 2, None)}[rounded]
    scores[rows] = np.ceil(scores[rows] * 3) / 3
    if equal_rows:
        same = rng.random(m) < 0.3
        scores[same] = scores[same, :1]
    if signed_zeros:  # 0.0 and -0.0 compare equal and tie on the id
        zero = rng.random((m, n)) < 0.4
        scores[zero] = rng.choice([0.0, -0.0], size=zero.sum())
    id_rank = rng.permutation(n)  # item ids not in sorted order
    want = lexsort_preferences(scores, id_rank)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_SORT_BLOCK", block_rows * n)
        for depth in range(1, n + 1):
            got = data._preferences(scores, id_rank, depth)
            assert got.tolist() == want[:, :depth].tolist(), depth


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 12), n=st.sampled_from([255, 256, 257, 300, 1000]),
       block_rows=st.integers(1, 13), rounded=st.booleans(),
       signed_zeros=st.booleans(), seed=st.integers(0, 10_000))
def test_wide_preferences_match_lexsort(m, n, block_rows, rounded,
                                        signed_zeros, seed):
    # Rows on both sides of 256 items, read to depths on both sides of
    # n = 4 * depth, so both the partition and the full sort are taken.
    # In about half the rows two scores are made equal at sorted positions
    # (depth - 1, depth), (depth, depth + 1) or (depth + 1, depth + 2):
    # the middle tie is the one the partition's depth + 1 candidates must
    # expose. NDCG's ideal rows, gathered through `rel.preferences`, must
    # hold each row's depth largest scores.
    rng = np.random.default_rng(seed)
    base = rng.random((m, n))
    if rounded:  # a thousand levels: sparse ties, some at any position
        base = np.ceil(base * 1000) / 1000
    if signed_zeros:
        zero = rng.random((m, n)) < 0.4
        base[zero] = rng.choice([0.0, -0.0], size=zero.sum())
    id_rank = rng.permutation(n)
    # ids whose ascending order is id_rank's
    item_ids = tuple(f"i{r:04d}" for r in id_rank)
    consumer_ids = tuple(f"c{c}" for c in range(m))
    tied_rows = np.flatnonzero(rng.random(m) < 0.5)
    order = lexsort_preferences(base, id_rank)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_SORT_BLOCK", block_rows * n)
        for depth in (1, 2, n // 4, n // 4 + 1, n):
            for at in (depth - 1, depth, depth + 1):  # 1-based position
                if not 1 <= at < n:
                    continue
                scores = base.copy()
                rows = tied_rows[:, None]
                scores[rows, order[rows, at]] = \
                    scores[rows, order[rows, at - 1]]
                want = lexsort_preferences(scores, id_rank)[:, :depth]
                got = data._preferences(scores, id_rank, depth)
                assert got.tolist() == want.tolist(), (depth, at)
                rel = RelevanceMatrix(consumer_ids, item_ids, scores)
                ideal = -np.sort(-scores, axis=1)[:, :depth]
                assert metrics._gather(top_k(rel, depth), rel, depth)[2] \
                    .tolist() == ideal.tolist(), (depth, at)


@pytest.mark.parametrize("rounded", [False, True])
def test_preferences_at_10k_by_1k_match_lexsort_within_its_memory(rounded):
    rel = synth_relevance(10_000, 1000, seed=1)
    scores = rel.scores
    if rounded:  # five score levels: every row ties, like rated relevance
        scores = np.round(scores * 4) / 4
    id_rank = data._id_ranks(rel.item_ids)
    tracemalloc.start()
    try:
        want = lexsort_preferences(scores, id_rank)
        lexsort_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = data._preferences(scores, id_rank, rel.n)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= lexsort_peak
    assert np.array_equal(data._preferences(scores, id_rank, 10),
                          want[:, :10])


def shared_instance(shape):
    """A wide instance (n >= 256, so `_preferences` partitions) or a tied
    one (scores rounded to 5 levels, so the item-id tie-breaks decide),
    each with a group map."""
    if shape == "wide":
        rel = synth_relevance(40, 300, seed=3)
    else:
        rel = synth_relevance(120, 30, seed=4)
        rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids,
                              np.round(rel.scores * 4) / 4)
    return rel, random_groups(rel, np.random.default_rng(5))


SLATE_ARRAYS = ("rows", "items", "phase", "pre_rank", "allocation_exposure")


@pytest.mark.parametrize("shape", ["wide", "tied"])
@pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("method", ["verfair-ind", "verfair-group"])
@pytest.mark.parametrize("grid", [(1.0, 0.0, 0.5, 0.5, 0.25), (0.0, 0.0)])
def test_sweep_shares_preferences_without_changing_a_point(
        shape, eta, method, grid):
    # a sweep sorts once, before its points, and every point reads the
    # sort the matrix keeps: each record must equal the same point run on
    # a fresh matrix, and allocating on the swept matrix must give the
    # fresh matrix's slates
    rel, groups = shared_instance(shape)
    config = harness.RunConfig(method, eta=eta, k=10, seed=9)
    records = harness.sweep(config, grid, rel, groups)
    alone = [harness._point(replace(config, alpha=a), a, replace(rel),
                            groups)[2] for a in sorted(grid)]
    assert [replace(r, wall_ms_per_1k=0.0) for r in records] == \
        [replace(r, wall_ms_per_1k=0.0) for r in alone]

    model = ExposureModel.pbm(eta, 10)
    group_map = groups if method == "verfair-group" else identity_groups(rel)
    for alpha in grid:
        got = allocator.allocate(rel, group_map, model, alpha, 9)
        want = allocator.allocate(replace(rel), group_map, model, alpha, 9)
        for name in SLATE_ARRAYS:
            assert getattr(got, name).tolist() == \
                getattr(want, name).tolist(), (name, alpha)
        assert got.fallback_used == want.fallback_used, alpha

    depth = rel.n if max(grid) > 0 else 10
    id_rank = data._id_ranks(rel.item_ids)
    assert rel.preferences(depth).tolist() == \
        lexsort_preferences(rel.scores, id_rank)[:, :depth].tolist()
