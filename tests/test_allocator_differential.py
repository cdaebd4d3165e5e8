"""The allocator must return exactly what the frozen reference returns.

`reference_allocator.py` holds the slot-by-slot allocator that the array
implementation in `verfair.allocator` replaced. Every SlateSet field is
compared with `==`, so slates, phase tags, pre-re-sort ranks, the fallback
flag and the granted exposure must all be bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_allocator
import verfair.allocator as allocator
from helpers import random_groups
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, find_anchor,
                     identity_groups, synth_relevance)
from verfair.allocator import _deadlines, _resort

FIELDS = ("order", "slates", "provenance", "pre_ranks", "fallback_used",
          "allocation_exposure")


def assert_same(rel, groups, model, alpha, seed, shuffle=True):
    got = allocator.allocate(rel, groups, model, alpha, seed, shuffle)
    want = reference_allocator.allocate(rel, groups, model, alpha, seed,
                                        shuffle)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), \
            (name, rel.m, rel.n, model.k, alpha, seed)


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


def test_large_instance_takes_the_slow_resort_on_few_rows(monkeypatch):
    resorted = []

    def counting_resort(*args):
        resorted.append(1)
        return real_resort(*args)

    real_resort = allocator._resort
    monkeypatch.setattr(allocator, "_resort", counting_resort)
    rel = synth_relevance(2000, 100, seed=1)
    model = ExposureModel.pbm(1.0, 10)
    for alpha in (0.7, 1.0):
        assert_same(rel, identity_groups(rel), model, alpha, seed=7)
    assert 0 < len(resorted) < rel.m


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
    # ranks are committed in runs of many consumers, and the exchange and
    # fallback events between two runs of a rank still take one consumer
    # at a time
    log = []

    def counting_place(slate, avail, r, consumers, items):
        if np.size(consumers):
            log.append(("run", r, int(np.min(consumers)),
                        int(np.size(consumers))))
        return real_place(slate, avail, r, consumers, items)

    def counting(kind, real):
        def counted(c, r, *args):
            log.append((kind, r, int(c), 1))
            return real(c, r, *args)
        return counted

    real_place = allocator._place
    monkeypatch.setattr(allocator, "_place", counting_place)
    for kind in ("_exchange", "_fallback"):
        monkeypatch.setattr(allocator, kind,
                            counting(kind, getattr(allocator, kind)))
    rel, groups = skewed_groups(1000, seed=0)
    model = ExposureModel.pbm(eta, 10)
    # the first alpha's anchor falls mid-rank
    assert find_anchor(model, rel.m, alphas[0]).consumer > 1
    for alpha in alphas:
        assert_same(rel, groups, model, alpha, seed=0)
    assert max(size for kind, _, _, size in log if kind == "run") >= rel.m // 2
    mid_rank = {
        kind for i, (kind, r, c, _) in enumerate(log) if kind != "run"
        and any(e[0] == "run" and e[1] == r and e[3] > 1 for e in log[:i])
        and any(e[0] == "run" and e[1] == r and e[2] > c for e in log[i:])}
    assert "_fallback" in mid_rank
    if eta == 2.0:
        assert "_exchange" in mid_rank


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), extra=st.integers(0, 4),
       eta=st.sampled_from([0.0, 1.0, 2.0]), seed=st.integers(0, 10_000))
def test_resort_matches_reference(k, extra, eta, seed):
    rng = np.random.default_rng(seed)
    n = k + extra
    scores_row = rng.choice([0.1, 0.4, 0.7, 1.0], size=n)  # ties on purpose
    id_rank = rng.permutation(n)
    items = rng.permutation(n)[:k]
    phases = rng.choice(np.array([1, 2], dtype=np.int8), size=k)
    probs = ExposureModel.pbm(eta, k).probs
    got = _resort(items, phases, scores_row, id_rank, _deadlines(probs))
    want = reference_allocator._resort(items, phases, scores_row, id_rank,
                                       probs)
    assert got.tolist() == want.tolist()
