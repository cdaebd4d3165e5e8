"""pr_k and fairco must return exactly what their frozen references return.

`reference_baselines.py` holds the full-`lexsort` selections that the
partition select (`_top_k`) replaced. The (m, k) item arrays are compared
with `np.array_equal`, so every slate, every rank and every tie-break must
match. Item counts are drawn near k (full `lexsort`), at 16k and more,
and at 256 and more (`_top_k`'s partition), so every path is compared.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_baselines
import verfair.baselines as baselines
from helpers import random_groups
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, fairco,
                     identity_groups, pr_k, synth_relevance, top_k)
from verfair.baselines import _top_k

LAMBDAS = (0.0, 1e-9, 0.01, 1.0, 1e6)


def assert_pr_k_same(rel, model):
    try:
        want = reference_baselines.pr_k(rel, model, model.k).items
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            pr_k(rel, model)
        assert str(got.value) == str(err)
        return
    assert np.array_equal(pr_k(rel, model).items, want), \
        (rel.m, rel.n, model.k, model.eta)


def assert_fairco_same(rel, groups, model, lam):
    got = fairco(rel, groups, model, lam).items
    want = reference_baselines.fairco(rel, groups, model, lam).items
    assert np.array_equal(got, want), (rel.m, rel.n, model.k, model.eta, lam)


def instance(m, n, seed, levels, zero_cols, neg_zero, shuffled_ids):
    """`synth_relevance` scores, optionally rounded to `levels` values
    (ties), with a random share `zero_cols` of all-zero columns, zeros
    flipped to -0.0 with probability `neg_zero`, and item ids that sort
    in another order than the columns."""
    rng = np.random.default_rng(seed)
    rel = synth_relevance(m, n, seed=seed)
    scores = rel.scores.copy()
    if levels:
        scores = np.round(scores * levels) / levels
    scores[:, rng.random(n) < zero_cols] = 0.0
    scores[(scores == 0) & (rng.random(scores.shape) < neg_zero)] = -0.0
    item_ids = rel.item_ids
    if shuffled_ids:
        item_ids = tuple(item_ids[j] for j in rng.permutation(n))
    return RelevanceMatrix(rel.consumer_ids, item_ids, scores)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), k=st.integers(1, 5),
       base=st.sampled_from(["k", "16k", "256"]), extra=st.integers(0, 8),
       eta=st.sampled_from([0.0, 1.0, 2.0]), lam=st.sampled_from(LAMBDAS),
       levels=st.sampled_from([0, 1, 2, 3]),
       zero_cols=st.sampled_from([0.0, 0.3, 1.0]),
       neg_zero=st.sampled_from([0.0, 0.5, 1.0]),
       grouped=st.booleans(), zero_group=st.booleans(),
       shuffled_ids=st.booleans(), seed=st.integers(0, 10_000))
def test_hypothesis_family(m, k, base, extra, eta, lam, levels, zero_cols,
                           neg_zero, grouped, zero_group, shuffled_ids, seed):
    n = {"k": k, "16k": 16 * k, "256": 256}[base] + extra
    rel = instance(m, n, seed, levels, zero_cols, neg_zero, shuffled_ids)
    groups = (random_groups(rel, np.random.default_rng(seed)) if grouped
              else identity_groups(rel))
    if zero_group:  # every column of one group zero: its relevance is 0
        gidx = groups.indices(rel)
        scores = rel.scores.copy()
        scores[:, gidx == gidx[seed % rel.n]] = 0.0
        rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids, scores)
    model = ExposureModel.pbm(eta, k)
    assert_pr_k_same(rel, model)
    assert_fairco_same(rel, groups, model, lam)


def test_all_zero_matrix():
    rel = RelevanceMatrix(("c1", "c2"), ("B", "A", "C"), np.zeros((2, 3)))
    model = ExposureModel.pbm(1.0, 2)
    assert_pr_k_same(rel, model)
    with pytest.raises(ValueError, match="total relevance is zero"):
        pr_k(rel, model)
    for lam in LAMBDAS:
        assert_fairco_same(rel, identity_groups(rel), model, lam)


def checked_fairco(rel, groups, model, lam, monkeypatch):
    """fairco's slates, failing on a nan boost or a floating-point warning."""
    def no_nan_top_k(neg, id_rank, k):
        assert not np.isnan(neg).any()
        return real(neg, id_rank, k)

    real = baselines._top_k
    monkeypatch.setattr(baselines, "_top_k", no_nan_top_k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fairco(rel, groups, model, lam).slates


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_nan_boosts_sort_last(lam, k, monkeypatch):
    # item "A" has a subnormal average relevance and is the first slate's
    # top pick; its exposure ratio then overflows. Uncapped, that made
    # every later boost nan (and, at lam=0, 0 * inf); capped at the
    # largest double, "A" gets no boost and every other item the same
    # finite one, so "A" sorts last and lam=0 ranks as top_k
    scores = np.full((6, 4), 0.5)
    scores[0] = 0.0
    scores[:, 2] = 5e-324
    rel = RelevanceMatrix(tuple(f"c{i}" for i in range(6)),
                          ("D", "B", "A", "C"), scores)
    model = ExposureModel.pbm(1.0, k)
    got = checked_fairco(rel, identity_groups(rel), model, lam, monkeypatch)
    assert got["c0"] == ["A", "B", "C", "D"][:k]
    for c in range(1, 6):
        assert got[f"c{c}"] == ["B", "C", "D", "A"][:k]
    if lam == 0:
        assert got == top_k(rel, k).slates


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 12), k=st.integers(1, 4), extra=st.integers(0, 4),
       lam=st.sampled_from(LAMBDAS), grouped=st.booleans(),
       seed=st.integers(0, 10_000))
def test_subnormal_relevance_boosts_no_nan(m, k, extra, lam, grouped, seed):
    # columns scaled to subnormal or zero relevance; lam=0 ranks as top_k
    rng = np.random.default_rng(seed)
    rel = synth_relevance(m, k + extra, seed=seed)
    tiny = rng.random(rel.n) < 0.4
    scores = rel.scores.copy()
    scores[:, tiny] *= rng.choice([0.0, 5e-324, 1e-320], size=tiny.sum())
    rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids, scores)
    groups = (random_groups(rel, rng) if grouped else identity_groups(rel))
    model = ExposureModel.pbm(1.0, k)
    with pytest.MonkeyPatch.context() as mp:
        got = checked_fairco(rel, groups, model, lam, mp)
    if lam == 0:
        assert got == top_k(rel, k).slates


@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_benchmark_shape(lam):
    # load-wide's shape: 500x1000, item popularity skew, k=10, eta=1
    rel = synth_relevance(500, 1000, seed=9)
    weight = np.random.default_rng(9).permutation(np.linspace(1.0, 0.2, 1000))
    rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids, rel.scores * weight)
    model = ExposureModel.pbm(1.0, 10)
    twenty = GroupMap({d: f"g{j % 20}" for j, d in enumerate(rel.item_ids)},
                      tuple(f"g{g}" for g in range(20)))
    assert_fairco_same(rel, identity_groups(rel), model, lam)
    assert_fairco_same(rel, twenty, model, lam)
    if lam == 1.0:
        assert_pr_k_same(rel, model)


@pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("m, n, k", [(200, 30, 30), (100, 1000, 50),
                                     (1000, 160, 10), (1000, 1000, 5),
                                     (1000, 1000, 16)])
def test_pr_k_wide_and_full_slates(m, n, k, eta):
    # k = n, k > 16, and the corners of n >= 16k with k <= 16
    rel = synth_relevance(m, n, seed=m + n + k)
    assert_pr_k_same(rel, ExposureModel.pbm(eta, k))


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 5, 40, 255, 256, 300, 1100]),
       data=st.data(), levels=st.sampled_from([0, 1, 3]),
       special=st.sampled_from([0.0, -0.0, np.nan]),
       share=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 10_000))
def test_top_k_is_the_head_of_lexsort(n, data, levels, special, share, seed):
    # both sides of the partition switch (n >= 256 and n >= 4k), k up to n
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    neg = -rng.random(n)
    if levels:
        neg = np.round(neg * levels) / levels
    neg[rng.random(n) < share] = special
    id_rank = rng.permutation(n)
    assert np.array_equal(_top_k(neg, id_rank, k),
                          np.lexsort((id_rank, neg))[:k])
