"""Acceptance suite: one test per criterion, each printing a pass line."""

import time

import numpy as np
import pytest

from verfair import (ExposureModel, accumulate, allocate, allocate_individual,
                     compute_quotas, fairco, find_anchor, identity_groups,
                     jsd_fairness, ndcg, oracle_exact, pr_k, synth_relevance,
                     top_k)
from verfair.harness import bench
from helpers import bound_unsatisfiable, make_slateset


def _report(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_golden_vertical(three_equal):
    t0 = time.perf_counter()
    model = ExposureModel.pbm(0.0, 2)
    s = allocate_individual(three_equal, model, 1.0, seed=0, shuffle=False)
    assert s.slates == {"c1": ["A", "B"], "c2": ["C", "A"], "c3": ["B", "C"]}
    assert ndcg(s, three_equal, model, 1) == 1.0
    horiz = make_slateset({"c1": ["A", "B"], "c2": ["C", "B"],
                           "c3": ["A", "C"]})
    assert ndcg(horiz, three_equal, model, 1) < 1.0
    assert ndcg(horiz, three_equal, model, 2) >= ndcg(s, three_equal, model, 2)
    assert time.perf_counter() - t0 < 1.0
    _report("1 golden vertical allocation")


def test_02_golden_anchor(three_equal_08):
    t0 = time.perf_counter()
    model = ExposureModel.pbm(0.0, 2)
    anchor = find_anchor(model, 3, 0.5)
    assert (anchor.consumer, anchor.rank) == (1, 2)
    s = allocate_individual(three_equal_08, model, 0.5, seed=0, shuffle=False)
    assert s.slates == {"c1": ["A", "B"], "c2": ["A", "C"], "c3": ["B", "C"]}
    ledger = accumulate(s, model, identity_groups(three_equal_08))
    assert all(v >= 1.0 - 1e-12 for v in ledger.per_item.values())
    assert time.perf_counter() - t0 < 1.0
    _report("2 golden anchor allocation")


def test_03_minimum_exposure_guarantee():
    # The bound is asserted on every trial that some slate set could meet.
    # A trial that the allocator-independent counting check proves
    # unsatisfiable is counted instead; the allocator must then miss it too.
    t0 = time.perf_counter()
    certified = 0
    rng = np.random.default_rng(2024)
    for trial in range(200):
        m = int(rng.integers(10, 201))
        n = int(rng.integers(15, 51))
        k = int(rng.integers(3, 11))
        eta = float(rng.choice([0.0, 1.0, 2.0]))
        alpha = float(rng.choice([0.3, 0.7, 1.0]))
        rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
        model = ExposureModel.pbm(eta, k)
        groups = identity_groups(rel)
        s = allocate(rel, groups, model, alpha, seed=trial)
        ledger = accumulate(s, model, groups)
        quota = compute_quotas(rel, groups, model, alpha)
        slack = model.probs[k - 1] + 1e-9
        if bound_unsatisfiable(rel, groups, model, alpha):
            certified += 1
            assert any(ledger.per_group[g] < quota.per_group[g] - slack
                       for g in groups.group_ids), \
                f"trial {trial}: certified unsatisfiable, yet the bound holds"
        else:
            for g in groups.group_ids:
                assert ledger.per_group[g] >= quota.per_group[g] - slack, \
                    f"trial {trial}: group {g} under quota"
        if not s.fallback_used:
            for g in groups.group_ids:
                assert s.allocation_exposure[g] == pytest.approx(
                    quota.per_group[g], rel=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(f"3 minimum-exposure guarantee (200 instances, {certified} "
            f"certified unsatisfiable, {elapsed:.1f}s)")


def test_04_strict_fairness_limit():
    t0 = time.perf_counter()
    rel = synth_relevance(1000, 100, seed=99)
    model = ExposureModel.pbm(1.0, 10)
    groups = identity_groups(rel)

    def fairness(slates):
        return jsd_fairness(accumulate(slates, model, groups), rel, groups)

    f_ver = fairness(allocate_individual(rel, model, 1.0, seed=0))
    f_pr = fairness(pr_k(rel, model, 10))
    f_top = fairness(top_k(rel, model, 10))
    assert f_ver >= 0.98
    assert f_pr >= 0.99
    assert f_top < f_ver and f_top < f_pr
    assert time.perf_counter() - t0 < 30.0
    _report(f"4 strict-fairness limit (verfair={f_ver:.4f}, pr-k={f_pr:.4f}, "
            f"top-k={f_top:.4f})")


def test_05_tradeoff_endpoints():
    t0 = time.perf_counter()
    rel = synth_relevance(1000, 100, seed=99)
    model = ExposureModel.pbm(1.0, 10)
    groups = identity_groups(rel)
    results = {}
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = allocate_individual(rel, model, alpha, seed=0)
        ledger = accumulate(s, model, groups)
        results[alpha] = (ndcg(s, rel, model, 10),
                          jsd_fairness(ledger, rel, groups))
    assert results[0.0][0] == pytest.approx(1.0)
    assert results[1.0][0] < 1.0
    assert results[1.0][1] >= results[0.0][1]
    boosted = fairco(rel, groups, model, 0.0)
    plain = top_k(rel, model, 10)
    assert boosted.slates == plain.slates
    assert time.perf_counter() - t0 < 60.0
    _report("5 tradeoff endpoints")


def test_06_oracle_feasibility():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    # n > k keeps the quota system satisfiable: with n == k every item sits
    # in every slate and a dominant item's quota can exceed the largest
    # exposure any assignment could give it
    for trial in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(3, 7))
        k = 2
        rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
        model = ExposureModel.pbm(float(rng.choice([0.0, 1.0])), k)
        groups = identity_groups(rel)
        for alpha in (0.5, 1.0):
            s = allocate_individual(rel, model, alpha, seed=trial)
            ledger = accumulate(s, model, groups)
            quota = compute_quotas(rel, groups, model, alpha)
            slack = model.probs[k - 1] + 1e-9
            assert all(ledger.per_group[g] >= quota.per_group[g] - slack
                       for g in groups.group_ids), f"trial {trial}"
            _, feasible = oracle_exact(rel, groups, model, alpha)
            assert feasible, f"trial {trial}: no feasible assignment found"
        s0 = allocate_individual(rel, model, 0.0, seed=trial)
        best0, feas0 = oracle_exact(rel, groups, model, 0.0)
        assert feas0
        assert ndcg(s0, rel, model, k) == pytest.approx(best0)
        assert best0 == pytest.approx(1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(f"6 oracle feasibility (50 instances, {elapsed:.1f}s)")


def test_07_metric_correctness():
    from helpers import brute_ndcg, direct_jsd
    from verfair.metrics import _jsd_base2
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = rng.random(int(rng.integers(2, 12)))
        q = rng.random(p.size)
        p /= p.sum()
        q /= q.sum()
        assert abs(_jsd_base2(p, q) - direct_jsd(p.tolist(), q.tolist())) \
            <= 1e-12
    import itertools
    for m, n, k in [(1, 1, 1), (2, 2, 2), (3, 4, 3), (4, 3, 3), (4, 4, 2)]:
        if n < k:
            continue
        rel = synth_relevance(m, n, seed=m * 7 + n)
        for eta in (0.0, 1.0):
            model = ExposureModel.pbm(eta, k)
            for perm in itertools.permutations(range(n), k):
                items = [rel.item_ids[i] for i in perm]
                slates = make_slateset(
                    {cid: list(items) for cid in rel.consumer_ids})
                for kc in range(1, k + 1):
                    assert ndcg(slates, rel, model, kc) == pytest.approx(
                        brute_ndcg(slates, rel, model.probs, kc), abs=1e-12)
    _report("7 metric correctness (JSD and NDCG vs brute force)")


def test_08_throughput():
    rel = synth_relevance(1000, 1000, seed=5)
    t_ver = bench("verfair-ind", rel, eta=1.0, k=10, alpha=1.0, repeat=3)
    t_top = bench("top-k", rel, eta=1.0, k=10, repeat=3)
    assert t_ver < 5000.0, f"verfair-ind took {t_ver:.0f} ms per 1k slates"
    assert t_top <= t_ver
    _report(f"8 throughput (verfair-ind {t_ver:.0f} ms/1k, "
            f"top-k {t_top:.0f} ms/1k)")
