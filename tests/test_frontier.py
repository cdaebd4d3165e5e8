"""The abstract's headline claim: at the guarantee FairCo (Morik et al.,
SIGIR 2020) meets, VerFair gives consumers more.

For each FairCo run, with eta 1 and k 10, alpha* is the matched guarantee
(`helpers.matched_alpha`), and VerFair runs at alpha* with seed 1. At
individual level the instances are I(3) and C(3) in both arrival orders
(`helpers.scaled_instance`, `helpers.clustered_instance`); FairCo serves
the rows in input order, VerFair shuffles them. C(3) in clustered order is
also compared on the 1 - JSD axis, and G(1)...G(10) at group level
(`helpers.grouped_instance`), where the claim holds only at the fairest
point. A seed ledger repeats the individual-level comparison on I(s) and
C(s) for s = 1...20. The pinned figures were measured on this code; slates are
deterministic, so they hold to the last digit shown.
"""

import functools

import numpy as np
import pytest

from helpers import (clustered_instance, grouped_instance, matched_alpha,
                     scaled_instance, shortfall_pk)
from verfair import (ExposureModel, allocate, allocate_individual, evaluate,
                     fairco, identity_groups, ndcg)
from verfair.harness import RunConfig, sweep

MODEL = ExposureModel.pbm(1.0, 10)

INSTANCES = {"I(3)": lambda: scaled_instance(3),
             "C(3) clustered": lambda: clustered_instance(3, "clustered"),
             "C(3) random": lambda: clustered_instance(3, "random")}


# (instance, lambda, alpha*, FairCo's NDCG@10, VerFair's NDCG@10 at alpha*)
POINTS = [
    ("I(3)", 0.003, 0.10, 0.9256, 0.9895),
    ("I(3)", 0.01, 0.73, 0.8648, 0.8955),
    ("I(3)", 0.03, 0.92, 0.8396, 0.8492),
    ("I(3)", 0.1, 0.98, 0.8094, 0.8318),
    ("C(3) clustered", 0.003, 0.46, 0.8823, 0.9674),
    ("C(3) clustered", 0.01, 0.86, 0.7034, 0.9134),
    ("C(3) clustered", 0.03, 0.96, 0.6266, 0.8904),
    ("C(3) random", 0.003, 0.52, 0.9389, 0.9618),
    ("C(3) random", 0.01, 0.84, 0.9064, 0.9182),
    ("C(3) random", 0.03, 0.95, 0.8803, 0.8937),
]


@pytest.mark.parametrize("name, lam, alpha, fairco_ndcg, verfair_ndcg",
                         POINTS)
def test_verfair_beats_fairco_at_the_matched_guarantee(
        name, lam, alpha, fairco_ndcg, verfair_ndcg):
    rel = INSTANCES[name]()
    baseline = fairco(rel, identity_groups(rel), MODEL, lam)
    assert matched_alpha(baseline, rel, MODEL) == alpha
    slates = allocate_individual(rel, MODEL, alpha, seed=1)
    ours, theirs = ndcg(slates, rel, MODEL, 10), ndcg(baseline, rel, MODEL, 10)
    assert ours > theirs
    assert (theirs, ours) == pytest.approx((fairco_ndcg, verfair_ndcg),
                                           abs=5e-5)
    # VerFair meets the guarantee it is matched at: within p_k of quota
    assert shortfall_pk(slates, rel, MODEL, alpha) < 1


# The clustered order on the 1 - JSD axis, the metric `evaluate` reports:
# VerFair swept over alpha 0.30, 0.32, ..., 1.00 and interpolated linearly
# at each FairCo point's 1 - JSD. (lambda, FairCo's 1 - JSD, FairCo's
# NDCG@10, VerFair's interpolated NDCG@10)
CLUSTERED_JSD = [
    (0.003, 0.98511, 0.8823, 0.9331),
    (0.01, 0.99787, 0.7034, 0.8998),
    (0.03, 0.99977, 0.6266, 0.8857),
]


def test_verfair_beats_fairco_on_the_jsd_axis_in_clustered_order():
    rel = INSTANCES["C(3) clustered"]()
    groups = identity_groups(rel)
    alphas = [a / 100 for a in range(30, 101, 2)]
    records = sweep(RunConfig("verfair-ind", k=10, seed=1, cutoffs=(10,)),
                    alphas, rel)
    fair = [r.fairness_individual for r in records]
    assert fair == sorted(fair)  # so the curve interpolates at any fairness
    for lam, fairco_fair, fairco_ndcg, verfair_ndcg in CLUSTERED_JSD:
        report = evaluate(fairco(rel, groups, MODEL, lam), rel, groups,
                          MODEL, (10,))
        theirs = report.ndcg_at[10]
        ours = float(np.interp(report.fairness_individual, fair,
                               [r.ndcg_at[10] for r in records]))
        assert ours > theirs
        assert (report.fairness_individual, theirs, ours) == pytest.approx(
            (fairco_fair, fairco_ndcg, verfair_ndcg), abs=5e-5)


# The group level on the guarantee axis, over G(1)...G(10)
# (`helpers.grouped_instance`): FairCo runs with the group map, alpha* is
# matched per group, and VerFair-group runs at alpha* with seed 1. VerFair
# wins only at the fairest lambda. (lambda, VerFair's wins of 10, G(1)'s
# FairCo NDCG@10, G(1)'s VerFair minus FairCo)
GROUP_POINTS = [
    (0.003, 3, 0.9773, -0.0009),
    (0.01, 0, 0.9699, -0.0082),
    (0.03, 0, 0.9637, -0.0060),
    (0.1, 10, 0.9470, 0.0085),
]


@functools.cache
def group_instance(s):
    return grouped_instance(s)


@pytest.mark.parametrize("lam, wins, fairco_ndcg, margin", GROUP_POINTS)
def test_verfair_group_against_fairco_at_the_matched_guarantee(
        lam, wins, fairco_ndcg, margin):
    ndcgs = []
    for s in range(1, 11):
        rel, groups = group_instance(s)
        baseline = fairco(rel, groups, MODEL, lam)
        alpha = matched_alpha(baseline, rel, MODEL, groups)
        slates = allocate(rel, groups, MODEL, alpha, seed=1)
        ndcgs.append((ndcg(baseline, rel, MODEL, 10),
                      ndcg(slates, rel, MODEL, 10)))
        # VerFair meets the guarantee it is matched at: within p_k of quota
        assert shortfall_pk(slates, rel, MODEL, alpha, groups) < 1
    assert sum(ours > theirs for theirs, ours in ndcgs) == wins
    theirs, ours = ndcgs[0]
    assert (theirs, ours - theirs) == pytest.approx((fairco_ndcg, margin),
                                                    abs=5e-5)


# The seed ledger: the guarantee-axis comparison above, on I(s) at the four
# lambdas and on C(s) in both orders at the first three, for s = 1...20:
# 200 points, VerFair ahead at each. (family, lambdas, the smallest margin
# of VerFair's NDCG@10 over FairCo's, and its seed, lambda and alpha*)
LEDGER = [
    ("I", (0.003, 0.01, 0.03, 0.1), 0.0067, 15, 0.03, 0.93),
    ("C clustered", (0.003, 0.01, 0.03), 0.0664, 4, 0.003, 0.53),
    ("C random", (0.003, 0.01, 0.03), 0.0057, 13, 0.01, 0.86),
]

LEDGER_INSTANCES = {
    "I": scaled_instance,
    "C clustered": lambda s: clustered_instance(s, "clustered"),
    "C random": lambda s: clustered_instance(s, "random"),
}


@pytest.mark.parametrize("family, lams, margin, seed, lam, alpha", LEDGER)
def test_verfair_beats_fairco_at_every_seed(family, lams, margin, seed, lam,
                                            alpha):
    points = {}  # (s, lambda) -> (alpha*, VerFair minus FairCo)
    for s in range(1, 21):
        rel = LEDGER_INSTANCES[family](s)
        groups = identity_groups(rel)
        for lam_ in lams:
            baseline = fairco(rel, groups, MODEL, lam_)
            alpha_ = matched_alpha(baseline, rel, MODEL)
            slates = allocate_individual(rel, MODEL, alpha_, seed=1)
            points[s, lam_] = (alpha_, ndcg(slates, rel, MODEL, 10)
                               - ndcg(baseline, rel, MODEL, 10))
    losses = {p: v for p, v in points.items() if not v[1] > 0}
    assert not losses
    assert all(a > 0 for a, _ in points.values())  # every alpha* above 0
    (s, lam_), (alpha_, least) = min(points.items(), key=lambda p: p[1][1])
    assert (s, lam_) == (seed, lam)
    assert (alpha_, least) == pytest.approx((alpha, margin), abs=5e-5)
