"""The abstract's headline claim: at the guarantee FairCo (Morik et al.,
SIGIR 2020) meets, VerFair gives consumers more.

Each comparison on the guarantee axis reads one record,
`helpers.matched_point`: FairCo runs with eta 1 and k 10, alpha* is its
matched guarantee (`helpers.matched_alpha`), VerFair runs at alpha* with
seed 1, and the record holds alpha*, each consumer's NDCG@10 under both
methods and VerFair's shortfall of its quotas. At individual level the
instances are I(3) and C(3) in both arrival orders
(`helpers.scaled_instance`, `helpers.clustered_instance`); FairCo serves
the rows in input order, VerFair shuffles them. I(3) is also compared
under eta 0 and eta 2. I(3) and C(3) in both orders are also compared on
the 1 - JSD axis, where the claim holds at every point only in clustered
order, and G(1)...G(10) at group level (`helpers.grouped_instance`), where
it holds only at the fairest point, on both axes. A seed ledger repeats
the individual-level comparison on I(s) and C(s) for s = 1...20, and the
consumer side splits the mean NDCG@10 of I(3) and G(1) by serving order.
On rated data (`helpers.rated_instance`) the claim reverses. The pinned
figures were measured on this code; slates are deterministic, so they
hold to the last digit shown.
"""

import functools

import numpy as np
import pytest

from helpers import (clustered_instance, grouped_instance, matched_alpha,
                     matched_point, rated_instance, scaled_instance)
from verfair import (ExposureModel, allocate_individual, evaluate, fairco,
                     identity_groups, ndcg, top_k)
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
    point = matched_point(INSTANCES[name](), MODEL, lam)
    theirs, ours = point.ndcg
    assert point.alpha == alpha and ours > theirs
    assert point.ndcg == pytest.approx((fairco_ndcg, verfair_ndcg), abs=5e-5)
    assert point.shortfall < 1  # VerFair within p_k of every quota


# Position bias on I(3): the comparison above under flat discounts (eta 0)
# and steep ones (eta 2), NDCG@10 taken under the same eta. At eta 2 and
# lambda 0.003 FairCo meets no guarantee: alpha* is 0, where VerFair is
# top-k. (eta, lambda, alpha*, FairCo's NDCG@10, VerFair's NDCG@10 at
# alpha*)
ETA_POINTS = [
    (0.0, 0.003, 0.62, 0.8963, 0.9229),
    (0.0, 0.01, 0.89, 0.8669, 0.8766),
    (0.0, 0.03, 0.97, 0.8450, 0.8596),
    (0.0, 0.1, 1.00, 0.8018, 0.8525),
    (2.0, 0.003, 0.00, 0.9535, 1.0000),
    (2.0, 0.01, 0.47, 0.8639, 0.9334),
    (2.0, 0.03, 0.83, 0.8240, 0.8418),
    (2.0, 0.1, 0.95, 0.7940, 0.8054),
]


@pytest.mark.parametrize("eta, lam, alpha, fairco_ndcg, verfair_ndcg",
                         ETA_POINTS)
def test_verfair_beats_fairco_under_position_bias(eta, lam, alpha,
                                                  fairco_ndcg, verfair_ndcg):
    point = matched_point(INSTANCES["I(3)"](), ExposureModel.pbm(eta, 10), lam)
    theirs, ours = point.ndcg
    assert point.alpha == alpha and ours > theirs
    assert point.ndcg == pytest.approx((fairco_ndcg, verfair_ndcg), abs=5e-5)
    assert point.shortfall < 1


def jsd_verdicts(method, alphas, rel, groups, level, points):
    """Sweep `method` over `alphas` and, for each point (lambda, FairCo's
    1 - JSD at `level`, FairCo's NDCG@10, the swept NDCG@10 interpolated
    linearly at that 1 - JSD, the winner), check FairCo at that lambda
    against it. Every FairCo point lies inside the swept curve."""
    field = f"fairness_{level}"
    records = sweep(RunConfig(method, k=10, seed=1, cutoffs=(10,)), alphas,
                    rel, groups)
    fair = [getattr(r, field) for r in records]
    assert fair == sorted(fair)  # so the curve interpolates at any fairness
    for lam, fairco_fair, fairco_ndcg, verfair_ndcg, winner in points:
        report = evaluate(fairco(rel, groups, MODEL, lam), rel, groups,
                          MODEL, (10,))
        at, theirs = getattr(report, field), report.ndcg_at[10]
        assert fair[0] <= at <= fair[-1]
        ours = float(np.interp(at, fair, [r.ndcg_at[10] for r in records]))
        assert ("VerFair" if ours > theirs else "FairCo") == winner
        assert (at, theirs, ours) == pytest.approx(
            (fairco_fair, fairco_ndcg, verfair_ndcg), abs=5e-5)


# The 1 - JSD axis, the metric `evaluate` reports: VerFair swept over alpha
# 0.30, 0.32, ..., 1.00. In clustered order VerFair wins at every lambda;
# on I(3) and in random order, only at the fairest. (lambda, FairCo's
# 1 - JSD, FairCo's NDCG@10, VerFair's interpolated NDCG@10, the winner)
JSD_POINTS = {
    "I(3)": [
        (0.003, 0.96335, 0.9256, 0.9078, "FairCo"),
        (0.01, 0.99728, 0.8648, 0.8444, "FairCo"),
        (0.03, 0.99971, 0.8396, 0.8305, "FairCo"),
        (0.1, 0.99998, 0.8094, 0.8259, "VerFair"),
    ],
    "C(3) clustered": [
        (0.003, 0.98511, 0.8823, 0.9331, "VerFair"),
        (0.01, 0.99787, 0.7034, 0.8998, "VerFair"),
        (0.03, 0.99977, 0.6266, 0.8857, "VerFair"),
    ],
    "C(3) random": [
        (0.003, 0.99057, 0.9389, 0.9229, "FairCo"),
        (0.01, 0.99911, 0.9064, 0.8931, "FairCo"),
        (0.03, 0.99989, 0.8803, 0.8842, "VerFair"),
    ],
}


@pytest.mark.parametrize("name", sorted(JSD_POINTS))
def test_the_jsd_axis_verdict_in_each_arrival_order(name):
    rel = INSTANCES[name]()
    jsd_verdicts("verfair-ind", [a / 100 for a in range(30, 101, 2)], rel,
                 identity_groups(rel), "individual", JSD_POINTS[name])


# G(1) on the 1 - JSD_group axis: VerFair-group swept over alpha 0.80,
# 0.81, ..., 1.00, whose curve tops out at 0.9999995. As on the guarantee
# axis, VerFair wins only at the fairest lambda. (lambda, FairCo's
# 1 - JSD_group, FairCo's NDCG@10, VerFair's interpolated NDCG@10, the
# winner)
GROUP_JSD_POINTS = [
    (0.003, 0.99862, 0.9773, 0.9657, "FairCo"),
    (0.01, 0.99987, 0.9699, 0.9578, "FairCo"),
    (0.03, 0.99998, 0.9637, 0.9556, "FairCo"),
    (0.1, 0.9999987, 0.9470, 0.9545, "VerFair"),
]


def test_the_jsd_group_axis_verdict_on_g1():
    rel, groups = group_instance(1)
    jsd_verdicts("verfair-group", [a / 100 for a in range(80, 101)], rel,
                 groups, "group", GROUP_JSD_POINTS)


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


group_instance = functools.cache(grouped_instance)


@pytest.mark.parametrize("lam, wins, fairco_ndcg, margin", GROUP_POINTS)
def test_verfair_group_against_fairco_at_the_matched_guarantee(
        lam, wins, fairco_ndcg, margin):
    points = [matched_point(rel, MODEL, lam, groups)
              for rel, groups in map(group_instance, range(1, 11))]
    assert all(p.shortfall < 1 for p in points)  # within p_k of quota
    ndcgs = [p.ndcg for p in points]
    assert sum(ours > theirs for theirs, ours in ndcgs) == wins
    theirs, ours = ndcgs[0]
    assert (theirs, ours - theirs) == pytest.approx((fairco_ndcg, margin),
                                                    abs=5e-5)


# The consumer side at lambda 0.01 (Do et al., NeurIPS 2021): NDCG@10
# averaged over quartiles of the serving order, VerFair's shuffled one and
# FairCo's input order, and its 10th percentile. VerFair's walk fills each
# rank in its order, so its quartiles fall from first to last. (instance,
# VerFair's Q1...Q4 and p10, FairCo's Q1...Q4 and p10)
CONSUMER_SIDE = [
    ("I(3)", (0.9145, 0.9026, 0.8855, 0.8795, 0.8607),
     (0.9392, 0.8422, 0.8374, 0.8405, 0.7624)),
    ("G(1)", (0.9776, 0.9682, 0.9564, 0.9445, 0.9317),
     (0.9774, 0.9669, 0.9686, 0.9668, 0.9416)),
]


@pytest.mark.parametrize("name, verfair, fairco_", CONSUMER_SIDE)
def test_who_pays_for_the_quota(name, verfair, fairco_):
    rel, groups = (group_instance(1) if name == "G(1)"
                   else (INSTANCES[name](), None))
    point = matched_point(rel, MODEL, 0.01, groups)
    ours, theirs = ([*(q.mean() for q in np.array_split(v, 4)),
                     np.percentile(v, 10)]
                    for v in (point.verfair, point.fairco))
    assert all(a > b for a, b in zip(ours[:3], ours[1:4]))
    assert ours + theirs == pytest.approx(verfair + fairco_, abs=5e-5)


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
    rels = {s: LEDGER_INSTANCES[family](s) for s in range(1, 21)}
    points = {(s, lam_): matched_point(rels[s], MODEL, lam_)
              for s in rels for lam_ in lams}
    gain = {at: p.ndcg[1] - p.ndcg[0] for at, p in points.items()}
    assert not [at for at, g in gain.items() if not g > 0]  # no loss
    # every alpha* above 0, and VerFair within p_k of every quota
    assert all(p.alpha > 0 and p.shortfall < 1 for p in points.values())
    assert min(gain, key=gain.get) == (seed, lam)
    assert (points[seed, lam].alpha, gain[seed, lam]) == pytest.approx(
        (alpha, margin), abs=5e-5)


# Rated, sparse relevance, R(s; per, jitter) (`helpers.rated_instance`):
# at the matched guarantee FairCo beats VerFair at every lambda, a measured
# fact about the paper's allocator. (instance, lambda, alpha*, FairCo's
# NDCG@10, VerFair's NDCG@10 at alpha*)
RATED = {"R(3; 10, 0)": (3, 10, 0), "R(4; 10, 0)": (4, 10, 0),
         "R(3; 20, 0)": (3, 20, 0), "R(3; 20, 0.5)": (3, 20, 0.5),
         "R(3; 40, 0.5)": (3, 40, 0.5)}

RATED_POINTS = [
    ("R(3; 10, 0)", 0.003, 0.88, 1.0000, 0.9886),
    ("R(3; 10, 0)", 0.01, 0.88, 1.0000, 0.9886),
    ("R(3; 10, 0)", 0.03, 0.89, 0.9996, 0.9881),
    ("R(3; 10, 0)", 0.1, 0.95, 0.9908, 0.9847),
    ("R(4; 10, 0)", 0.003, 0.91, 1.0000, 0.9866),
    ("R(4; 10, 0)", 0.01, 0.91, 1.0000, 0.9866),
    ("R(4; 10, 0)", 0.03, 0.91, 0.9995, 0.9866),
    ("R(4; 10, 0)", 0.1, 0.96, 0.9911, 0.9843),
    ("R(3; 20, 0)", 0.003, 0.93, 1.0000, 0.9830),
    ("R(3; 20, 0)", 0.01, 0.93, 1.0000, 0.9830),
    ("R(3; 20, 0)", 0.03, 0.93, 1.0000, 0.9830),
    ("R(3; 20, 0)", 0.1, 0.92, 0.9999, 0.9838),
    ("R(3; 20, 0.5)", 0.003, 0.80, 1.0000, 0.9967),
    ("R(3; 20, 0.5)", 0.01, 0.86, 0.9998, 0.9953),
    ("R(3; 20, 0.5)", 0.03, 0.92, 0.9993, 0.9949),
    ("R(3; 20, 0.5)", 0.1, 0.92, 0.9974, 0.9949),
    ("R(3; 40, 0.5)", 0.003, 0.78, 1.0000, 0.9974),
    ("R(3; 40, 0.5)", 0.01, 0.84, 0.9999, 0.9966),
    ("R(3; 40, 0.5)", 0.03, 0.91, 0.9997, 0.9962),
    ("R(3; 40, 0.5)", 0.1, 0.94, 0.9986, 0.9959),
]


rated = functools.cache(lambda name: rated_instance(*RATED[name]))


@pytest.mark.parametrize("name, lam, alpha, fairco_ndcg, verfair_ndcg",
                         RATED_POINTS)
def test_fairco_beats_verfair_on_rated_data(name, lam, alpha, fairco_ndcg,
                                            verfair_ndcg):
    point = matched_point(rated(name), MODEL, lam)
    theirs, ours = point.ndcg
    assert point.alpha == alpha and theirs > ours
    assert point.ndcg == pytest.approx((fairco_ndcg, verfair_ndcg), abs=5e-5)
    assert point.shortfall < 1


# One cause of the reversal: top-k alone already meets the guarantee up to
# its alpha*, at NDCG 1, while VerFair at that alpha* runs its allocation
# phase and gives consumers less. (instance, top-k's alpha*, VerFair's
# NDCG@10 at it)
RATED_TOP_K = [
    ("R(3; 10, 0)", 0.84, 0.9907),
    ("R(4; 10, 0)", 0.83, 0.9908),
    ("R(3; 20, 0)", 0.59, 0.9952),
    ("R(3; 20, 0.5)", 0.80, 0.9967),
    ("R(3; 40, 0.5)", 0.74, 0.9977),
]


@pytest.mark.parametrize("name, alpha, verfair_ndcg", RATED_TOP_K)
def test_top_k_alone_meets_the_guarantee_on_rated_data(name, alpha,
                                                       verfair_ndcg):
    rel = rated(name)
    slates = top_k(rel, 10)
    assert matched_alpha(slates, rel, MODEL) == alpha
    assert ndcg(slates, rel, MODEL, 10) == pytest.approx(1.0, abs=1e-12)
    ours = ndcg(allocate_individual(rel, MODEL, alpha, seed=1), rel, MODEL,
                10)
    assert ours == pytest.approx(verfair_ndcg, abs=5e-5)
