"""Two-sided evaluation: examination-weighted NDCG for consumers and
JSD-based amortized fairness for items/groups.

DCG uses linear gain and the examination probability as the rank discount,
so the relevance metric and the exposure accounting share one position
model. Fairness is 1 minus the base-2 Jensen-Shannon divergence between the
normalized exposure and relevance distributions, hence bounded in [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import _SORT_BLOCK, _partitions
from .data import GroupMap, RelevanceMatrix
from .exposure import ExposureLedger, ExposureModel, accumulate
from .quota import group_relevance


@dataclass(frozen=True)
class EvalReport:
    ndcg_at: dict            # cutoff -> value in [0,1]
    fairness_individual: float
    fairness_group: float


def _positions(ids, dataset_ids):
    """Index of each of `ids` within `dataset_ids`."""
    if ids == dataset_ids:
        return np.arange(len(ids))
    pos = {d: i for i, d in enumerate(dataset_ids)}
    return np.array([pos[d] for d in ids], dtype=int)


def _ideal_rows(scores, depth):
    """The `depth` largest scores of each row, in descending order.

    Rows go a block of `_SORT_BLOCK` scores at a time, so no temporary
    grows to (m, n). Where `_partitions(n, depth)` holds, a block is cut to
    the depth largest scores of each row by `np.partition` before the
    sort. Either way each row holds the same values as the first depth
    columns of `-np.sort(-scores, axis=1)`."""
    m, n = scores.shape
    out = np.empty((m, depth))
    step = max(1, _SORT_BLOCK // n)
    wide = _partitions(n, depth)
    for lo in range(0, m, step):
        neg = -scores[lo:lo + step]
        if wide:
            neg = np.partition(neg, depth - 1, axis=1)[:, :depth]
        np.negative(np.sort(neg, axis=1)[:, :depth], out=out[lo:lo + step])
    return out


def _check_cutoff(k_c, model: ExposureModel):
    if not 1 <= k_c <= model.k:
        raise ValueError(f"cutoff {k_c} out of range 1..{model.k}")


def _check_relevance(r):
    if r.sum() <= 0:
        raise ValueError("all-zero relevance vector")


def check_evaluable(rel: RelevanceMatrix, groups: GroupMap,
                    model: ExposureModel, cutoffs):
    """Every refusal of `evaluate` under a `pbm` model, in this order: a
    cutoff outside 1..k, an item of `rel` that `groups` gives no group,
    then an all-zero mean relevance. (Rank 1 is examined with probability
    1, so a slate set of one slate or more never has all-zero exposure;
    `evaluate` refuses an empty slate set before these.)"""
    for kc in cutoffs:
        _check_cutoff(kc, model)
    groups.indices(rel)  # raises for a matrix item with no group
    _check_relevance(rel.avg_relevance())


def _gather(slates, rel: RelevanceMatrix, depth):
    """(rows, gains, ideal) for NDCG at every cutoff up to `depth`: each
    slate's consumer row, the relevance of its first `depth` items, and
    the (m, depth) ideal scores of `_ideal_rows`."""
    rows = _positions(slates.consumer_ids, rel.consumer_ids)[slates.rows]
    cols = _positions(slates.item_ids, rel.item_ids)[slates.items[:, :depth]]
    return rows, rel.scores[rows[:, None], cols], _ideal_rows(rel.scores,
                                                             depth)


def ndcg(slates, rel: RelevanceMatrix, model: ExposureModel, k_c,
         gathered=None) -> float:
    """Mean over consumers of DCG@k_c / IDCG@k_c.

    DCG@k_c = sum_{j<=k_c} R(slate[j], u) * p_j; the ideal ranking sorts the
    consumer's own relevance row. Consumers with zero ideal DCG contribute 1.
    `gathered` is `_gather(slates, rel, depth)` for some depth >= k_c,
    passed by `evaluate` so all its cutoffs read one gather; it is made
    for depth k_c when omitted, which sorts only each row's k_c largest
    scores. An empty slate set is refused, as `evaluate` refuses it.
    """
    if not len(slates.rows):
        raise ValueError("no slates to evaluate")
    _check_cutoff(k_c, model)
    if gathered is None:
        gathered = _gather(slates, rel, k_c)
    rows, gains, ideal = gathered
    discounts = model.probs[:k_c]
    # vecdot takes the same per-row dot product as `gains[c] @ discounts`
    dcg = np.vecdot(gains[:, :k_c], discounts)
    idcg = (ideal[:, :k_c] @ discounts)[rows]
    vals = np.ones(len(rows))
    np.divide(dcg, idcg, out=vals, where=idcg > 0)
    return float(np.mean(vals))


def _jsd_base2(p, q):
    """Jensen-Shannon divergence with base-2 logs; 0*log 0 taken as 0."""
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def jsd_fairness(ledger: ExposureLedger, rel: RelevanceMatrix,
                 groups: GroupMap, level="individual") -> float:
    """1 - JSD between the exposure and relevance distributions.

    `level` selects per-item or per-group distributions; both are normalized
    to probability vectors first, so the metric is scale-invariant.
    """
    if level == "individual":
        try:
            e = ledger.per_item[_positions(rel.item_ids,
                                           tuple(groups.assignment))]
        except KeyError:  # an item of `rel` has no group
            groups.indices(rel)  # raises the DataError that names it
            raise
        r = rel.avg_relevance()
    elif level == "group":
        e = ledger.per_group
        r = group_relevance(rel, groups)
    else:
        raise ValueError(f"unknown level {level!r}")
    if e.sum() <= 0:
        raise ValueError("all-zero exposure vector")
    _check_relevance(r)
    return 1.0 - _jsd_base2(e / e.sum(), r / r.sum())


def evaluate(slates, rel: RelevanceMatrix, groups: GroupMap,
             model: ExposureModel, cutoffs) -> EvalReport:
    """Bundle NDCG at each cutoff with both fairness levels from one ledger.

    An empty slate set is refused first, then `check_evaluable` runs; all
    cutoffs then read one `_gather` to the largest."""
    if not len(slates.rows):
        raise ValueError("no slates to evaluate")
    check_evaluable(rel, groups, model, cutoffs)
    ledger = accumulate(slates, model, groups)
    gathered = _gather(slates, rel, max(cutoffs)) if cutoffs else None
    return EvalReport(
        ndcg_at={kc: ndcg(slates, rel, model, kc, gathered) for kc in cutoffs},
        fairness_individual=jsd_fairness(ledger, rel, groups, "individual"),
        fairness_group=jsd_fairness(ledger, rel, groups, "group"),
    )
