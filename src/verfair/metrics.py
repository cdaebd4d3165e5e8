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


def _ideal_rows(rel: RelevanceMatrix):
    """Each consumer's relevance row sorted in descending order."""
    return -np.sort(-rel.scores, axis=1)


def ndcg(slates, rel: RelevanceMatrix, model: ExposureModel, k_c,
         ideal=None) -> float:
    """Mean over consumers of DCG@k_c / IDCG@k_c.

    DCG@k_c = sum_{j<=k_c} R(slate[j], u) * p_j; the ideal ranking sorts the
    consumer's own relevance row. Consumers with zero ideal DCG contribute 1.
    `ideal` is `_ideal_rows(rel)`, passed by callers that evaluate several
    cutoffs so the matrix is sorted once; it is computed when omitted.
    """
    if not 1 <= k_c <= model.k:
        raise ValueError(f"cutoff {k_c} out of range 1..{model.k}")
    discounts = model.probs[:k_c]
    if ideal is None:
        ideal = _ideal_rows(rel)
    ideal_scores = ideal[:, :k_c]
    rows = _positions(slates.consumer_ids, rel.consumer_ids)[slates.rows]
    cols = _positions(slates.item_ids, rel.item_ids)[slates.items[:, :k_c]]
    gains = rel.scores[rows[:, None], cols]
    # vecdot takes the same per-row dot product as `gains[c] @ discounts`
    dcg = np.vecdot(gains, discounts)
    idcg = (ideal_scores @ discounts)[rows]
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
        e = ledger.per_item[_positions(rel.item_ids, tuple(groups.assignment))]
        r = rel.avg_relevance()
    elif level == "group":
        e = ledger.per_group
        r = group_relevance(rel, groups)
    else:
        raise ValueError(f"unknown level {level!r}")
    if e.sum() <= 0:
        raise ValueError("all-zero exposure vector")
    if r.sum() <= 0:
        raise ValueError("all-zero relevance vector")
    return 1.0 - _jsd_base2(e / e.sum(), r / r.sum())


def evaluate(slates, rel: RelevanceMatrix, groups: GroupMap,
             model: ExposureModel, cutoffs) -> EvalReport:
    """Bundle NDCG at each cutoff with both fairness levels from one ledger."""
    ledger = accumulate(slates, model, groups)
    ideal = _ideal_rows(rel)
    return EvalReport(
        ndcg_at={kc: ndcg(slates, rel, model, kc, ideal) for kc in cutoffs},
        fairness_individual=jsd_fairness(ledger, rel, groups, "individual"),
        fairness_group=jsd_fairness(ledger, rel, groups, "group"),
    )
