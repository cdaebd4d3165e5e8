"""Frozen copy of the dict-based evaluation and output code as it was
before slate sets became index arrays: `exposure.accumulate`,
`metrics.ndcg`, `harness.write_slates`, `harness._metrics_row`,
`harness.dump_distributions` and `baselines._as_slateset`.

It is the differential reference: `tests/test_evaluation_differential.py`
requires the array code to give equal ledgers, equal NDCG and
byte-identical CSVs. These functions read a slate set only through its
`order`, `slates` and `provenance` mappings, so they accept both the
production SlateSet (through its id views) and the dict-shaped record of
`reference_allocator`. Do not edit the bodies below; they are
deliberately slow and exist only to pin behaviour.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from reference_allocator import SlateSet
from reference_quota import compute_quotas
from verfair.allocator import APPENDING
from verfair.data import GroupMap, RelevanceMatrix, identity_groups
from verfair.exposure import ExposureModel
from verfair.metrics import _jsd_base2

METRICS_HEADER = ("method,param,eta,k,ndcg@1,ndcg@3,ndcg@10,"
                  "fairness_ind,fairness_group,wall_ms_per_1k")


def _as_slateset(rel: RelevanceMatrix, slate_idx):
    """Wrap an (m, k) array of item indices in dataset consumer order."""
    slates, provenance, pre_ranks = {}, {}, {}
    for c, cid in enumerate(rel.consumer_ids):
        items = [rel.item_ids[d] for d in slate_idx[c]]
        slates[cid] = items
        provenance[cid] = {d: APPENDING for d in items}
        pre_ranks[cid] = {d: r + 1 for r, d in enumerate(items)}
    return SlateSet(order=tuple(rel.consumer_ids), slates=slates,
                    provenance=provenance, pre_ranks=pre_ranks)


def accumulate(slates, model: ExposureModel, groups: GroupMap) -> ExposureLedger:
    """Sum each item's examination probability over all slates it appears in.

    Items never shown get an explicit 0 entry; group totals aggregate the
    item totals under `groups`.
    """
    per_item = {d: 0.0 for d in groups.assignment}
    for cid, slate in slates.slates.items():
        for rank, d in enumerate(slate, start=1):
            if d not in per_item:
                raise ValueError(f"slate for {cid!r} contains unknown item {d!r}")
            per_item[d] += float(model.probs[rank - 1])
    per_group = {g: 0.0 for g in groups.group_ids}
    for d, e in per_item.items():
        per_group[groups.assignment[d]] += e
    return ExposureLedger(per_item, per_group)


def ndcg(slates, rel: RelevanceMatrix, model: ExposureModel, k_c) -> float:
    """Mean over consumers of DCG@k_c / IDCG@k_c.

    DCG@k_c = sum_{j<=k_c} R(slate[j], u) * p_j; the ideal ranking sorts the
    consumer's own relevance row. Consumers with zero ideal DCG contribute 1.
    """
    if not 1 <= k_c <= model.k:
        raise ValueError(f"cutoff {k_c} out of range 1..{model.k}")
    item_pos = rel.item_index()
    discounts = model.probs[:k_c]
    ideal_scores = -np.sort(-rel.scores, axis=1)[:, :k_c]
    idcg_all = ideal_scores @ discounts
    vals = []
    cpos = rel.consumer_index()
    for cid, slate in slates.slates.items():
        c = cpos[cid]
        gains = rel.scores[c, [item_pos[d] for d in slate[:k_c]]]
        dcg = float(gains @ discounts)
        idcg = float(idcg_all[c])
        vals.append(dcg / idcg if idcg > 0 else 1.0)
    return float(np.mean(vals))


def _metrics_row(method, param, eta, k, report, wall_ms):
    def nd(kc):
        return report.ndcg_at.get(kc, float("nan"))
    cells = [method, repr(float(param)), repr(float(eta)), str(k),
             repr(float(nd(1))), repr(float(nd(3))), repr(float(nd(10))),
             repr(float(report.fairness_individual)),
             repr(float(report.fairness_group)), repr(float(wall_ms))]
    return ",".join(cells)


def write_slates(slates, config, path):
    """Slate dump: a run-header line, then consumer_id,rank,item_id,phase_tag."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# method={config.method} alpha={config.alpha} "
                 f"lambda={config.lam} eta={config.eta} k={config.k} "
                 f"seed={config.seed}\n")
        w = csv.writer(fh)
        w.writerow(["consumer_id", "rank", "item_id", "phase_tag"])
        for cid in slates.order:
            for rank, d in enumerate(slates.slates[cid], start=1):
                w.writerow([cid, rank, d, slates.provenance[cid][d]])


def dump_distributions(slates, rel: RelevanceMatrix, groups: GroupMap,
                       model: ExposureModel, alpha, path):
    """Per-item CSV of (item_id, avg_relevance, exposure, quota_at_alpha)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "avg_relevance", "exposure", "quota_at_alpha"])
        if not slates.slates:
            return
        ledger = accumulate(slates, model, groups)
        quota = compute_quotas(rel, identity_groups(rel), model, alpha)
        avg = dict(zip(rel.item_ids, rel.avg_relevance()))
        for d in rel.item_ids:
            w.writerow([d, repr(float(avg[d])), repr(float(ledger.per_item[d])),
                        repr(float(quota.per_group[d]))])


# Frozen copy of the dict-shaped `verfair.exposure.ExposureLedger` and of
# the `verfair.metrics.jsd_fairness` that read it, as they were before
# ledgers became arrays. `accumulate` above builds this ledger. Do not
# edit the bodies below.


@dataclass(frozen=True)
class ExposureLedger:
    per_item: dict   # item_id -> accumulated exposure
    per_group: dict  # group_id -> accumulated exposure

    def item_vector(self, rel: RelevanceMatrix):
        return np.array([self.per_item[d] for d in rel.item_ids])

    def group_vector(self, groups: GroupMap):
        return np.array([self.per_group[g] for g in groups.group_ids])


def jsd_fairness(ledger: ExposureLedger, rel: RelevanceMatrix,
                 groups: GroupMap, level="individual") -> float:
    """1 - JSD between the exposure and relevance distributions.

    `level` selects per-item or per-group distributions; both are normalized
    to probability vectors first, so the metric is scale-invariant.
    """
    if level == "individual":
        e = ledger.item_vector(rel)
        r = rel.avg_relevance()
    elif level == "group":
        e = ledger.group_vector(groups)
        gidx = groups.indices(rel)
        r = np.bincount(gidx, weights=rel.avg_relevance(),
                        minlength=len(groups.group_ids))
    else:
        raise ValueError(f"unknown level {level!r}")
    if e.sum() <= 0:
        raise ValueError("all-zero exposure vector")
    if r.sum() <= 0:
        raise ValueError("all-zero relevance vector")
    return 1.0 - _jsd_base2(e / e.sum(), r / r.sum())
