"""Frozen copy of `verfair.quota.find_anchor` as it was before its walk
became one `np.add.accumulate`: the slot-by-slot loop.

It is the differential reference of `tests/test_quota.py`. Do not edit
the body below; it is deliberately slow and exists only to pin behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from verfair.data import GroupMap, RelevanceMatrix
from verfair.exposure import ExposureModel, total_exposure
from verfair.quota import AnchorPoint, group_relevance

_REL_EPS = 1e-9


def find_anchor(model: ExposureModel, m, alpha) -> AnchorPoint:
    """Walk slots (m,k),(m-1,k),...,(1,k),(m,k-1),... accumulating
    examination probability; return the first slot at which the accumulated
    exposure reaches alpha * E_total (ties stop the walk)."""
    if not 0 < alpha <= 1:
        raise ValueError("anchor search requires 0 < alpha <= 1")
    target = alpha * total_exposure(model, m)
    acc = 0.0
    for j in range(model.k, 0, -1):
        p = model.probs[j - 1]
        for i in range(m, 0, -1):
            acc += p
            if acc >= target - _REL_EPS * target:
                return AnchorPoint(i, j)
    # alpha <= 1 guarantees the accumulated total reaches the target
    return AnchorPoint(1, 1)


# Frozen copy of the dict-shaped `verfair.quota.QuotaTable` and
# `compute_quotas` as they were before quotas became an array ordered like
# `group_ids`. `reference_allocator`, `reference_baselines` and
# `reference_evaluation` read them. Do not edit the bodies below.


@dataclass(frozen=True)
class QuotaTable:
    alpha: float
    per_group: dict  # group_id -> exposure quota
    e_total: float

    def vector(self, groups: GroupMap):
        return np.array([self.per_group[g] for g in groups.group_ids])


def compute_quotas(rel: RelevanceMatrix, groups: GroupMap,
                   model: ExposureModel, alpha) -> QuotaTable:
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0,1]")
    rg = group_relevance(rel, groups)
    total_rel = rg.sum()
    if total_rel <= 0:
        raise ValueError("total relevance is zero; quotas undefined")
    e_total = total_exposure(model, rel.m)
    quotas = rg * (alpha * e_total / total_rel)
    return QuotaTable(float(alpha),
                      dict(zip(groups.group_ids, quotas.tolist())),
                      e_total)
