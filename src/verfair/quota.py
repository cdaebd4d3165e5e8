"""Fair-share exposure quotas and the anchor-point search.

Quota(G|alpha) distributes the alpha-fraction of the total exposure across
groups in proportion to their accumulated average relevance. The anchor
point is the slot where the backwards vertical walk over all (consumer,
rank) slots has accumulated at least alpha * E_total of exposure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupMap, RelevanceMatrix
from .exposure import ExposureModel, total_exposure

_REL_EPS = 1e-9


@dataclass(frozen=True)
class AnchorPoint:
    consumer: int  # 1-based index in the (shuffled) consumer order
    rank: int      # 1-based rank


def group_relevance(rel: RelevanceMatrix, groups: GroupMap):
    """Accumulated average relevance per group, ordered like group_ids."""
    gidx = groups.indices(rel)
    return np.bincount(gidx, weights=rel.avg_relevance(),
                       minlength=len(groups.group_ids))


def compute_quotas(rel: RelevanceMatrix, groups: GroupMap,
                   model: ExposureModel, alpha):
    """Each group's exposure quota, ordered like group_ids."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0,1]")
    rg = group_relevance(rel, groups)
    total_rel = rg.sum()
    if total_rel <= 0:
        raise ValueError("total relevance is zero; quotas undefined")
    return rg * (alpha * total_exposure(model, rel.m) / total_rel)


def find_anchor(model: ExposureModel, m, alpha) -> AnchorPoint:
    """Walk slots (m,k),(m-1,k),...,(1,k),(m,k-1),... accumulating
    examination probability; return the first slot at which the accumulated
    exposure reaches alpha * E_total (ties stop the walk).

    The walk's running sums are one `np.add.accumulate` over the slots in
    walk order, the same sequence of float additions as a slot-by-slot
    `acc += p`, so the anchor is exact."""
    if not 0 < alpha <= 1:
        raise ValueError("anchor search requires 0 < alpha <= 1")
    target = alpha * total_exposure(model, m)
    walked = np.add.accumulate(np.repeat(model.probs[::-1], m))
    reached = walked >= target - _REL_EPS * target
    if not reached.any():
        # alpha <= 1 guarantees the accumulated total reaches the target
        return AnchorPoint(1, 1)
    slot = int(reached.argmax())
    return AnchorPoint(m - slot % m, model.k - slot // m)
