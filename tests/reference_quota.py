"""Frozen copy of `verfair.quota.find_anchor` as it was before its walk
became one `np.add.accumulate`: the slot-by-slot loop.

It is the differential reference of `tests/test_quota.py`. Do not edit
the body below; it is deliberately slow and exists only to pin behaviour.
"""

from __future__ import annotations

from verfair.exposure import ExposureModel, total_exposure
from verfair.quota import AnchorPoint

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
