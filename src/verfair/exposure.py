"""Position-bias examination model and exposure accounting for slate sets.

Examination probability depends only on rank: p_j = (1/log2(1+j))**eta for
1-based rank j, identical for all consumers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupMap, _positions


@dataclass(frozen=True)
class ExposureModel:
    eta: float
    k: int
    probs: np.ndarray  # probs[j-1] is the examination probability at rank j

    @classmethod
    def pbm(cls, eta, k) -> "ExposureModel":
        if not eta >= 0:  # also rejects nan
            raise ValueError("eta must be a non-negative number")
        if k < 1:
            raise ValueError("k must be >= 1")
        ranks = np.arange(1, k + 1)
        probs = (1.0 / np.log2(1.0 + ranks)) ** eta
        return cls(float(eta), int(k), probs)


@dataclass(frozen=True, eq=False)
class ExposureLedger:
    per_item: np.ndarray   # ordered like the group map's items
    per_group: np.ndarray  # ordered like group_ids


def total_exposure(model: ExposureModel, m) -> float:
    """Fixed exposure budget of the whole ranking task: m * sum_j p_j."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(m * model.probs.sum())


def _check_shown(slates, col):
    """Refuse by name the first item a slate shows whose position in `col`,
    the map of `slates.item_ids`, is -1; an item no slate shows may be."""
    if col.min(initial=0) < 0:
        unknown = col[slates.items] < 0
        if unknown.any():
            c, r = divmod(int(np.argmax(unknown)), unknown.shape[1])
            raise ValueError(
                f"slate for {slates.consumer_ids[slates.rows[c]]!r} contains "
                f"unknown item {slates.item_ids[slates.items[c, r]]!r}")


def accumulate(slates, model: ExposureModel, groups: GroupMap) -> ExposureLedger:
    """Sum each item's examination probability over all slates it appears in.

    Items never shown get an explicit 0 entry; group totals aggregate the
    item totals under `groups`. Items are ordered like
    `groups.assignment`, groups like `groups.group_ids`. Both sums run
    consumer by consumer, rank by rank, in the slate set's row order.
    """
    ids = tuple(groups.assignment)
    col = _positions(slates.item_ids, ids)
    _check_shown(slates, col)
    m, k = slates.items.shape
    per_item = np.bincount(col[slates.items.ravel()],
                           weights=np.tile(model.probs[:k], m),
                           minlength=len(ids))
    group_of = _positions(tuple(groups.assignment.values()), groups.group_ids)
    per_group = np.bincount(group_of, weights=per_item,
                            minlength=len(groups.group_ids))
    return ExposureLedger(per_item, per_group)
