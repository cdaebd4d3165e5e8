"""Output checks: every slate and metric the CLI writes is recomputed here
with the benchmark's own numpy code and compared against the file."""

from __future__ import annotations

import csv
import hashlib

import numpy as np

TOL = 1e-9
WALL_COLUMN = "wall_ms_per_1k"
QUALITY_COLUMNS = ("ndcg@1", "ndcg@3", "ndcg@10", "fairness_ind",
                   "fairness_group")


class CheckError(Exception):
    """An output that the program wrote is wrong."""


# What reading and checking a missing or garbled output file can raise.
OUTPUT_ERRORS = (CheckError, OSError, UnicodeDecodeError, csv.Error)


def pbm_probs(eta, k):
    """Examination probability per rank: (1 / log2(1 + j)) ** eta."""
    return (1.0 / np.log2(1.0 + np.arange(1, k + 1))) ** eta


def read_slates(path, consumer_ids, item_ids, k):
    """(m, k) item indices in input consumer order, after checking that
    every consumer appears once with exactly k distinct known items at
    ranks 1..k."""
    cpos = {c: i for i, c in enumerate(consumer_ids)}
    ipos = {d: i for i, d in enumerate(item_ids)}
    out = np.full((len(consumer_ids), k), -1, dtype=np.int64)
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise CheckError(f"{path.name}: missing run-header line")
        rows = csv.reader(fh)
        if next(rows, None) != ["consumer_id", "rank", "item_id", "phase_tag"]:
            raise CheckError(f"{path.name}: unexpected column header")
        for lineno, row in enumerate(rows, start=3):
            if len(row) != 4:
                raise CheckError(f"{path.name}:{lineno}: expected 4 fields")
            cid, rank, item, _ = row
            c, d = cpos.get(cid), ipos.get(item)
            if c is None or d is None:
                raise CheckError(f"{path.name}:{lineno}: unknown id")
            if not rank.isdigit() or not 1 <= int(rank) <= k:
                raise CheckError(f"{path.name}:{lineno}: bad rank {rank!r}")
            r = int(rank) - 1
            if out[c, r] >= 0:
                raise CheckError(f"{path.name}:{lineno}: consumer {cid!r} "
                                 f"has rank {rank} twice")
            out[c, r] = d
    if (out < 0).any():
        c = int(np.argwhere(out < 0)[0][0])
        raise CheckError(f"{path.name}: consumer {consumer_ids[c]!r} "
                         f"missing or short of {k} items")
    s = np.sort(out, axis=1)
    if (s[:, 1:] == s[:, :-1]).any():
        c = int(np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))[0])
        raise CheckError(f"{path.name}: consumer {consumer_ids[c]!r} "
                         f"has a repeated item")
    return out


def expected_top_k(scores, item_ids, k):
    """Score descending, item id ascending, per consumer."""
    m, n = scores.shape
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[sorted(range(n), key=lambda i: item_ids[i])] = np.arange(n)
    order = np.lexsort((np.broadcast_to(id_rank, (m, n)), -scores), axis=1)
    return order[:, :k]


def exposure(slates, probs, n):
    """Per-item summed examination probability."""
    return np.bincount(slates.ravel(), weights=np.tile(probs, len(slates)),
                       minlength=n)


def _jsd_fairness(e, r):
    p, q = e / e.sum(), r / r.sum()
    mid = 0.5 * (p + q)

    def kl(a):
        mask = a > 0
        return np.sum(a[mask] * np.log2(a[mask] / mid[mask]))

    return 1.0 - 0.5 * kl(p) - 0.5 * kl(q)


def recompute(scores, slates, probs, group_of, cutoffs):
    """The metrics CSV's quality columns, from slates and relevance."""
    n = scores.shape[1]
    out = {}
    ideal = -np.sort(-scores, axis=1)
    for c in cutoffs:
        dcg = np.take_along_axis(scores, slates[:, :c], axis=1) @ probs[:c]
        idcg = ideal[:, :c] @ probs[:c]
        out[f"ndcg@{c}"] = float(np.mean(
            np.where(idcg > 0, dcg / np.where(idcg > 0, idcg, 1.0), 1.0)))
    e_item = exposure(slates, probs, n)
    r_item = scores.mean(axis=0)
    out["fairness_ind"] = float(_jsd_fairness(e_item, r_item))
    out["fairness_group"] = float(_jsd_fairness(
        np.bincount(group_of, weights=e_item),
        np.bincount(group_of, weights=r_item)))
    return out


def max_shortfall_pk(scores, slates, probs, group_of, alpha):
    """max over groups of (quota - exposure) / p_k, with the quota split
    alpha * m * sum(p) in proportion to group average relevance."""
    rg = np.bincount(group_of, weights=scores.mean(axis=0))
    quota = rg * (alpha * len(scores) * probs.sum() / rg.sum())
    e = np.bincount(group_of, weights=exposure(slates, probs, scores.shape[1]),
                    minlength=len(rg))
    return float(np.max(quota - e) / probs[-1])


def read_metrics(path):
    """Rows of a metrics CSV as dicts of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckError(f"{path.name}: no metrics rows")
    return rows


def metric(row, column):
    try:
        return float(row[column])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"metrics column {column!r} missing or not a "
                         f"number") from None


def compare(row, expected, what):
    """Every expected column of `row` within TOL."""
    for column, want in expected.items():
        got = metric(row, column)
        if not abs(got - want) <= TOL:
            raise CheckError(f"{what}: {column}={got!r}, recomputed {want!r}")


def fingerprint(slate_path, metrics_path):
    """What must repeat exactly between passes: the slate file's hash (if
    the call writes slates) and every metrics column except wall time."""
    slate_hash = None
    if slate_path is not None:
        slate_hash = hashlib.sha256(slate_path.read_bytes()).hexdigest()
    return (slate_hash,
            tuple(tuple((k, v) for k, v in row.items() if k != WALL_COLUMN)
                  for row in read_metrics(metrics_path)))
