"""Shared test utilities, including independent brute-force oracles."""

import math
from itertools import permutations

import numpy as np

from verfair import (ExposureModel, GroupMap, RelevanceMatrix, accumulate,
                     compute_quotas, identity_groups, synth_relevance)
from verfair.allocator import SlateSet


def make_slateset(slates):
    """Wrap a plain {consumer: [items]} dict in a SlateSet: rows in the
    dict's order, item indices in order of first appearance, every item
    appended at its final rank."""
    item_ids = tuple(dict.fromkeys(d for sl in slates.values() for d in sl))
    pos = {d: i for i, d in enumerate(item_ids)}
    k = len(next(iter(slates.values()), ()))
    items = np.array([[pos[d] for d in sl] for sl in slates.values()],
                     dtype=int).reshape(len(slates), k)
    return SlateSet(tuple(slates), item_ids, np.arange(len(slates)), items,
                    phase=np.full(items.shape, 2, dtype=np.int8),
                    pre_rank=np.tile(np.arange(1, k + 1), (len(slates), 1)))


def random_groups(rel, rng):
    """Every item in one of g non-empty groups."""
    g = int(rng.integers(1, rel.n + 1))
    label = rng.permutation(np.arange(rel.n) % g)
    return GroupMap({d: f"g{label[i]}" for i, d in enumerate(rel.item_ids)},
                    tuple(f"g{i}" for i in range(g)))


def brute_ndcg(slates, rel, probs, k_c):
    """Independent per-consumer DCG/IDCG computed with plain loops."""
    item_pos = {d: i for i, d in enumerate(rel.item_ids)}
    total = 0.0
    for c, cid in enumerate(rel.consumer_ids):
        dcg = sum(rel.scores[c, item_pos[d]] * probs[j]
                  for j, d in enumerate(slates.slates[cid][:k_c]))
        ideal = sorted(rel.scores[c], reverse=True)[:k_c]
        idcg = sum(v * probs[j] for j, v in enumerate(ideal))
        total += dcg / idcg if idcg > 0 else 1.0
    return total / rel.m


def direct_jsd(p, q):
    """Two-term KL against the mixture, base-2 logs, plain loops."""
    m = [(a + b) / 2 for a, b in zip(p, q)]

    def kl(a, b):
        return sum(x * math.log2(x / y) for x, y in zip(a, b) if x > 0)

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def bound_unsatisfiable(rel, groups, model, alpha):
    """True when counting alone proves that no set of m distinct-item
    slates of length k gives every group exposure >= quota - p_k.

    One appearance earns at most p_1, so a group owes at least
    a_g = ceil((quota_g - p_k) / p_1) appearances. A consumer shows at most
    min(|g|, k) items of g and m * k items in all, so the bound is out of
    reach when some a_g > m * min(|g|, k) or when sum(a_g) > m * k. The
    check never looks at an allocator's output."""
    m, k, probs = rel.m, model.k, model.probs
    quota = compute_quotas(rel, groups, model, alpha)
    slack = probs[k - 1] + 1e-9
    # the 1e-9 keeps float noise from rounding a_g up: a smaller a_g is
    # still a lower bound, so the check stays sound
    owed = np.maximum(np.ceil((quota - slack) / probs[0] - 1e-9), 0)
    size = np.bincount(groups.indices(rel), minlength=len(groups.group_ids))
    return bool((owed > m * np.minimum(size, k)).any()
                or owed.sum() > m * k)


_ORACLE_LIMIT = 4_000_000  # max enumerated combinations held in memory at once


def oracle_exact(rel: RelevanceMatrix, groups: GroupMap,
                 model: ExposureModel, alpha):
    """Exhaustively enumerate every assignment of length-k permutations to
    consumers; return (best mean NDCG@k among assignments whose group
    exposures meet every quota within a probs[k] slack, feasible flag).

    Only for tiny instances (m <= 4, n <= 6, k <= 3)."""
    m, n, k = rel.m, rel.n, model.k
    if m > 4 or n > 6 or k > 3:
        raise ValueError("instance too large for exhaustive enumeration")
    gidx = groups.indices(rel)
    n_groups = len(groups.group_ids)
    probs = model.probs
    quota = compute_quotas(rel, groups, model, alpha)
    slack = probs[k - 1] + 1e-9

    choices = list(permutations(range(n), k))
    ideal = -np.sort(-rel.scores, axis=1)[:, :k] @ probs
    per_cons_exp = []   # (n_choices, n_groups) group exposure of each choice
    per_cons_ndcg = []  # (n_choices,) this consumer's NDCG contribution
    for c in range(m):
        exp = np.zeros((len(choices), n_groups))
        dcg = np.empty(len(choices))
        for i, ch in enumerate(choices):
            np.add.at(exp[i], gidx[list(ch)], probs)
            dcg[i] = rel.scores[c, list(ch)] @ probs
        nd = dcg / ideal[c] if ideal[c] > 0 else np.ones(len(choices))
        per_cons_exp.append(exp)
        per_cons_ndcg.append(nd)

    # Fold consumers 2..m into one cross-product table, then stream over
    # consumer 1's choices to bound memory.
    exp_rest = per_cons_exp[-1]
    nd_rest = per_cons_ndcg[-1]
    for c in range(m - 2, 0, -1):
        size = exp_rest.shape[0] * len(choices)
        if size > _ORACLE_LIMIT:
            raise ValueError("instance too large for exhaustive enumeration")
        exp_rest = (per_cons_exp[c][:, None, :] + exp_rest[None, :, :]
                    ).reshape(-1, n_groups)
        nd_rest = (per_cons_ndcg[c][:, None] + nd_rest[None, :]).ravel()

    best = -np.inf
    feasible = False
    if m == 1:
        exp_rest = np.zeros((1, n_groups))
        nd_rest = np.zeros(1)
    for i in range(len(choices)):
        total_exp = exp_rest + per_cons_exp[0][i]
        ok = (total_exp >= quota - slack).all(axis=1)
        if ok.any():
            feasible = True
            cand = (nd_rest[ok] + per_cons_ndcg[0][i]).max()
            best = max(best, cand)
    if not feasible:
        return float("nan"), False
    return float(best / m), True


# The instance families and the matched guarantee of the headline claim
# (VerFair against FairCo on the fairness-relevance trade-off).

def scaled_instance(s):
    """I(s): `synth_relevance(1000, 100, seed=s)`, column j scaled by
    `default_rng(s + 1000).permutation(np.linspace(1.0, 0.2, 100))[j]`,
    so items differ in mean relevance; consumers are i.i.d."""
    rel = synth_relevance(1000, 100, seed=s)
    scale = np.random.default_rng(s + 1000).permutation(
        np.linspace(1.0, 0.2, 100))
    return RelevanceMatrix(rel.consumer_ids, rel.item_ids, rel.scores * scale)


def clustered_instance(s, order):
    """C(s) with its rows, consumer ids with them, in `order`: "random"
    (`default_rng(s + 7).permutation(1000)`) or "clustered" (cluster 0's
    consumers first, each cluster in id order).

    The scores of `synth_relevance(1000, 100, seed=s)` are scaled by item
    as in I(s), but through `rng = default_rng(s)`, which then draws each
    consumer's cluster, 0 or 1. Cluster 0 likes items 0-49 and cluster 1
    items 50-99; a score of an item the cluster does not like is scaled
    by 0.3."""
    rel = synth_relevance(1000, 100, seed=s)
    rng = np.random.default_rng(s)
    scores = rel.scores * rng.permutation(np.linspace(1.0, 0.2, 100))
    cluster = rng.integers(0, 2, 1000)
    liked = (np.arange(100) >= 50) == (cluster[:, None] == 1)
    scores = np.where(liked, scores, scores * 0.3)
    rows = {"random": np.random.default_rng(s + 7).permutation(1000),
            "clustered": np.argsort(cluster, kind="stable")}[order]
    return RelevanceMatrix(tuple(rel.consumer_ids[r] for r in rows),
                           rel.item_ids, scores[rows])


def shortfall_pk(slates, rel, model, alpha):
    """The largest amount, in units of p_k, by which an item's exposure in
    `slates` falls short of its individual quota at `alpha`."""
    groups = identity_groups(rel)
    exposure = accumulate(slates, model, groups).per_item
    short = compute_quotas(rel, groups, model, alpha) - exposure
    return float(short.max() / model.probs[model.k - 1])


def matched_alpha(slates, rel, model):
    """The matched guarantee alpha* of `slates`: the largest alpha on a
    0.01 grid at which every item's exposure is at least its individual
    quota(alpha) - p_k. Quotas grow with alpha, so every alpha below it
    is met too."""
    groups = identity_groups(rel)
    exposure = accumulate(slates, model, groups).per_item
    p_k = model.probs[model.k - 1]
    return max(a / 100 for a in range(101) if (
        exposure >= compute_quotas(rel, groups, model, a / 100) - p_k).all())
