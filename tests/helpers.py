"""Shared test utilities, including independent brute-force oracles."""

import math

import numpy as np

from verfair import GroupMap, compute_quotas
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
