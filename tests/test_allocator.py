import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_groups
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, accumulate,
                     allocate, allocate_individual, compute_quotas,
                     find_anchor, identity_groups, synth_relevance, top_k)
from verfair.allocator import ALLOCATION, _deadlines, _resort


class TestGoldenVertical:
    """Equal-average-relevance matrix, full fairness budget."""

    def test_slates(self, three_equal):
        model = ExposureModel.pbm(0.0, 2)
        s = allocate_individual(three_equal, model, 1.0, seed=0, shuffle=False)
        assert s.slates == {"c1": ["A", "B"], "c2": ["C", "A"],
                            "c3": ["B", "C"]}

    def test_equal_exposure(self, three_equal):
        model = ExposureModel.pbm(0.0, 2)
        s = allocate_individual(three_equal, model, 1.0, seed=0, shuffle=False)
        ledger = accumulate(s, model, identity_groups(three_equal))
        assert ledger.per_item.tolist() == pytest.approx([2.0, 2.0, 2.0])

    def test_group_mode_with_singletons_matches(self, three_equal):
        model = ExposureModel.pbm(0.0, 2)
        a = allocate_individual(three_equal, model, 1.0, seed=0, shuffle=False)
        b = allocate(three_equal, identity_groups(three_equal), model, 1.0,
                     seed=0, shuffle=False)
        assert a.slates == b.slates


class TestGoldenAnchor:
    """Half fairness budget: allocation starts mid-slate at the anchor."""

    def test_slates(self, three_equal_08):
        model = ExposureModel.pbm(0.0, 2)
        s = allocate_individual(three_equal_08, model, 0.5, seed=0,
                                shuffle=False)
        assert s.slates == {"c1": ["A", "B"], "c2": ["A", "C"],
                            "c3": ["B", "C"]}

    def test_minimum_exposure_met(self, three_equal_08):
        model = ExposureModel.pbm(0.0, 2)
        s = allocate_individual(three_equal_08, model, 0.5, seed=0,
                                shuffle=False)
        ledger = accumulate(s, model, identity_groups(three_equal_08))
        assert all(v >= 1.0 for v in ledger.per_item)

    def test_allocation_items_moved_forward_only(self, three_equal_08):
        model = ExposureModel.pbm(0.0, 2)
        s = allocate_individual(three_equal_08, model, 0.5, seed=0,
                                shuffle=False)
        for cid, slate in s.slates.items():
            for rank, d in enumerate(slate, start=1):
                if s.provenance[cid][d] == ALLOCATION:
                    assert rank <= s.pre_ranks[cid][d]


class TestDegenerate:
    def test_alpha_zero_equals_top_k(self):
        rel = synth_relevance(12, 9, seed=4)
        model = ExposureModel.pbm(1.0, 4)
        s = allocate_individual(rel, model, 0.0, seed=3, shuffle=False)
        t = top_k(rel, 4)
        assert s.slates == t.slates

    def test_n_less_than_k_rejected(self):
        rel = synth_relevance(3, 2, seed=0)
        with pytest.raises(ValueError):
            allocate_individual(rel, ExposureModel.pbm(0.0, 3), 1.0, seed=0)

    def test_invalid_alpha_rejected(self):
        rel = synth_relevance(3, 3, seed=0)
        with pytest.raises(ValueError):
            allocate_individual(rel, ExposureModel.pbm(0.0, 2), 1.5, seed=0)


class TestStructure:
    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(1, 8), n=st.integers(3, 12), k=st.integers(1, 3),
           alpha=st.floats(0, 1), eta=st.sampled_from([0.0, 1.0]),
           seed=st.integers(0, 100))
    def test_slates_are_distinct_permutations(self, m, n, k, alpha, eta, seed):
        if n < k:
            n = k
        rel = synth_relevance(m, n, seed=seed)
        model = ExposureModel.pbm(eta, k)
        s = allocate_individual(rel, model, alpha, seed=seed)
        for slate in s.slates.values():
            assert len(slate) == k
            assert len(set(slate)) == k
            assert set(slate) <= set(rel.item_ids)

    def test_deterministic(self):
        rel = synth_relevance(20, 10, seed=1)
        model = ExposureModel.pbm(1.0, 5)
        a = allocate_individual(rel, model, 0.8, seed=42)
        b = allocate_individual(rel, model, 0.8, seed=42)
        assert a.slates == b.slates and a.order == b.order

    def test_shuffle_is_seeded(self):
        rel = synth_relevance(50, 10, seed=1)
        model = ExposureModel.pbm(1.0, 5)
        a = allocate_individual(rel, model, 1.0, seed=0)
        b = allocate_individual(rel, model, 1.0, seed=1)
        assert a.order != b.order  # overwhelmingly likely at m=50


    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
    def test_appending_slots_are_the_first_ranks(self, eta, alpha):
        # the allocation phase fills whole ranks from the anchor down, so
        # the appending phase's slots are a prefix of each row: pre-ranks
        # 1..e, every allocation pre-rank above e, and all k at alpha 0
        k = 8
        model = ExposureModel.pbm(eta, k)
        mid_rank = set()
        for seed in range(40):
            m = 40 + seed
            if alpha > 0:
                anchor = find_anchor(model, m, alpha)
                if anchor.consumer > 1:
                    mid_rank.add(anchor.rank)
            rel = synth_relevance(m, 25, seed=seed)
            for groups in (identity_groups(rel),
                           random_groups(rel, np.random.default_rng(seed))):
                s = allocate(rel, groups, model, alpha, seed=seed)
                appending = s.phase == 2
                assert np.isin(s.phase, (1, 2)).all()
                e = appending.sum(axis=1, keepdims=True)
                assert ((s.pre_rank <= e) == appending).all()
                assert appending.all() or alpha > 0
        assert mid_rank or alpha in (0.0, 1.0)


class TestMinimumExposure:
    def test_random_instances_guarantee(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(5, 40))
            n = int(rng.integers(8, 20))
            k = int(rng.integers(2, min(n, 6)))
            eta = float(rng.choice([0.0, 1.0, 2.0]))
            alpha = float(rng.choice([0.3, 0.7, 1.0]))
            rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
            model = ExposureModel.pbm(eta, k)
            groups = identity_groups(rel)
            s = allocate(rel, groups, model, alpha, seed=0)
            ledger = accumulate(s, model, groups)
            quota = compute_quotas(rel, groups, model, alpha)
            slack = model.probs[k - 1] + 1e-9
            for i in range(len(groups.group_ids)):
                assert ledger.per_group[i] >= quota[i] - slack

    def test_exact_quota_when_no_fallback(self):
        # alpha=1 on an equal-relevance matrix: every quota is met exactly
        rel = RelevanceMatrix(
            ("c1", "c2"), ("A", "B"),
            np.array([[0.5, 0.5], [0.5, 0.5]]))
        model = ExposureModel.pbm(0.0, 2)
        groups = identity_groups(rel)
        s = allocate(rel, groups, model, 1.0, seed=0, shuffle=False)
        quota = compute_quotas(rel, groups, model, 1.0)
        assert not s.fallback_used
        for i in range(len(groups.group_ids)):
            assert s.allocation_exposure[i] == pytest.approx(quota[i],
                                                             rel=1e-6)

    def test_item_exposure_near_quota_at_full_alpha(self):
        rel = synth_relevance(20, 10, seed=13)
        model = ExposureModel.pbm(1.0, 5)
        groups = identity_groups(rel)
        s = allocate(rel, groups, model, 1.0, seed=0)
        ledger = accumulate(s, model, groups)
        quota = compute_quotas(rel, groups, model, 1.0)
        slack = model.probs[-1] + 1e-9
        for i in range(rel.n):
            assert ledger.per_item[i] >= quota[i] - slack

    def test_grouped_allocation_guarantee(self):
        rel = synth_relevance(30, 12, seed=21)
        groups = GroupMap({d: f"g{i % 3}" for i, d in enumerate(rel.item_ids)},
                          ("g0", "g1", "g2"))
        model = ExposureModel.pbm(1.0, 4)
        s = allocate(rel, groups, model, 1.0, seed=5)
        ledger = accumulate(s, model, groups)
        quota = compute_quotas(rel, groups, model, 1.0)
        slack = model.probs[-1] + 1e-9
        for i in range(len(groups.group_ids)):
            assert ledger.per_group[i] >= quota[i] - slack

    def test_same_rank_exchange_for_blocked_needy_item(self):
        # Without the exchange, slot (4, 3) falls back to an over-quota
        # item while the one needy item already sits in consumer 4's slate,
        # leaving it 1.23 p_k short although the oracle finds a feasible
        # assignment. A consumer filled earlier at rank 3 takes the needy
        # item and hands its own rank-3 item to consumer 4.
        rel = synth_relevance(4, 5, seed=744)
        model = ExposureModel.pbm(2.0, 3)
        groups = identity_groups(rel)
        s = allocate(rel, groups, model, 1.0, seed=744)
        ledger = accumulate(s, model, groups)
        quota = compute_quotas(rel, groups, model, 1.0)
        slack = model.probs[-1] + 1e-9
        for i in range(len(groups.group_ids)):
            assert ledger.per_group[i] >= quota[i] - slack
        for cid, slate in s.slates.items():
            assert len(set(slate)) == model.k
            for rank, d in enumerate(slate, start=1):
                if s.provenance[cid][d] == ALLOCATION:
                    assert rank <= s.pre_ranks[cid][d]


class TestResorting:
    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(2, 10), n=st.integers(4, 12),
           alpha=st.floats(0.2, 1.0), seed=st.integers(0, 100))
    def test_never_demotes_allocation_items(self, m, n, alpha, seed):
        rel = synth_relevance(m, n, seed=seed)
        model = ExposureModel.pbm(1.0, 3)
        s = allocate_individual(rel, model, alpha, seed=seed)
        for cid, slate in s.slates.items():
            for rank, d in enumerate(slate, start=1):
                if s.provenance[cid][d] == ALLOCATION:
                    assert rank <= s.pre_ranks[cid][d]

    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
    def test_equals_plain_sort_when_it_meets_every_deadline(self, eta):
        rng = np.random.default_rng(int(eta) + 40)
        k, n = 6, 10
        deadline = _deadlines(ExposureModel.pbm(eta, k).probs)
        plain_ok = 0
        for _ in range(300):
            scores_row = rng.choice([0.2, 0.5, 0.8], size=n)  # ties too
            id_rank = rng.permutation(n)
            items = rng.permutation(n)[:k]
            phases = rng.choice(np.array([1, 2], dtype=np.int8), size=k)
            plain = np.lexsort((id_rank[items], -scores_row[items]))
            new_rank = np.argsort(plain)
            last = np.where(phases == 1, deadline, k - 1)
            out = _resort(new_rank[None], last[None])[0]
            assert sorted(out.tolist()) == list(range(k))
            assert all(np.flatnonzero(out == j)[0] <= deadline[j]
                       for j in range(k) if phases[j] == 1)
            if all(new_rank[j] <= deadline[j]
                   for j in range(k) if phases[j] == 1):
                plain_ok += 1
                assert out.tolist() == plain.tolist()
        assert plain_ok > 0

    def test_keeps_allocation_item_that_plain_sort_would_demote(self):
        # the allocation item placed at rank 2 is the least relevant: the
        # plain sort would move it to rank 3, past its deadline
        items = np.array([0, 1, 2])
        scores_row = np.array([0.9, 0.1, 0.5])
        phases = np.array([2, 1, 2], dtype=np.int8)
        deadline = _deadlines(ExposureModel.pbm(1.0, 3).probs)
        assert deadline.tolist() == [0, 1, 2]
        plain = np.lexsort((items, -scores_row[items]))
        assert plain.tolist() == [0, 2, 1]
        last = np.where(phases == 1, deadline, 2)
        out = _resort(np.argsort(plain)[None], last[None])[0]
        assert out.tolist() == [0, 1, 2]


def test_vertical_beats_horizontal_at_top_rank():
    # non-personal relevance, full fairness, constant exposure: filling
    # rank 1 across consumers first can never lose at the top rank against
    # one-consumer-at-a-time filling
    from verfair import ndcg
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            row = rng.random(n)
            rel = RelevanceMatrix(
                tuple(f"c{i}" for i in range(m)),
                tuple(f"i{j}" for j in range(n)),
                np.tile(row, (m, 1)))
            model = ExposureModel.pbm(0.0, 2)
            vert = allocate_individual(rel, model, 1.0, seed=0, shuffle=False)
            horiz = _horizontal_fair(rel, model)
            assert ndcg(vert, rel, model, 1) >= \
                ndcg(horiz, rel, model, 1) - 1e-12


def _horizontal_fair(rel, model):
    """One consumer's full slate at a time under the same quota rule."""
    from helpers import make_slateset
    k = model.k
    quota = compute_quotas(rel, identity_groups(rel), model, 1.0)
    left = dict(zip(rel.item_ids, quota.tolist()))
    slates = {}
    for c, cid in enumerate(rel.consumer_ids):
        chosen = []
        for r in range(k):
            p = model.probs[r]
            cands = [d for d in rel.item_ids
                     if d not in chosen and left[d] >= p - 1e-9]
            if not cands:
                cands = [d for d in rel.item_ids if d not in chosen]
            pos = {d: i for i, d in enumerate(rel.item_ids)}
            best = sorted(cands, key=lambda d: (-rel.scores[c, pos[d]], d))[0]
            chosen.append(best)
            left[best] -= p
        slates[cid] = chosen
    return make_slateset(slates)
