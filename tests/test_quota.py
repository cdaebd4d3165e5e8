import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_quota
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, compute_quotas,
                     find_anchor, identity_groups, synth_relevance,
                     total_exposure)


class TestComputeQuotas:
    def test_equal_relevance_full_alpha(self, three_equal):
        model = ExposureModel.pbm(0.0, 2)
        q = compute_quotas(three_equal, identity_groups(three_equal), model, 1.0)
        assert q.tolist() == pytest.approx([2.0, 2.0, 2.0])

    def test_alpha_zero_all_zero(self, three_equal):
        model = ExposureModel.pbm(1.0, 2)
        q = compute_quotas(three_equal, identity_groups(three_equal), model, 0.0)
        assert all(v == 0.0 for v in q)

    def test_half_alpha(self, three_equal_08):
        model = ExposureModel.pbm(0.0, 2)
        q = compute_quotas(three_equal_08, identity_groups(three_equal_08),
                           model, 0.5)
        assert q.tolist() == pytest.approx([1.0, 1.0, 1.0])

    def test_zero_relevance_group_gets_zero(self):
        rel = RelevanceMatrix(("c1",), ("A", "B"), np.array([[1.0, 0.0]]))
        model = ExposureModel.pbm(0.0, 2)
        q = compute_quotas(rel, identity_groups(rel), model, 1.0)
        assert q[1] == 0.0
        assert q[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_rejected(self, three_equal,
                                                      alpha):
        with pytest.raises(ValueError, match=r"^alpha must be in \[0,1\]$"):
            compute_quotas(three_equal, identity_groups(three_equal),
                           ExposureModel.pbm(0.0, 2), alpha)

    def test_all_zero_relevance_rejected(self):
        rel = RelevanceMatrix(("c1",), ("A", "B"), np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            compute_quotas(rel, identity_groups(rel),
                           ExposureModel.pbm(0.0, 2), 1.0)

    def test_grouped_quota_aggregates(self, three_equal):
        groups = GroupMap({"A": "g1", "B": "g1", "C": "g2"}, ("g1", "g2"))
        model = ExposureModel.pbm(0.0, 2)
        q = compute_quotas(three_equal, groups, model, 1.0)
        assert q[0] == pytest.approx(4.0)
        assert q[1] == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 10), n=st.integers(1, 10),
           alpha=st.floats(0, 1), eta=st.sampled_from([0.0, 1.0, 2.0]),
           seed=st.integers(0, 1000))
    def test_quotas_sum_to_alpha_fraction(self, m, n, alpha, eta, seed):
        rel = synth_relevance(m, n, seed=seed)
        if rel.scores.sum() == 0:
            return
        model = ExposureModel.pbm(eta, 3)
        q = compute_quotas(rel, identity_groups(rel), model, alpha)
        assert sum(q) == pytest.approx(
            alpha * total_exposure(model, m), rel=1e-9, abs=1e-12)

    def test_scale_invariance(self):
        rel = synth_relevance(5, 6, seed=2)
        scaled = RelevanceMatrix(rel.consumer_ids, rel.item_ids,
                                 rel.scores * 37.5)
        model = ExposureModel.pbm(1.0, 3)
        qa = compute_quotas(rel, identity_groups(rel), model, 0.7)
        qb = compute_quotas(scaled, identity_groups(scaled), model, 0.7)
        for i in range(rel.n):
            assert qa[i] == pytest.approx(qb[i], rel=1e-12)


class TestFindAnchor:
    def test_half_alpha_constant_exposure(self):
        a = find_anchor(ExposureModel.pbm(0.0, 2), 3, 0.5)
        assert (a.consumer, a.rank) == (1, 2)

    def test_full_alpha_is_origin(self):
        a = find_anchor(ExposureModel.pbm(0.0, 2), 3, 1.0)
        assert (a.consumer, a.rank) == (1, 1)

    def test_eta_one_hand_walk(self):
        # accumulation 0.6309, 1.2619, 2.2619 against target 1.6309
        a = find_anchor(ExposureModel.pbm(1.0, 2), 2, 0.5)
        assert (a.consumer, a.rank) == (2, 1)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            find_anchor(ExposureModel.pbm(0.0, 2), 3, 0.0)

    def _walk_exposure(self, model, m, anchor):
        """Total exposure of slots at-or-after the anchor in walk order."""
        total = 0.0
        for j in range(model.k, anchor.rank, -1):
            total += m * model.probs[j - 1]
        total += (m - anchor.consumer + 1) * model.probs[anchor.rank - 1]
        return total

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 12), k=st.integers(1, 6),
           eta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           alpha=st.floats(0.01, 1.0))
    def test_bracketing(self, m, k, eta, alpha):
        model = ExposureModel.pbm(eta, k)
        target = alpha * total_exposure(model, m)
        a = find_anchor(model, m, alpha)
        at = self._walk_exposure(model, m, a)
        assert at >= target - 1e-9 * target
        # dropping the anchor slot itself falls short of the target
        before = at - model.probs[a.rank - 1]
        assert before < target + 1e-9 * target

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 10), k=st.integers(1, 5),
           eta=st.sampled_from([0.0, 1.0]))
    def test_monotone_in_alpha(self, m, k, eta):
        model = ExposureModel.pbm(eta, k)

        def walk_pos(a):
            # position in the backwards walk, later alpha -> earlier slot
            return (model.k - a.rank) * m + (m - a.consumer)

        anchors = [find_anchor(model, m, alpha)
                   for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        positions = [walk_pos(a) for a in anchors]
        assert all(p1 <= p2 for p1, p2 in zip(positions, positions[1:]))


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 500), k=st.integers(1, 12),
       eta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       alpha=st.one_of(st.just(1.0), st.floats(0, 1, exclude_min=True)))
def test_find_anchor_matches_slot_walk(m, k, eta, alpha):
    model = ExposureModel.pbm(eta, k)
    assert find_anchor(model, m, alpha) == \
        reference_quota.find_anchor(model, m, alpha)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 500), k=st.integers(1, 12), data=st.data())
def test_find_anchor_matches_slot_walk_on_slot_boundaries(m, k, data):
    # flat probabilities: alpha = j / (m k) asks for exactly j slots, so
    # the target lands on a running sum and only the tie rule decides
    j = data.draw(st.integers(1, m * k), label="j")
    model = ExposureModel.pbm(0.0, k)
    alpha = j / (m * k)
    assert find_anchor(model, m, alpha) == \
        reference_quota.find_anchor(model, m, alpha)
