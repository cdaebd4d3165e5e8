import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verfair import (ExposureModel, accumulate, identity_groups,
                     synth_relevance, top_k, total_exposure)
from helpers import make_slateset


class TestModel:
    def test_first_rank_prob_is_one(self):
        for eta in (0.0, 0.5, 1.0, 3.0):
            assert ExposureModel.pbm(eta, 5).probs[0] == 1.0

    def test_eta_zero_all_ones(self):
        np.testing.assert_array_equal(ExposureModel.pbm(0.0, 4).probs,
                                      np.ones(4))

    def test_non_increasing(self):
        probs = ExposureModel.pbm(1.5, 10).probs
        assert np.all(np.diff(probs) <= 0)

    def test_severity_monotone_below_rank_one(self):
        # for rank >= 2 the probability strictly drops as eta grows
        for j in range(2, 6):
            vals = [ExposureModel.pbm(eta, 6).probs[j - 1]
                    for eta in (0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            ExposureModel.pbm(-1.0, 3)

    def test_no_slot_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            ExposureModel.pbm(1.0, 0)


class TestTotalExposure:
    def test_constant_exposure(self):
        assert total_exposure(ExposureModel.pbm(0.0, 2), 3) == 6.0

    def test_no_consumer_rejected(self):
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            total_exposure(ExposureModel.pbm(0.0, 2), 0)

    def test_single_slot(self):
        assert total_exposure(ExposureModel.pbm(2.7, 1), 1) == 1.0

    def test_eta_one_closed_form(self):
        expected = 2 * (1 + 1 / math.log2(3) + 0.5)
        got = total_exposure(ExposureModel.pbm(1.0, 3), 2)
        assert got == pytest.approx(4.2618595071429155, abs=1e-12)
        assert got == pytest.approx(expected, abs=1e-12)


class TestAccumulate:
    def test_vertical_slates_constant_exposure(self, three_equal):
        slates = make_slateset({"c1": ["A", "B"], "c2": ["C", "A"],
                                "c3": ["B", "C"]})
        ledger = accumulate(slates, ExposureModel.pbm(0.0, 2),
                            identity_groups(three_equal))
        assert ledger.per_item.tolist() == [2.0, 2.0, 2.0]

    def test_empty_slate_set(self, three_equal):
        ledger = accumulate(make_slateset({}), ExposureModel.pbm(1.0, 2),
                            identity_groups(three_equal))
        assert ledger.per_item.tolist() == [0.0, 0.0, 0.0]
        assert ledger.per_group.tolist() == [0.0, 0.0, 0.0]

    def test_single_slate_eta_one(self, three_equal):
        slates = make_slateset({"c1": ["A", "B"]})
        ledger = accumulate(slates, ExposureModel.pbm(1.0, 2),
                            identity_groups(three_equal))
        assert ledger.per_item[0] == 1.0
        assert ledger.per_item[1] == pytest.approx(0.6309297535714575,
                                                   abs=1e-12)
        assert ledger.per_item[2] == 0.0

    def test_unknown_item_rejected(self, three_equal):
        slates = make_slateset({"c1": ["A", "Z"]})
        with pytest.raises(ValueError, match="'Z'"):
            accumulate(slates, ExposureModel.pbm(0.0, 2),
                       identity_groups(three_equal))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 8), n=st.integers(3, 10), k=st.integers(1, 3),
       eta=st.sampled_from([0.0, 1.0, 2.0]), seed=st.integers(0, 1000))
def test_conservation(m, n, k, eta, seed):
    # any full slate set distributes exactly the total exposure budget
    if n < k:
        n = k
    rel = synth_relevance(m, n, seed=seed)
    model = ExposureModel.pbm(eta, k)
    slates = top_k(rel, k)
    ledger = accumulate(slates, model, identity_groups(rel))
    e_total = total_exposure(model, m)
    assert sum(ledger.per_item) == pytest.approx(e_total, rel=1e-9)
    assert sum(ledger.per_group) == pytest.approx(e_total, rel=1e-9)


def test_permuting_consumers_keeps_ledger(three_equal):
    model = ExposureModel.pbm(1.0, 2)
    groups = identity_groups(three_equal)
    a = make_slateset({"c1": ["A", "B"], "c2": ["C", "A"], "c3": ["B", "C"]})
    b = make_slateset({"c3": ["B", "C"], "c1": ["A", "B"], "c2": ["C", "A"]})
    assert accumulate(a, model, groups).per_item.tolist() == \
        accumulate(b, model, groups).per_item.tolist()
