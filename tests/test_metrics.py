import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from verfair import (DataError, ExposureModel, GroupMap, RelevanceMatrix,
                     allocate_individual, evaluate, identity_groups,
                     jsd_fairness, ndcg, synth_relevance, top_k)
from verfair import data
from verfair.exposure import ExposureLedger, accumulate
from verfair.metrics import check_evaluable
from helpers import brute_ndcg, consumer_ndcg, direct_jsd, make_slateset


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        rel = synth_relevance(6, 8, seed=5)
        model = ExposureModel.pbm(1.0, 4)
        slates = top_k(rel, 4)
        for kc in (1, 2, 3, 4):
            assert ndcg(slates, rel, model, kc) == pytest.approx(1.0)

    def test_vertical_slates_at_one(self, three_equal):
        slates = make_slateset({"c1": ["A", "B"], "c2": ["C", "A"],
                                "c3": ["B", "C"]})
        model = ExposureModel.pbm(0.0, 2)
        assert ndcg(slates, rel=three_equal, model=model, k_c=1) == 1.0

    def test_horizontal_slates_oracle_values(self, three_equal):
        # frozen from the brute-force per-consumer computation
        slates = make_slateset({"c1": ["A", "B"], "c2": ["C", "B"],
                                "c3": ["A", "C"]})
        model = ExposureModel.pbm(0.0, 2)
        assert ndcg(slates, three_equal, model, 1) == pytest.approx(
            0.9761904761904763, abs=1e-12)
        assert ndcg(slates, three_equal, model, 2) == pytest.approx(
            0.9753086419753085, abs=1e-12)

    def test_cutoff_out_of_range(self, three_equal):
        slates = make_slateset({"c1": ["A", "B"]})
        with pytest.raises(ValueError):
            ndcg(slates, three_equal, ExposureModel.pbm(0.0, 2), 3)

    @pytest.mark.parametrize("k_c", [1, 2, 3])
    def test_empty_slate_set_refused_before_the_cutoff(self, k_c):
        # not the nan of a mean over no consumers, whatever the cutoff
        rel = synth_relevance(4, 5, seed=3)
        slates = top_k(rel, 2)
        empty = dataclasses.replace(
            slates, rows=slates.rows[:0], items=slates.items[:0],
            phase=slates.phase[:0], pre_rank=slates.pre_rank[:0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^no slates to evaluate$"):
                ndcg(empty, rel, ExposureModel.pbm(1.0, 2), k_c)

    def test_zero_ideal_consumer_contributes_one(self):
        from verfair import RelevanceMatrix
        rel = RelevanceMatrix(("c1", "c2"), ("A", "B"),
                              np.array([[0.0, 0.0], [1.0, 0.5]]))
        model = ExposureModel.pbm(1.0, 2)
        slates = make_slateset({"c1": ["B", "A"], "c2": ["A", "B"]})
        assert ndcg(slates, rel, model, 2) == pytest.approx(1.0)

    def test_matches_brute_force_on_small_instances(self):
        # exhaustive over all slate choices on tiny instances
        for m, n, k in [(1, 2, 2), (2, 3, 2), (3, 3, 3), (4, 4, 3)]:
            rel = synth_relevance(m, n, seed=m * 10 + n)
            for eta in (0.0, 1.0):
                model = ExposureModel.pbm(eta, k)
                for perm in itertools.permutations(range(n), k):
                    items = [rel.item_ids[i] for i in perm]
                    slates = make_slateset(
                        {cid: list(items) for cid in rel.consumer_ids})
                    for kc in range(1, k + 1):
                        assert ndcg(slates, rel, model, kc) == pytest.approx(
                            brute_ndcg(slates, rel, model.probs, kc),
                            abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
    def test_consumer_ndcg_means_to_ndcg_bit_for_bit(self, eta):
        # the claim tests compare means of these vectors; a consumer with
        # an all-zero row contributes 1, in VerFair's shuffled order too
        rel = synth_relevance(300, 40, seed=11)
        rel = RelevanceMatrix(rel.consumer_ids, rel.item_ids,
                              np.where(np.arange(300)[:, None] % 50 == 7, 0.0,
                                       rel.scores))
        model = ExposureModel.pbm(eta, 10)
        for slates in (top_k(rel, 10),
                       allocate_individual(rel, model, 0.8, seed=1)):
            vals = consumer_ndcg(slates, rel, model)
            assert vals.mean() == ndcg(slates, rel, model, 10)
            assert (vals[slates.rows % 50 == 7] == 1).all()


class TestJsdFairness:
    def _ledger(self, rel, exposures):
        per_item = np.array(exposures, dtype=float)
        return ExposureLedger(per_item, per_item.copy())

    def test_proportional_is_one(self, three_equal):
        ledger = self._ledger(three_equal, [5.0, 5.0, 5.0])
        groups = identity_groups(three_equal)
        assert jsd_fairness(ledger, three_equal, groups,
                            "individual") == pytest.approx(1.0)

    def test_disjoint_supports_zero(self):
        from verfair import RelevanceMatrix
        rel = RelevanceMatrix(("c1",), ("A", "B"), np.array([[0.0, 1.0]]))
        ledger = self._ledger(rel, [1.0, 0.0])
        fair = jsd_fairness(ledger, rel, identity_groups(rel), "individual")
        assert fair == pytest.approx(0.0, abs=1e-12)

    def test_three_one_versus_uniform(self):
        from verfair import RelevanceMatrix
        rel = RelevanceMatrix(("c1",), ("A", "B"), np.array([[1.0, 1.0]]))
        ledger = self._ledger(rel, [3.0, 1.0])
        fair = jsd_fairness(ledger, rel, identity_groups(rel), "individual")
        assert fair == pytest.approx(0.9512050593046015, abs=1e-12)

    def test_matches_direct_formula_random_pairs(self):
        rng = np.random.default_rng(42)
        from verfair.metrics import _jsd_base2
        for _ in range(1000):
            p = rng.random(10)
            q = rng.random(10)
            p /= p.sum()
            q /= q.sum()
            assert _jsd_base2(p, q) == pytest.approx(
                direct_jsd(p.tolist(), q.tolist()), abs=1e-12)

    def test_scale_invariance(self, three_equal):
        groups = identity_groups(three_equal)
        a = self._ledger(three_equal, [3.0, 2.0, 1.0])
        b = self._ledger(three_equal, [30.0, 20.0, 10.0])
        assert jsd_fairness(a, three_equal, groups, "individual") == \
            pytest.approx(jsd_fairness(b, three_equal, groups, "individual"),
                          abs=1e-12)

    def test_all_zero_exposure_rejected(self, three_equal):
        ledger = self._ledger(three_equal, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            jsd_fairness(ledger, three_equal, identity_groups(three_equal),
                         "individual")

    @pytest.mark.parametrize("level", ["individual", "group"])
    def test_all_zero_relevance_rejected(self, level):
        from verfair import RelevanceMatrix
        rel = RelevanceMatrix(("c1",), ("A", "B"), np.array([[0.0, 0.0]]))
        ledger = self._ledger(rel, [1.0, 1.0])
        with pytest.raises(ValueError, match="^all-zero relevance vector$"):
            jsd_fairness(ledger, rel, identity_groups(rel), level)

    def test_item_without_a_group_is_named(self):
        # the map {A, B} over items A, B, C; top-1 shows A and B only
        rel = RelevanceMatrix(("c1", "c2"), ("A", "B", "C"),
                              np.array(TestCheckEvaluable.SHOWN_AB))
        groups = GroupMap({"A": "g", "B": "g"}, ("g",))
        ledger = accumulate(top_k(rel, 1), ExposureModel.pbm(1.0, 1), groups)
        with pytest.raises(DataError,
                           match="^unknown item 'C': it has no group$"):
            jsd_fairness(ledger, rel, groups, "individual")

    def test_unknown_level_rejected(self, three_equal):
        ledger = self._ledger(three_equal, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="^unknown level 'item'$"):
            jsd_fairness(ledger, three_equal, identity_groups(three_equal),
                         "item")


class TestEvaluate:
    def test_top_k_all_cutoffs_one(self):
        rel = synth_relevance(20, 15, seed=9)
        model = ExposureModel.pbm(1.0, 5)
        slates = top_k(rel, 5)
        report = evaluate(slates, rel, identity_groups(rel), model, (1, 3, 5))
        assert all(v == pytest.approx(1.0) for v in report.ndcg_at.values())

    def test_identity_groups_equalize_levels(self):
        rel = synth_relevance(10, 8, seed=11)
        model = ExposureModel.pbm(1.0, 4)
        slates = top_k(rel, 4)
        report = evaluate(slates, rel, identity_groups(rel), model, (1,))
        assert report.fairness_individual == report.fairness_group

    def test_group_level_uses_group_distributions(self):
        rel = synth_relevance(10, 8, seed=11)
        groups = GroupMap({d: f"g{i % 2}" for i, d in enumerate(rel.item_ids)},
                          ("g0", "g1"))
        model = ExposureModel.pbm(1.0, 4)
        slates = top_k(rel, 4)
        report = evaluate(slates, rel, groups, model, (1,))
        # coarser grouping can only look fairer or equal
        assert report.fairness_group >= report.fairness_individual

    def test_empty_slate_set_refused_without_a_warning(self):
        rel = synth_relevance(4, 5, seed=3)
        slates = top_k(rel, 2)
        empty = dataclasses.replace(
            slates, rows=slates.rows[:0], items=slates.items[:0],
            phase=slates.phase[:0], pre_rank=slates.pre_rank[:0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^no slates to evaluate$"):
                evaluate(empty, rel, identity_groups(rel),
                         ExposureModel.pbm(1.0, 2), (1, 2))

    @pytest.mark.parametrize("make", [
        lambda rel, model: top_k(rel, model.k),
        lambda rel, model: allocate_individual(rel, model, 0.0, seed=1),
        lambda rel, model: allocate_individual(rel, model, 0.6, seed=1)])
    def test_evaluate_after_top_k_or_allocate_does_not_sort(
            self, monkeypatch, make):
        # NDCG's ideal rows read the preferences the matrix kept when the
        # slates were made
        rel = synth_relevance(12, 6, seed=2)
        model = ExposureModel.pbm(1.0, 3)
        slates = make(rel, model)
        want = evaluate(slates, synth_relevance(12, 6, seed=2),
                        identity_groups(rel), model, (1, 2, 3))
        sorts = []

        def counting_preferences(*args):
            sorts.append(1)
            return real_preferences(*args)

        real_preferences = data._preferences
        monkeypatch.setattr(data, "_preferences", counting_preferences)
        assert evaluate(slates, rel, identity_groups(rel), model,
                        (1, 2, 3)) == want
        assert sorts == []
        # the count is live: a fresh matrix sorts for its ideal rows
        fresh = dataclasses.replace(rel)
        evaluate(slates, fresh, identity_groups(rel), model, (1, 2, 3))
        assert sorts == [1]


class TestIdsTheMatrixLacks:
    # top-2 over A, B, C shows A and B, never C; a cut keeps A and B, and
    # drops u2 where it keeps two consumers
    SCORES = [[0.9, 0.5, 0.1], [0.2, 0.8, 0.1], [0.6, 0.7, 0.3]]
    FULL = RelevanceMatrix(("c1", "c2", "u2"), ("A", "B", "C"),
                           np.array(SCORES))

    def cut(self, consumers, items):
        return RelevanceMatrix(self.FULL.consumer_ids[:consumers],
                               self.FULL.item_ids[:items],
                               self.FULL.scores[:consumers, :items])

    def test_an_item_no_slate_shows_is_evaluated(self):
        rel, model = self.cut(3, 2), ExposureModel.pbm(1.0, 2)
        want = evaluate(top_k(rel, 2), rel, identity_groups(rel), model,
                        (1, 2))
        slates = top_k(self.FULL, 2)
        assert evaluate(slates, rel, identity_groups(rel), model,
                        (1, 2)) == want
        assert ndcg(slates, rel, model, 2) == want.ndcg_at[2]

    @pytest.mark.parametrize("k, consumers, cutoff, message", [
        (2, 2, 2, "slate for unknown consumer 'u2'"),
        (3, 3, 3, "slate for 'c1' contains unknown item 'C'"),
        # C is shown at rank 3 only, below the cutoff
        (3, 3, 1, "slate for 'c1' contains unknown item 'C'"),
    ])
    def test_an_id_a_slate_shows_is_refused_by_name(self, k, consumers,
                                                    cutoff, message):
        rel, model = self.cut(consumers, 2), ExposureModel.pbm(1.0, k)
        slates = top_k(self.FULL, k)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ndcg(slates, rel, model, cutoff)
        # the groups of every item, so that exposure is not what refuses
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate(slates, rel, identity_groups(self.FULL), model,
                     (cutoff,))


class TestCheckEvaluable:
    # top-2 over A, B, C shows A and B, never C
    SHOWN_AB = [[0.9, 0.5, 0.1], [0.2, 0.8, 0.1]]

    @pytest.mark.parametrize("scores, grouped, cutoffs, message", [
        (SHOWN_AB, "ABC", (1, 0), "cutoff 0 out of range 1..2"),
        (SHOWN_AB, "ABC", (3,), "cutoff 3 out of range 1..2"),
        (SHOWN_AB, "BC", (1,), "unknown item 'A': it has no group"),
        (SHOWN_AB, "AB", (1,), "unknown item 'C': it has no group"),
        ([[0.0] * 3] * 2, "ABC", (1,), "all-zero relevance vector"),
        # the mean of 5e-324 over two rows rounds to 0
        ([[5e-324, 0.0, 0.0], [0.0] * 3], "ABC", (1,),
         "all-zero relevance vector"),
    ])
    def test_evaluate_raises_what_check_evaluable_raises(
            self, scores, grouped, cutoffs, message):
        rel = RelevanceMatrix(("c1", "c2"), ("A", "B", "C"), np.array(scores))
        groups = GroupMap({d: "g" for d in grouped}, ("g",))
        model = ExposureModel.pbm(1.0, 2)
        with pytest.raises(ValueError) as checked:
            check_evaluable(rel, groups, model, cutoffs)
        with pytest.raises(ValueError) as evaluated:
            evaluate(top_k(rel, 2), rel, groups, model, cutoffs)
        assert str(checked.value) == str(evaluated.value) == message

    def test_evaluate_shares_one_mean_relevance(self, monkeypatch):
        # check_evaluable and both fairness levels read one array, the
        # read-only one the matrix keeps: the mean is computed once
        rel = synth_relevance(12, 6, seed=2)
        groups = GroupMap({d: f"g{j % 2}" for j, d in enumerate(rel.item_ids)},
                          ("g0", "g1"))
        model = ExposureModel.pbm(1.0, 3)
        slates = top_k(rel, 3)
        want = evaluate(slates, synth_relevance(12, 6, seed=2), groups, model,
                        (1, 3))
        reads, mean = [], RelevanceMatrix.avg_relevance

        def recorded(self):
            reads.append(mean(self))
            return reads[-1]

        monkeypatch.setattr(RelevanceMatrix, "avg_relevance", recorded)
        assert evaluate(slates, rel, groups, model, (1, 3)) == want
        assert len(reads) == 3
        assert all(avg is reads[0] for avg in reads)
        assert not reads[0].flags.writeable
        assert reads[0].tolist() == rel.scores.mean(axis=0).tolist()

