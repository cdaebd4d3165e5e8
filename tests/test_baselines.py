import math

import numpy as np
import pytest

from helpers import bound_unsatisfiable, oracle_exact
from verfair.harness import make_slates
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, accumulate,
                     allocate_individual, compute_quotas, fairco,
                     identity_groups, jsd_fairness, ndcg, pr_k, random_k,
                     synth_relevance, top_k)


class TestTopK:
    def test_three_by_three(self, three_equal):
        s = top_k(three_equal, 2)
        assert s.slates == {"c1": ["A", "B"], "c2": ["C", "B"],
                            "c3": ["B", "A"]}

    def test_always_ideal_ndcg(self):
        rel = synth_relevance(15, 10, seed=6)
        model = ExposureModel.pbm(1.0, 4)
        s = top_k(rel, 4)
        for kc in (1, 2, 3, 4):
            assert ndcg(s, rel, model, kc) == pytest.approx(1.0)

    def test_tie_break_lexicographic(self):
        rel = RelevanceMatrix(("c1",), ("Z", "A", "M"),
                              np.array([[0.5, 0.5, 0.5]]))
        s = top_k(rel, 3)
        assert s.slates["c1"] == ["A", "M", "Z"]

    def test_n_less_than_k(self):
        rel = synth_relevance(2, 2, seed=0)
        with pytest.raises(ValueError):
            top_k(rel, 3)


@pytest.mark.parametrize("method", ["random-k", "pr-k", "fairco"])
def test_n_less_than_k_rejected(method):
    rel = synth_relevance(2, 2, seed=0)
    model = ExposureModel.pbm(1.0, 3)
    slates = {"random-k": lambda: random_k(rel, 3, seed=0),
              "pr-k": lambda: pr_k(rel, model),
              "fairco": lambda: fairco(rel, identity_groups(rel), model, 1.0)}
    with pytest.raises(ValueError, match=r"^need n >= k \(n=2, k=3\)$"):
        slates[method]()


class TestRandomK:
    def test_deterministic(self):
        rel = synth_relevance(10, 8, seed=2)
        a = random_k(rel, 3, seed=99)
        b = random_k(rel, 3, seed=99)
        assert a.slates == b.slates

    def test_n_equals_k_full_permutation(self):
        rel = synth_relevance(5, 4, seed=2)
        s = random_k(rel, 4, seed=0)
        for slate in s.slates.values():
            assert sorted(slate) == sorted(rel.item_ids)

    def test_less_fair_than_pr_k(self):
        rel = synth_relevance(500, 40, seed=8)
        model = ExposureModel.pbm(1.0, 10)
        groups = identity_groups(rel)
        rand = random_k(rel, 10, seed=0)
        fair = pr_k(rel, model)
        f_rand = jsd_fairness(accumulate(rand, model, groups), rel, groups)
        f_fair = jsd_fairness(accumulate(fair, model, groups), rel, groups)
        assert f_rand < f_fair


class TestPrK:
    def test_first_consumer_lexicographic(self):
        # column means tie exactly (binary-representable), so the first
        # slate is decided purely by the item-id tiebreak
        rel = RelevanceMatrix(("c1", "c2", "c3"), ("A", "B", "C"),
                              np.array([[0.75, 0.5, 0.25],
                                        [0.25, 0.5, 0.75],
                                        [0.5, 0.5, 0.5]]))
        model = ExposureModel.pbm(0.0, 2)
        s = pr_k(rel, model)
        assert s.slates["c1"] == ["A", "B"]

    def test_near_perfect_fairness_at_scale(self):
        rel = synth_relevance(1000, 50, seed=17)
        model = ExposureModel.pbm(1.0, 10)
        groups = identity_groups(rel)
        s = pr_k(rel, model)
        fair = jsd_fairness(accumulate(s, model, groups), rel, groups)
        assert fair >= 0.99

    def test_single_consumer_uniform_relevance(self):
        rel = RelevanceMatrix(("c1",), ("B", "A", "C"),
                              np.array([[0.4, 0.4, 0.4]]))
        s = pr_k(rel, ExposureModel.pbm(0.0, 2))
        assert s.slates["c1"] == ["A", "B"]

    def test_greedy_deficit_local_optimality(self):
        # swapping any single final-slot item cannot reduce that item's
        # own deficit below what the greedy pick achieved
        for seed in range(5):
            rel = synth_relevance(4, 4, seed=seed)
            model = ExposureModel.pbm(1.0, 2)
            groups = identity_groups(rel)
            s = pr_k(rel, model)
            quota = dict(zip(rel.item_ids,
                             compute_quotas(rel, groups, model, 1.0).tolist()))
            ledger = accumulate(s, model, groups)
            final = dict(zip(rel.item_ids, ledger.per_item.tolist()))
            last_cid = rel.consumer_ids[-1]
            last_slate = s.slates[last_cid]
            placed = last_slate[-1]
            p_last = model.probs[-1]
            for other in rel.item_ids:
                if other in last_slate:
                    continue
                # undo the greedy pick, apply the swap
                alt = dict(final)
                alt[placed] -= p_last
                alt[other] += p_last
                greedy_worst = max(quota[d] - final[d]
                                   for d in rel.item_ids)
                swap_worst = max(quota[d] - alt[d]
                                 for d in rel.item_ids)
                assert greedy_worst <= swap_worst + 1e-9


class TestFairco:
    def test_lambda_zero_is_top_k(self):
        rel = synth_relevance(20, 10, seed=3)
        model = ExposureModel.pbm(1.0, 5)
        a = fairco(rel, identity_groups(rel), model, 0.0)
        b = top_k(rel, 5)
        assert a.slates == b.slates

    def test_first_slate_cold_start(self):
        rel = synth_relevance(10, 8, seed=4)
        model = ExposureModel.pbm(1.0, 3)
        boosted = fairco(rel, identity_groups(rel), model, 500.0)
        plain = top_k(rel, 3)
        first = rel.consumer_ids[0]
        assert boosted.slates[first] == plain.slates[first]

    def test_large_lambda_approaches_pr_k_fairness(self):
        rel = synth_relevance(400, 30, seed=5)
        model = ExposureModel.pbm(1.0, 8)
        groups = identity_groups(rel)
        strong = fairco(rel, groups, model, 1000.0)
        reference = pr_k(rel, model)
        f_strong = jsd_fairness(accumulate(strong, model, groups), rel, groups)
        f_ref = jsd_fairness(accumulate(reference, model, groups), rel, groups)
        assert f_strong >= f_ref - 0.02

    def test_negative_lambda_rejected(self):
        rel = synth_relevance(3, 3, seed=0)
        with pytest.raises(ValueError):
            fairco(rel, identity_groups(rel), ExposureModel.pbm(0.0, 2), -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        rel = synth_relevance(3, 3, seed=0)
        with pytest.raises(ValueError, match="lambda"):
            fairco(rel, identity_groups(rel), ExposureModel.pbm(0.0, 2), lam)

    def test_runs_at_the_level_of_its_map(self):
        rel = synth_relevance(300, 40, seed=5)
        model = ExposureModel.pbm(1.0, 8)
        four = GroupMap({d: f"g{j % 4}" for j, d in enumerate(rel.item_ids)},
                        ("g0", "g1", "g2", "g3"))
        grouped = fairco(rel, four, model, 2.0)
        individual = fairco(rel, identity_groups(rel), model, 2.0)
        assert np.array_equal(
            grouped.items, make_slates("fairco", rel, four, model, lam=2.0).items)
        assert not np.array_equal(grouped.items, individual.items)
        # singleton groups under other, shuffled ids are individual level
        names = np.random.default_rng(5).permutation(rel.n)
        renamed = {d: f"s{names[j]}" for j, d in enumerate(rel.item_ids)}
        singletons = GroupMap(renamed, tuple(sorted(renamed.values())))
        assert np.array_equal(fairco(rel, singletons, model, 2.0).items,
                              individual.items)

    def test_zero_relevance_group_is_never_boosted(self):
        # group "z" has all-zero columns and ids that sort first, so any
        # boost it got would win the tie-break; the other nine items are
        # positive everywhere and can always fill k=4
        rel = synth_relevance(200, 12, seed=21)
        scores = rel.scores.copy()
        scores[:, :3] = 0.0
        item_ids = ("a0", "a1", "a2") + rel.item_ids[3:]
        rel = RelevanceMatrix(rel.consumer_ids, item_ids, scores)
        groups = GroupMap({d: "z" if j < 3 else f"g{j % 2}"
                           for j, d in enumerate(item_ids)}, ("g0", "g1", "z"))
        model = ExposureModel.pbm(1.0, 4)
        assert (scores[:, 3:] > 0).all()
        s = fairco(rel, groups, model, 1e6)
        assert not np.isin(s.items, [0, 1, 2]).any()
        assert not np.array_equal(s.items, top_k(rel, 4).items)


class TestOracle:
    def test_alpha_zero_top_k_feasible(self, three_equal):
        model = ExposureModel.pbm(0.0, 2)
        best, feasible = oracle_exact(three_equal,
                                      identity_groups(three_equal), model, 0.0)
        assert feasible and best == pytest.approx(1.0)

    def test_equal_relevance_full_alpha_feasible(self, three_equal):
        model = ExposureModel.pbm(0.0, 2)
        best, feasible = oracle_exact(three_equal,
                                      identity_groups(three_equal), model, 1.0)
        assert feasible

    def test_one_by_one(self):
        rel = synth_relevance(1, 1, seed=0)
        best, feasible = oracle_exact(rel, identity_groups(rel),
                                      ExposureModel.pbm(0.0, 1), 1.0)
        assert feasible and best == pytest.approx(1.0)

    def test_too_large_rejected(self):
        rel = synth_relevance(5, 6, seed=0)
        with pytest.raises(ValueError):
            oracle_exact(rel, identity_groups(rel),
                         ExposureModel.pbm(0.0, 2), 1.0)

    def test_vertical_allocation_always_feasible(self):
        # cross-check the minimum-exposure guarantee against the oracle's
        # criterion on oracle-sized instances
        for seed in range(8):
            rel = synth_relevance(3, 5, seed=seed)
            model = ExposureModel.pbm(1.0, 2)
            groups = identity_groups(rel)
            for alpha in (0.5, 1.0):
                s = allocate_individual(rel, model, alpha, seed=seed)
                ledger = accumulate(s, model, groups)
                quota = compute_quotas(rel, groups, model, alpha)
                slack = model.probs[-1] + 1e-9
                assert all(ledger.per_group[i] >= quota[i] - slack
                           for i in range(len(groups.group_ids)))
                _, feasible = oracle_exact(rel, groups, model, alpha)
                assert feasible


class TestCountingCertificate:
    """`bound_unsatisfiable` must only fire where no slate set exists."""

    def test_certified_instance_is_oracle_infeasible(self):
        # six items, four slots: at least two items are never shown, yet
        # every item is owed more than p_k
        rel = synth_relevance(2, 6, seed=1)
        model = ExposureModel.pbm(2.0, 2)
        groups = identity_groups(rel)
        assert bound_unsatisfiable(rel, groups, model, 1.0)
        _, feasible = oracle_exact(rel, groups, model, 1.0)
        assert not feasible

    def test_never_fires_on_oracle_feasible_instances(self):
        rng = np.random.default_rng(11)
        fired = 0
        for _ in range(2000):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k + 1, 7))
            eta = float(rng.choice([0.0, 1.0, 2.0]))
            alpha = float(rng.choice([0.3, 0.7, 1.0]))
            rel = synth_relevance(m, n, seed=int(rng.integers(1 << 30)))
            if rng.random() < 0.5:
                groups = identity_groups(rel)
            else:
                # every item in one of g groups, each group non-empty
                g = int(rng.integers(1, n + 1))
                label = rng.permutation(np.arange(n) % g)
                groups = GroupMap(
                    {d: f"g{label[i]}" for i, d in enumerate(rel.item_ids)},
                    tuple(f"g{i}" for i in range(g)))
            # keep the exhaustive oracle to about a second per instance
            if math.perm(n, k) ** m > 2_000_000:
                continue
            model = ExposureModel.pbm(eta, k)
            if bound_unsatisfiable(rel, groups, model, alpha):
                fired += 1
                _, feasible = oracle_exact(rel, groups, model, alpha)
                assert not feasible, (m, n, k, eta, alpha)
        assert fired > 0
