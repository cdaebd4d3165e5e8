"""Evaluation and slate output must match the frozen dict-based code.

`reference_evaluation.py` holds `accumulate`, `ndcg`, `write_slates`,
`dump_distributions` and the metrics row as they were before slate sets
became index arrays. Ledgers must be equal item by item and group by
group, NDCG equal at every cutoff, and every CSV byte-identical.
"""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_allocator
import reference_evaluation as ref
import verfair.harness as harness
from helpers import make_slateset, random_groups
from verfair import (ExposureModel, GroupMap, RelevanceMatrix, accumulate,
                     evaluate, identity_groups, load_groups,
                     load_relevance, ndcg, save_groups, save_relevance,
                     synth_relevance, top_k)
from verfair.cli import main
from verfair.data import _id_ranks
from verfair.harness import METHODS, PARAM_OF, RunConfig, make_slates
from verfair.metrics import EvalReport


def assert_same_evaluation(slates, rel, groups, model, k):
    got = accumulate(slates, model, groups)
    want = ref.accumulate(slates, model, groups)
    assert got.per_item.tolist() == list(want.per_item.values())
    assert got.per_group.tolist() == list(want.per_group.values())
    cutoffs = range(1, k + 1)
    shared = evaluate(slates, rel, groups, model, cutoffs).ndcg_at
    for kc in cutoffs:
        want = ref.ndcg(slates, rel, model, kc)
        assert ndcg(slates, rel, model, kc) == want, kc
        assert shared[kc] == want, kc


def instance(m, n, seed, tied, zero_row):
    rel = synth_relevance(m, n, seed=seed)
    scores = rel.scores.copy()
    if tied:  # three score levels, so the item-id tie-breaks decide
        scores = np.ceil(scores * 3) / 3
    if zero_row and m > 1:  # IDCG = 0, so this consumer contributes 1
        scores[seed % m] = 0.0
    return RelevanceMatrix(rel.consumer_ids, rel.item_ids, scores)


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(METHODS), m=st.integers(1, 10),
       k=st.integers(1, 5), extra=st.integers(0, 6),
       eta=st.sampled_from([0.0, 1.0, 2.0]),
       param=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       grouped=st.booleans(), tied=st.booleans(), zero_row=st.booleans(),
       shuffle=st.booleans(), seed=st.integers(0, 10_000))
def test_every_method(method, m, k, extra, eta, param, grouped, tied,
                      zero_row, shuffle, seed):
    rel = instance(m, k + extra, seed, tied, zero_row)
    rng = np.random.default_rng(seed)
    groups = random_groups(rel, rng) if grouped else identity_groups(rel)
    model = ExposureModel.pbm(eta, k)
    slates = make_slates(method, rel, groups, model, alpha=param,
                         lam=10 * param, seed=seed, shuffle=shuffle)
    assert_same_evaluation(slates, rel, groups, model, k)

    # a partial slate set: some consumers, in another order, item indices
    # in order of first appearance rather than dataset order
    full = slates.slates
    keep = rng.permutation(m)[:int(rng.integers(1, m + 1))]
    cids = list(full)
    part = make_slateset({cids[c]: full[cids[c]] for c in keep})
    assert_same_evaluation(part, rel, groups, model, k)


def test_every_baseline_on_a_wide_instance():
    rel = instance(30, 60, 3, tied=True, zero_row=True)
    groups = random_groups(rel, np.random.default_rng(3))
    model = ExposureModel.pbm(1.0, 10)
    for method in METHODS:
        slates = make_slates(method, rel, groups, model, alpha=0.7, lam=2.0,
                             seed=5)
        assert_same_evaluation(slates, rel, groups, model, 10)


@pytest.mark.parametrize("n, k, tied", [(300, 10, True), (300, 10, False),
                                        (1000, 250, False)])
def test_every_baseline_on_an_instance_of_256_items_or_more(n, k, tied):
    # n >= 256 and n >= 4k: top-k's preferences, the ideal rows and the
    # baselines' selection all partition before they sort. Three score
    # levels tie every row at the top. In every other row the (k+1)-th
    # score is raised to the k-th, a tie that only the partition's k + 1
    # candidates show, and item ids sort in another order than the
    # columns. Untied rows test the order of the partitioned ideal scores,
    # which a partition to depth 10 may leave sorted by chance; one to
    # depth 250 leaves most rows unsorted.
    rel = instance(40, n, 3, tied=tied, zero_row=True)
    scores = rel.scores.copy()
    order = np.argsort(-scores, axis=1)
    rows = np.arange(0, rel.m, 2)[:, None]
    scores[rows, order[rows, k]] = scores[rows, order[rows, k - 1]]
    rng = np.random.default_rng(3)
    rel = RelevanceMatrix(rel.consumer_ids,
                          tuple(rel.item_ids[j] for j in rng.permutation(n)),
                          scores)
    groups = random_groups(rel, rng)
    model = ExposureModel.pbm(1.0, k)
    for method in METHODS:
        slates = make_slates(method, rel, groups, model, alpha=0.7, lam=2.0,
                             seed=5)
        assert_same_evaluation(slates, rel, groups, model, k)
    id_rank = np.broadcast_to(_id_ranks(rel.item_ids), rel.scores.shape)
    want = np.lexsort((id_rank, -rel.scores), axis=1)[:, :k]
    assert top_k(rel, k).items.tolist() == want.tolist()


def test_evaluate_holds_no_matrix_sized_temporary():
    rel = synth_relevance(2000, 1000, seed=4)
    groups = random_groups(rel, np.random.default_rng(4))
    model = ExposureModel.pbm(1.0, 10)
    slates = top_k(rel, 10)
    tracemalloc.start()
    try:
        report = evaluate(slates, rel, groups, model, (1, 3, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ndcg_at == pytest.approx({1: 1.0, 3: 1.0, 10: 1.0})
    assert peak < rel.scores.nbytes / 8


def test_group_map_out_of_item_order(tmp_path):
    # the map lists its items and group ids in reverse order of the
    # matrix's, so the ledger's item order is not rel.item_ids': both
    # fairness values and the dump must map it back
    rel = instance(20, 12, 4, tied=False, zero_row=False)
    groups = GroupMap({d: f"g{rel.item_ids.index(d) % 3}"
                       for d in reversed(rel.item_ids)}, ("g2", "g1", "g0"))
    assert tuple(groups.assignment) == rel.item_ids[::-1]
    model = ExposureModel.pbm(1.0, 5)
    for method in METHODS:
        slates = make_slates(method, rel, groups, model, alpha=0.7, lam=1.0,
                             seed=3)
        report = evaluate(slates, rel, groups, model, (5,))
        ledger = ref.accumulate(slates, model, groups)
        assert report.fairness_individual == \
            ref.jsd_fairness(ledger, rel, groups, "individual"), method
        assert report.fairness_group == \
            ref.jsd_fairness(ledger, rel, groups, "group"), method
        harness.dump_distributions(slates, rel, groups, model, 0.7,
                                   tmp_path / "got.csv")
        ref.dump_distributions(slates, rel, groups, model, 0.7,
                               tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes(), method


# ids that csv.writer must quote, or that look as if it might
ODD_IDS = ("a,b", 'q"x', "nl\nx", " lead", "cr\rx", "trail ", "", "plain",
           "é", "t\tab", '"', ",")


def odd_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    items = tuple(ODD_IDS[j] if j < len(ODD_IDS) else f"d{j}"
                  for j in range(n))
    consumers = tuple(ODD_IDS[c] + "u" if c < len(ODD_IDS) else f"u{c}"
                      for c in range(m))
    return RelevanceMatrix(consumers, items, np.ceil(rng.random((m, n)) * 4))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("chunk", [1, 3, harness._CHUNK])
def test_writer_bytes(method, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    rel = odd_instance(14, 15, 8)
    groups = random_groups(rel, np.random.default_rng(8))
    model = ExposureModel.pbm(1.0, 5)
    config = RunConfig(method=method, k=5, alpha=0.8, lam=1.0, seed=2)
    slates = make_slates(method, rel, groups, model, alpha=config.alpha,
                         lam=config.lam, seed=config.seed)
    if method.startswith("verfair"):
        tags = {t for row in slates.provenance.values() for t in row.values()}
        assert tags == {"allocation", "appending"}
    harness.write_slates(slates, config, tmp_path / "got.csv")
    ref.write_slates(slates, config, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def fields_outcome(fields, ids):
    """The fields as a list, or the csv error they raise."""
    try:
        return list(fields(ids))
    except csv.Error as exc:  # NUL before Python 3.11
        return ("error", str(exc))


# text ids: every character csv.writer quotes, space, NUL, non-ASCII
TEXT_IDS = st.text(st.sampled_from([",", '"', "\n", "\r", "a", "Z", "0", " ",
                                     "\x00", "\t", "é", "€", "\U0001f600"]),
                   max_size=4)


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.one_of(TEXT_IDS, st.text(max_size=3),
                              st.integers(), st.floats(), st.none()),
                    max_size=8))
def test_fields_equal_csv_fields(ids):
    assert fields_outcome(harness._fields, ids) == \
        fields_outcome(harness._csv_fields, ids)


@pytest.mark.parametrize("odd", ["last-chunk-consumers", "items-only"])
def test_writer_bytes_quoting_some_chunks(odd, tmp_path, monkeypatch):
    # with 3 consumers a chunk, the first chunks' ids go out as they are
    # and the last chunk's through csv.writer; or only the items need it
    monkeypatch.setattr(harness, "_CHUNK", 3)
    rel = odd_instance(8, 15, 4)
    consumers = tuple(f"u{c}" for c in range(8))
    items = rel.item_ids
    if odd == "last-chunk-consumers":
        consumers = (*consumers[:6], "a,bu", 'q"xu')
        items = tuple(f"d{j}" for j in range(15))
    rel = RelevanceMatrix(consumers, items, rel.scores)
    config = RunConfig(method="top-k", k=5)
    slates = make_slates("top-k", rel, identity_groups(rel),
                         ExposureModel.pbm(1.0, 5))
    harness.write_slates(slates, config, tmp_path / "got.csv")
    ref.write_slates(slates, config, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_benchmark_ids_skip_csv_writer(tmp_path, monkeypatch):
    calls = []

    def counting_csv_fields(values):
        calls.append(1)
        return real(values)

    real = harness._csv_fields
    monkeypatch.setattr(harness, "_csv_fields", counting_csv_fields)
    monkeypatch.setattr(harness, "_CHUNK", 7)
    rel = synth_relevance(30, 12, seed=2)
    rel = RelevanceMatrix(tuple(f"u{c:05d}" for c in range(1, 31)),
                          tuple(f"d{j:02d}" for j in range(1, 13)),
                          rel.scores)
    config = RunConfig(method="verfair-ind", k=4)
    slates = make_slates("verfair-ind", rel, identity_groups(rel),
                         ExposureModel.pbm(1.0, 4))
    harness.write_slates(slates, config, tmp_path / "got.csv")
    ref.write_slates(slates, config, tmp_path / "want.csv")
    assert calls == []
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_writer_empty_slate_set(tmp_path):
    empty = make_slateset({})
    config = RunConfig(method="top-k", k=4)
    harness.write_slates(empty, config, tmp_path / "got.csv")
    ref.write_slates(empty, config, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


# (command, method, options): 22 fixed invocations with k >= 10, so the
# default cutoffs 1,3,10 give the same columns as before
INVOCATIONS = (
    ("run", "top-k", {}),
    ("run", "top-k", {"eta": 2.0, "groups": True}),
    ("run", "random-k", {"seed": 3}),
    ("run", "pr-k", {"groups": True}),
    ("run", "fairco", {"lam": 0.5}),
    ("run", "fairco", {"lam": 2.0, "groups": True}),
    ("run", "verfair-ind", {}),
    ("run", "verfair-ind", {"alpha": 0.7, "shuffle": False}),
    ("run", "verfair-ind", {"alpha": 0.0, "eta": 0.0}),
    ("run", "verfair-group", {"eta": 2.0, "groups": True}),
    ("run", "verfair-group", {"alpha": 0.3, "groups": True,
                              "shuffle": False}),
    ("run", "verfair-ind", {"alpha": 0.5, "k": 12, "seed": 9}),
    ("sweep", "verfair-ind", {"grid": (0.0, 0.5, 1.0)}),
    ("sweep", "verfair-group", {"grid": (1.0, 0.7, 0.0), "eta": 2.0,
                                "groups": True}),
    ("sweep", "fairco", {"grid": (0.0, 1.0, 10.0)}),
    ("sweep", "top-k", {"grid": (0.0,)}),
    ("sweep", "random-k", {"grid": (0.0,), "seed": 5}),
    ("dump", "verfair-ind", {"alpha": 0.7}),
    ("dump", "verfair-group", {"groups": True}),
    ("dump", "top-k", {}),
    ("dump", "pr-k", {}),
    ("dump", "fairco", {"lam": 1.0, "groups": True}),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    rel = synth_relevance(40, 25, seed=7)
    save_relevance(rel, base / "rel.csv")
    save_groups(GroupMap({d: f"g{j % 5}" for j, d in enumerate(rel.item_ids)},
                         tuple(f"g{j}" for j in range(5))),
                base / "groups.csv")
    return base / "rel.csv", base / "groups.csv"


def old_slates(method, rel, groups, model, alpha, lam, seed, shuffle):
    """The slate set the code before array slate sets returned."""
    if method == "verfair-ind":
        return reference_allocator.allocate(rel, identity_groups(rel), model,
                                            alpha, seed, shuffle)
    if method == "verfair-group":
        return reference_allocator.allocate(rel, groups, model, alpha, seed,
                                            shuffle)
    new = make_slates(method, rel, groups, model, alpha=alpha, lam=lam,
                      seed=seed)
    return ref._as_slateset(rel, new.items)


def old_row(method, param, rel, groups, model, slates):
    """Metrics row of the dict-based evaluation, without the wall column."""
    ledger = ref.accumulate(slates, model, groups)
    report = EvalReport(
        ndcg_at={kc: ref.ndcg(slates, rel, model, kc) for kc in (1, 3, 10)},
        fairness_individual=ref.jsd_fairness(ledger, rel, groups,
                                             "individual"),
        fairness_group=ref.jsd_fairness(ledger, rel, groups, "group"))
    return ref._metrics_row(method, param, model.eta, model.k, report, 0.0)


def no_wall(text):
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


@pytest.mark.parametrize("command,method,opts", INVOCATIONS)
def test_fixed_invocations_unchanged(command, method, opts, inputs, tmp_path):
    rel_path, groups_path = inputs
    eta, k = opts.get("eta", 1.0), opts.get("k", 10)
    alpha, lam = opts.get("alpha", 1.0), opts.get("lam", 0.0)
    seed, shuffle = opts.get("seed", 0), opts.get("shuffle", True)
    argv = [command, "--relevance", str(rel_path), "--method", method,
            "--eta", repr(eta), "--k", str(k), "--seed", str(seed)]
    if opts.get("groups"):
        argv += ["--groups", str(groups_path)]
    if command == "sweep":
        argv += ["--grid", ",".join(map(repr, opts["grid"]))]
    else:
        argv += ["--alpha", repr(alpha), "--lambda", repr(lam)]
    if not shuffle:
        argv += ["--no-shuffle"]
    out, metrics = tmp_path / "out.csv", tmp_path / "metrics.csv"
    argv += ["--out", str(out)]
    if command == "run":
        argv += ["--metrics-out", str(metrics)]
    assert main(argv) == 0

    rel = load_relevance(rel_path)
    groups = (load_groups(groups_path, rel) if opts.get("groups")
              else identity_groups(rel))
    model = ExposureModel.pbm(eta, k)
    want = tmp_path / "want.csv"
    if command == "run":
        slates = old_slates(method, rel, groups, model, alpha, lam, seed,
                            shuffle)
        config = RunConfig(method=method, eta=eta, k=k, alpha=alpha, lam=lam,
                           seed=seed, shuffle=shuffle)
        ref.write_slates(slates, config, want)
        assert out.read_bytes() == want.read_bytes()
        kind = PARAM_OF.get(method)
        param = {"alpha": alpha, "lambda": lam}.get(kind, float("nan"))
        rows = [old_row(method, param, rel, groups, model, slates)]
        assert no_wall(metrics.read_text()) == \
            no_wall("\n".join([ref.METRICS_HEADER, *rows]))
    elif command == "sweep":
        rows = []
        for value in sorted(opts["grid"]):
            a, g = ((1.0, value) if PARAM_OF.get(method) == "lambda"
                    else (value, 0.0))
            slates = old_slates(method, rel, groups, model, a, g, seed, True)
            rows.append(old_row(method, value, rel, groups, model, slates))
        assert no_wall(out.read_text()) == \
            no_wall("\n".join([ref.METRICS_HEADER, *rows]))
    else:
        slates = old_slates(method, rel, groups, model, alpha, lam, seed,
                            True)
        ref.dump_distributions(slates, rel, groups, model, alpha, want)
        assert out.read_bytes() == want.read_bytes()
