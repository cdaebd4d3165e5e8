"""Self-tests of the benchmark: its checker, its input generator, its span
arithmetic, and its agreement with BENCHMARK.json.

    python3 -m pytest benchmark/tests -q
"""

import contextlib
import io
import json

import numpy as np
import pytest

import check
import run
import spans
import workloads
from verfair import cli, harness

SMALL_UNIFORM = workloads.Workload("small-uniform", 12, 15, "uniform")
SMALL_GROUPED = workloads.Workload("small-grouped", 12, 100, "beta-grouped")


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture
def top_k_run(tmp_path):
    """A real `verfair run --method top-k` on a small generated input."""
    inputs = workloads.generate(SMALL_UNIFORM, 3, tmp_path)
    inv = workloads.invocations(workloads.WORKLOADS["slates-tall"], inputs,
                                3, tmp_path)[0]
    _cli(list(inv.argv))
    return inputs, inv


def test_checker_accepts_program_output(top_k_run):
    inputs, inv = top_k_run
    rows = check.read_metrics(inv.metrics_path)
    assert run.verify_run(inputs, inv, rows) > 0


def test_checker_rejects_duplicated_item(top_k_run):
    inputs, inv = top_k_run
    lines = inv.slate_path.read_text().splitlines()
    # lines[2] and lines[3] are ranks 1 and 2 of the first consumer.
    cid, _, item, tag = lines[2].split(",")
    lines[3] = ",".join([cid, "2", item, tag])
    inv.slate_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckError, match="repeated item"):
        check.read_slates(inv.slate_path, inputs.consumer_ids,
                          inputs.item_ids, workloads.K)


def test_checker_rejects_perturbed_ndcg(top_k_run):
    inputs, inv = top_k_run
    rows = check.read_metrics(inv.metrics_path)
    rows[0]["ndcg@10"] = repr(float(rows[0]["ndcg@10"]) - 1e-6)
    with pytest.raises(check.CheckError, match="ndcg@10"):
        run.verify_run(inputs, inv, rows)


def test_checker_rejects_wrong_top_k_order(top_k_run):
    inputs, inv = top_k_run
    lines = inv.slate_path.read_text().splitlines()
    first, second = lines[2].split(","), lines[3].split(",")
    first[2], second[2] = second[2], first[2]
    lines[2], lines[3] = ",".join(first), ",".join(second)
    inv.slate_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckError, match="lexsort"):
        run.verify_run(inputs, inv, check.read_metrics(inv.metrics_path))


def test_fingerprint_ignores_only_wall_time(top_k_run):
    _, inv = top_k_run
    ref = check.fingerprint(inv.slate_path, inv.metrics_path)
    text = inv.metrics_path.read_text().splitlines()
    cells = text[1].split(",")
    cells[-1] = "12345.0"
    inv.metrics_path.write_text("\n".join([text[0], ",".join(cells)]) + "\n")
    assert check.fingerprint(inv.slate_path, inv.metrics_path) == ref
    cells[-2] = "0.5"  # fairness_group
    inv.metrics_path.write_text("\n".join([text[0], ",".join(cells)]) + "\n")
    assert check.fingerprint(inv.slate_path, inv.metrics_path) != ref


@pytest.mark.parametrize("w", [SMALL_UNIFORM, SMALL_GROUPED])
def test_generator_is_seeded(tmp_path, w):
    def files(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        inputs = workloads.generate(w, seed, directory)
        return [p.read_bytes() for p in (inputs.relevance_path,
                                         inputs.groups_path) if p]

    first = files(7, "a")
    assert first == files(7, "b")
    assert first[0] != files(8, "c")[0]


def test_generated_csv_round_trips(tmp_path):
    inputs = workloads.generate(SMALL_GROUPED, 5, tmp_path)
    rel = cli.load_relevance(inputs.relevance_path)
    assert np.array_equal(rel.scores, inputs.scores)
    groups = cli.load_groups(inputs.groups_path, rel)
    assert list(groups.indices(rel)) == [
        groups.group_ids.index(inputs.group_ids[g]) for g in inputs.group_of]


def test_span_self_times_sum_to_root(top_k_run):
    _, inv = top_k_run
    tracer = spans.Tracer()
    original = harness.evaluate
    with tracer.installed():
        _cli(list(inv.argv))
    assert harness.evaluate is original
    names = {name for name, *_ in tracer.spans}
    assert {"cli.main", "data.load_relevance", "harness.run",
            "baselines.top_k", "metrics.evaluate", "exposure.accumulate",
            "metrics.ndcg", "harness.write_slates"} <= names
    root = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in root] == ["cli.main"]
    summary = spans.summarize(tracer.spans)
    total_self = sum(own for _, _, own in summary.values())
    # Tolerance: float rounding of a few dozen subtractions of ~1 s values.
    assert total_self == pytest.approx(root[0][2] - root[0][1], abs=1e-9)
    assert summary["metrics.ndcg"][0] == len(workloads.CUTOFFS)


def test_summarize_nested():
    fake = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
            ["b", 5.0, 6.0, 0]]
    assert spans.summarize(fake) == {"a": (1, 10.0, 6.0), "b": (2, 4.0, 3.0),
                                     "c": (1, 1.0, 1.0)}


def test_shortfall_matches_quota_formula():
    scores = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    probs = check.pbm_probs(1.0, 1)
    slates = np.array([[0], [0]])
    # Quota per item at alpha=1: [1, 0, 1]; exposure [2, 0, 0].
    assert check.max_shortfall_pk(scores, slates, probs, np.arange(3),
                                  1.0) == 1.0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
