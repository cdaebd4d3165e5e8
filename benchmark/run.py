"""verfair benchmark: drives ``verfair.cli.main`` in-process on one seeded
workload, checks every output, and prints one JSON result as its last line.

  python3 benchmark/run.py --workload alloc-ind --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics. See benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
# Timings are reported in reference seconds: measured seconds scaled by
# CAL_REF_S / calibration_s() from the same pass (see README.md).
CAL_REF_S = 0.035
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ndcg10": "1",
    "fairness_ind": "1", "fairness_group": "1", "max_shortfall_pk": "p_k",
}
# Per span: calls, total and self seconds per CLI invocation, and the
# span's share of the traced invocation wall time.
SPAN_FIELDS = {"calls": "count", "s": "s", "self_s": "s", "share": "%"}
RATES = {  # rate metric -> (span, unit)
    "data.load_relevance.MB_per_s": ("data.load_relevance", "MB/s"),
    "harness.write_slates.MB_per_s": ("harness.write_slates", "MB/s"),
    "allocator.allocate.slates_per_s": ("allocator.allocate", "1/s"),
    "baselines.top_k.slates_per_s": ("baselines.top_k", "1/s"),
    "baselines.fairco.slates_per_s": ("baselines.fairco", "1/s"),
    "baselines.pr_k.slates_per_s": ("baselines.pr_k", "1/s"),
}
PER_LAYER = {f"{name}.{field}": unit for name in spans.SPAN_NAMES
             for field, unit in SPAN_FIELDS.items()}
PER_LAYER.update({name: unit for name, (_, unit) in RATES.items()})
PER_LAYER["trace.overhead_s"] = "s"
MB = 2 ** 20


def load_cli():
    """Import verfair from this checkout's src/, and from nowhere else."""
    package = SRC / "verfair"
    if not (package / "cli.py").is_file():
        print(f"error: {package} not found; run from a verfair checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from verfair import cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"error: imported verfair from {cli.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)
    return cli


class Ops:
    """Attempted and failed CLI invocations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, error=None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(str(error))


class LoaderTimer:
    """Bare timer around the two loader calls the CLI makes; no spans."""

    def __init__(self, cli):
        self.cli = cli
        self.elapsed = 0.0

    def _timed(self, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.elapsed += time.perf_counter() - t0
        return call

    @contextlib.contextmanager
    def installed(self):
        originals = self.cli.load_relevance, self.cli.load_groups
        self.cli.load_relevance, self.cli.load_groups = map(self._timed,
                                                            originals)
        try:
            yield self
        finally:
            self.cli.load_relevance, self.cli.load_groups = originals


def invoke(cli, inv):
    """One in-process CLI call. Returns (exit code, stderr, wall seconds)."""
    for path in (inv.slate_path, inv.metrics_path):
        if path is not None:
            path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        wall = time.perf_counter() - t0
    return rc, err.getvalue().strip(), wall


def exit_error(inv, rc, err):
    return check.CheckError(f"{inv.argv[0]} {inv.method}: exit {rc}: {err}")


def verify_run(inputs, inv, rows):
    """Check one `run` invocation's slates and metrics row; return the
    slates' max shortfall in units of p_k."""
    if len(rows) != 1:
        raise check.CheckError(f"{inv.method}: expected 1 metrics row")
    slates = check.read_slates(inv.slate_path, inputs.consumer_ids,
                               inputs.item_ids, workloads.K)
    if inv.method == "top-k":
        want = check.expected_top_k(inputs.scores, inputs.item_ids,
                                    workloads.K)
        if not (slates == want).all():
            raise check.CheckError("top-k slates differ from the lexsort "
                                   "(score desc, item id asc)")
    probs = check.pbm_probs(inv.eta, workloads.K)
    check.compare(rows[0], check.recompute(inputs.scores, slates, probs,
                                           inputs.group_of, workloads.CUTOFFS),
                  inv.method)
    return check.max_shortfall_pk(inputs.scores, slates, probs,
                                  inputs.group_of, inv.alpha)


def verify_sweep_rows(rows):
    params = [check.metric(r, "param") for r in rows]
    if params != sorted(workloads.SWEEP_GRID):
        raise check.CheckError(f"sweep params {params} != grid")
    if abs(check.metric(rows[0], "ndcg@10") - 1.0) > check.TOL:
        raise check.CheckError("sweep alpha=0 row has ndcg@10 != 1")


def verify_sweep_points(cli, inputs, rows, seed, out_dir, ops):
    """Check the sweep's rows against one checked `run` per grid point (the
    sweep writes no slates). Returns the max shortfall over alpha > 0."""
    shortfalls = []
    for point, row in zip(workloads.sweep_point_runs(inputs, seed, out_dir),
                          rows):
        rc, err, _ = invoke(cli, point)
        try:
            if rc != 0:
                raise exit_error(point, rc, err)
            point_rows = check.read_metrics(point.metrics_path)
            shortfall = verify_run(inputs, point, point_rows)
            if point.alpha > 0:
                shortfalls.append(shortfall)
            check.compare(row, {c: check.metric(point_rows[0], c)
                                for c in check.QUALITY_COLUMNS},
                          f"sweep row alpha={point.alpha}")
            ops.record()
        except check.OUTPUT_ERRORS as exc:
            ops.record(exc)
    return max(shortfalls, default=float("nan"))


def first_pass(cli, inputs, invs, seed, out_dir, ops):
    """Run the workload once with every output check. Returns the outputs'
    fingerprints (later passes must repeat them) and the quality metrics."""
    reference, rows_all, shortfalls = [], [], []
    for inv in invs:
        rc, err, _ = invoke(cli, inv)
        try:
            if rc != 0:
                raise exit_error(inv, rc, err)
            rows = check.read_metrics(inv.metrics_path)
            if inv.argv[0] == "sweep":
                verify_sweep_rows(rows)
            else:
                shortfalls.append(verify_run(inputs, inv, rows))
            reference.append(check.fingerprint(inv.slate_path,
                                               inv.metrics_path))
            rows_all.extend(rows)
            ops.record()
        except check.OUTPUT_ERRORS as exc:
            ops.record(exc)
            reference.append(None)
            continue
        if inv.argv[0] == "sweep":
            shortfalls.append(verify_sweep_points(cli, inputs, rows, seed,
                                                  out_dir, ops))

    def mean(column):
        return statistics.fmean(check.metric(r, column) for r in rows_all) \
            if rows_all else float("nan")

    quality = {"ndcg10": mean("ndcg@10"), "fairness_ind": mean("fairness_ind"),
               "fairness_group": mean("fairness_group"),
               "max_shortfall_pk": max(shortfalls, default=float("nan"))}
    return reference, quality


def confirm(invs, results, reference, ops):
    """Count each invocation of a repeated pass: it must exit 0 and repeat
    the first pass's outputs byte for byte (metrics: all but wall time)."""
    for inv, (rc, err, _), ref in zip(invs, results, reference):
        try:
            if rc != 0:
                raise exit_error(inv, rc, err)
            if ref is None or ref != check.fingerprint(inv.slate_path,
                                                       inv.metrics_path):
                raise check.CheckError(f"{inv.argv[0]} {inv.method}: output "
                                       f"differs from the first pass")
            ops.record()
        except check.OUTPUT_ERRORS as exc:
            ops.record(exc)


def peak_rss_mb(invs, reference, ops):
    """ru_maxrss of a fresh process that runs one pass and nothing else."""
    argv = json.dumps([list(inv.argv) for inv in invs])
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(SRC), argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    rc = proc.returncode
    confirm(invs, [(rc, proc.stderr.strip(), 0.0)] * len(invs), reference, ops)
    if rc != 0:
        return float("nan")
    return int(proc.stdout.split()[-1]) / 1024


_CAL_ROWS = [[repr(x) for x in row] for row in
             np.random.default_rng(0).random((300, 50)).tolist()]


def calibration_s():
    """Wall time of a fixed piece of work in the program's own style: CSV
    float parsing, small numpy ops in a Python loop, then building
    per-consumer dicts and writing them as CSV rows. It never calls the
    program, so only the host's speed moves it."""
    t0 = time.perf_counter()
    rows = np.array([[float(x) for x in row] for row in _CAL_ROWS])
    avail = np.ones(rows.shape[1], dtype=bool)
    for row in rows:
        avail[:] = True
        for _ in range(10):
            cand = np.flatnonzero(avail & (row >= 0.05))
            avail[cand[np.argmax(row[cand])]] = False
    slates = {f"u{i:05d}": [f"d{j:02d}" for j in range(10)]
              for i in range(1200)}
    writer = csv.writer(io.StringIO())
    for cid, items in slates.items():
        rank = {d: r for r, d in enumerate(items, start=1)}
        for d in items:
            writer.writerow([cid, rank[d], d, "appending"])
    return time.perf_counter() - t0


@dataclass
class Pass:
    """One pass over the workload's invocations. `cals[i]` is the mean of
    the calibration runs just before and just after invocation i."""

    walls: list
    loaders: list
    cals: list
    spans: list | None = None   # traced passes only

    def scaled(self, seconds, i):
        """`seconds` measured during invocation i, in reference seconds."""
        return seconds * CAL_REF_S / self.cals[i]

    def run_s(self):
        return statistics.fmean(self.scaled(w, i)
                                for i, w in enumerate(self.walls))


def measure(cli, invs, reference, seconds, ops, traced_too=False):
    """Repeat passes for `seconds`, at least MIN_PASSES of each kind. With
    `traced_too`, every other pass runs under a fresh Tracer."""
    passes = []
    loader = LoaderTimer(cli)
    start = time.perf_counter()
    while len(passes) < MIN_PASSES * (1 + traced_too) \
            or time.perf_counter() - start < seconds:
        tracer = spans.Tracer() if traced_too and len(passes) % 2 else None
        results, loaders, cals = [], [], [calibration_s()]
        with tracer.installed() if tracer else loader.installed():
            for inv in invs:
                loader.elapsed = 0.0
                results.append(invoke(cli, inv))
                loaders.append(loader.elapsed)
                cals.append(calibration_s())
        confirm(invs, results, reference, ops)
        passes.append(Pass([wall for _, _, wall in results], loaders,
                           [(a + b) / 2 for a, b in zip(cals, cals[1:])],
                           tracer.spans if tracer else None))
    return passes


def layer_metrics(invs, inputs, passes):
    """Median over traced passes of each span's per-invocation figures."""
    n_inv = len(invs)
    rel_mb = inputs.relevance_path.stat().st_size / MB
    slate_mb = sum(inv.slate_path.stat().st_size for inv in invs
                   if inv.slate_path is not None) / MB
    m = len(inputs.consumer_ids)
    traced = [p for p in passes if p.spans is not None]
    per_pass = []
    for p in traced:
        # Spans of one pass share the pass's mean calibration.
        scale = CAL_REF_S / statistics.fmean(p.cals)
        wall = sum(p.walls)
        summary = spans.summarize(p.spans)
        values = {}
        for name in spans.SPAN_NAMES:
            calls, total, own = summary.get(name, (0, 0.0, 0.0))
            values.update({f"{name}.calls": calls / n_inv,
                           f"{name}.s": total * scale / n_inv,
                           f"{name}.self_s": own * scale / n_inv,
                           f"{name}.share": 100.0 * total / wall})
        for metric, (name, _) in RATES.items():
            calls, total, _ = summary.get(name, (0, 0.0, 0.0))
            amount = {"data.load_relevance": calls * rel_mb,
                      "harness.write_slates": slate_mb}.get(name, calls * m)
            values[metric] = amount / (total * scale) if total > 0 else 0.0
        per_pass.append(values)
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (
        statistics.median(p.run_s() for p in traced)
        - statistics.median(p.run_s() for p in passes if p.spans is None))
    return out


def end_to_end_metrics(passes, rss, quality):
    loaders = [p.scaled(s, i) for p in passes for i, s in enumerate(p.loaders)]
    return {"run_s": statistics.median(p.run_s() for p in passes),
            "setup_s": statistics.median(loaders),
            "peak_rss_mb": rss, **quality}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _number(value):
    """JSON has no NaN; a metric that could not be measured is null."""
    return value if math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    cli = load_cli()
    w = workloads.WORKLOADS[args.workload]
    work = WORK_DIR / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    (work / "rss").mkdir()
    try:
        t0 = time.perf_counter()
        inputs = workloads.generate(w, args.seed, work)
        invs = workloads.invocations(w, inputs, args.seed, work / "out")
        ops = Ops()
        reference, quality = first_pass(cli, inputs, invs, args.seed,
                                        work / "out", ops)
        if args.trace:
            passes = measure(cli, invs, reference, args.seconds, ops,
                             traced_too=True)
            values, units = layer_metrics(invs, inputs, passes), PER_LAYER
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"spans-{w.name}-{args.seed}.json"
            trace_path.write_text(json.dumps(
                [p.spans for p in passes if p.spans is not None]))
        else:
            rss = peak_rss_mb(workloads.invocations(w, inputs, args.seed,
                                                    work / "rss"),
                              reference, ops)
            passes = measure(cli, invs, reference, args.seconds, ops)
            values = end_to_end_metrics(passes, rss, quality)
            units = END_TO_END
        untraced = [p for p in passes if p.spans is None]
        print(json.dumps({
            "workload": w.name, "seed": args.seed,
            "inputs": workloads.describe(inputs),
            "invocations_per_pass": len(invs),
            "passes": len(passes),
            "samples": {"run_s": len(untraced),
                        "setup_s": len(untraced) * len(invs),
                        "traced": len(passes) - len(untraced)},
            "wall_run_s_median": statistics.median(
                statistics.fmean(p.walls) for p in untraced),
            "calibration_s_median": statistics.median(
                c for p in passes for c in p.cals),
            "total_s": time.perf_counter() - t0,
            "failures": ops.reasons}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = {name: _number(values[name]) for name in units}
    print(json.dumps({
        "correct": ops.failed == 0 and None not in values.values(),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
