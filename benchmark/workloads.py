"""Seeded benchmark inputs and the CLI invocations each workload makes.

The inputs are generated here with numpy and written by this module's own
CSV writer, never through ``verfair.data``, so a change to the program's
loader or synthesizer cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 10
CUTOFFS = (1, 3, 10)

# Unequal group sizes for alloc-group-sweep (sum = its item count). With
# 10 groups the max shortfall swung by 16% (quartile spread) from seed to
# seed; 20 groups bring it to 3-5%.
GROUP_SIZES = (12, 10, 9, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1)
# Relevance multiplier per group: popular groups score higher, so top-k
# over-exposes them and the quota has something to correct.
GROUP_WEIGHTS = np.linspace(1.0, 0.3, len(GROUP_SIZES))
# Item popularity multipliers for "skewed" inputs.
ITEM_WEIGHTS = (1.0, 0.2)
SWEEP_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
FAIRCO_LAMBDA = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    dist: str  # "uniform", "skewed" or "beta-grouped"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("alloc-ind", 2000, 100, "uniform"),
    Workload("alloc-group-sweep", 1000, 100, "beta-grouped"),
    Workload("load-wide", 500, 1000, "skewed"),
    Workload("slates-tall", 40000, 20, "skewed"),
)}


@dataclass
class Inputs:
    """Generated inputs, kept in memory for the output checks."""

    consumer_ids: list
    item_ids: list
    scores: np.ndarray          # (m, n) float64, exactly what the CSV holds
    group_of: np.ndarray        # (n,) group index per item
    group_ids: list
    relevance_path: Path
    groups_path: Path | None


def make_scores(w: Workload, seed):
    """Return (scores, group_of, n_groups) for workload `w` and `seed`."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    if w.dist == "uniform":
        return rng.random((w.m, w.n)), np.arange(w.n), w.n
    if w.dist == "skewed":
        weight = rng.permutation(np.linspace(*ITEM_WEIGHTS, w.n))
        return rng.random((w.m, w.n)) * weight, np.arange(w.n), w.n
    sizes = np.array(GROUP_SIZES)
    group_of = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    weight = np.array(GROUP_WEIGHTS)[group_of]
    return rng.beta(0.5, 2.0, size=(w.m, w.n)) * weight, group_of, len(sizes)


def _ids(prefix, count):
    width = len(str(count))
    return [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]


def write_relevance(path, consumer_ids, item_ids, scores):
    """Relevance CSV with repr floats, which parse back to the same bits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("consumer_id," + ",".join(item_ids) + "\n")
        for cid, row in zip(consumer_ids, scores.tolist()):
            fh.write(cid + "," + ",".join(map(repr, row)) + "\n")


def write_groups(path, item_ids, group_ids, group_of):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("item_id,group_id\n")
        for d, g in zip(item_ids, group_of):
            fh.write(f"{d},{group_ids[g]}\n")


def generate(w: Workload, seed, directory: Path) -> Inputs:
    scores, group_of, n_groups = make_scores(w, seed)
    consumer_ids, item_ids = _ids("u", w.m), _ids("d", w.n)
    rel_path = directory / "relevance.csv"
    write_relevance(rel_path, consumer_ids, item_ids, scores)
    if w.dist != "beta-grouped":
        return Inputs(consumer_ids, item_ids, scores, group_of, item_ids,
                      rel_path, None)
    group_ids = _ids("g", n_groups)
    groups_path = directory / "groups.csv"
    write_groups(groups_path, item_ids, group_ids, group_of)
    return Inputs(consumer_ids, item_ids, scores, group_of, group_ids,
                  rel_path, groups_path)


def describe(inputs: Inputs):
    """Byte size and sha256 of each input file."""
    out = {}
    for path in (inputs.relevance_path, inputs.groups_path):
        if path is not None:
            data = path.read_bytes()
            out[path.name] = {"bytes": len(data),
                              "sha256": hashlib.sha256(data).hexdigest()}
    return out


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv plus what the checker needs to know about it."""

    argv: tuple
    method: str
    eta: float
    alpha: float | None         # quota level the slates answer to
    slate_path: Path | None
    metrics_path: Path


def _run(inputs, out_dir, tag, method, seed, eta, extra, alpha):
    slate_path = out_dir / f"{tag}.slates.csv"
    metrics_path = out_dir / f"{tag}.metrics.csv"
    argv = ["run", "--relevance", str(inputs.relevance_path),
            "--method", method, "--eta", repr(eta), "--k", str(K),
            "--seed", str(seed), "--out", str(slate_path),
            "--metrics-out", str(metrics_path), *extra]
    if inputs.groups_path is not None:
        argv += ["--groups", str(inputs.groups_path)]
    return Invocation(tuple(argv), method, eta, alpha, slate_path,
                      metrics_path)


def invocations(w: Workload, inputs: Inputs, seed, out_dir: Path):
    """The CLI calls of one timed pass of workload `w`."""
    if w.name == "alloc-ind":
        return [_run(inputs, out_dir, f"ind-{a}", "verfair-ind", seed, 1.0,
                     ["--alpha", repr(a)], a) for a in (0.7, 1.0)]
    if w.name == "alloc-group-sweep":
        path = out_dir / "sweep.csv"
        argv = ["sweep", "--relevance", str(inputs.relevance_path),
                "--groups", str(inputs.groups_path),
                "--method", "verfair-group", "--eta", "2.0", "--k", str(K),
                "--seed", str(seed), "--out", str(path),
                "--grid", ",".join(map(repr, SWEEP_GRID))]
        return [Invocation(tuple(argv), "verfair-group", 2.0, None, None,
                           path)]
    if w.name == "load-wide":
        return [_run(inputs, out_dir, "top-k", "top-k", seed, 1.0, [], 1.0),
                _run(inputs, out_dir, "fairco", "fairco", seed, 1.0,
                     ["--lambda", repr(FAIRCO_LAMBDA)], 1.0),
                _run(inputs, out_dir, "pr-k", "pr-k", seed, 1.0, [], 1.0)]
    if w.name == "slates-tall":
        return [_run(inputs, out_dir, "top-k", "top-k", seed, 1.0, [], 1.0)]
    raise ValueError(f"unknown workload {w.name!r}")


def sweep_point_runs(inputs: Inputs, seed, out_dir: Path):
    """One `run` per sweep grid point, so the sweep's rows can be checked
    against slates (the sweep itself writes none)."""
    return [_run(inputs, out_dir, f"group-{a}", "verfair-group", seed, 2.0,
                 ["--alpha", repr(a)], a) for a in SWEEP_GRID]
