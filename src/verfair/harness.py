"""Single runs, parameter sweeps, timing benchmarks, and per-item
distribution dumps, all emitting diffable CSV.

A run is a one-point sweep: both make, time and evaluate a slate set
through `_point` and write metrics through `write_sweep`. Timing covers slate
generation only (no loading, no metric evaluation) and is normalized to
milliseconds per 1000 slates. `run` and `sweep` each share out their work
with one `data._forked` call.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .allocator import PHASE_TAG, allocate, allocate_individual
from .baselines import fairco, pr_k, random_k, top_k
from . import data
from .data import GroupMap, RelevanceMatrix, identity_groups
from .exposure import ExposureModel, accumulate
from .metrics import EvalReport, check_evaluable, evaluate
from .quota import compute_quotas

METHODS = ("top-k", "random-k", "pr-k", "fairco", "verfair-ind", "verfair-group")

# Methods taking a tradeoff parameter, and which one.
PARAM_OF = {"verfair-ind": "alpha", "verfair-group": "alpha", "fairco": "lambda"}

DEFAULT_CUTOFFS = (1, 3, 10)

# Slots (m·k) a run's slate set must hold for a forked child to evaluate
# it while this process writes it: forking and reaping cost 1.4 ms from a
# 30 MB process and 3.4 ms from a 218 MB one. Forked minus serial `run`
# of top-k, k=10, n=20, median of 40 alternating pairs on 2 CPUs: +0.42 ms
# at m=5000, +0.27 at 10000, -0.57 at 12000, -1.63 at 20000, -7.6 at
# 40000. The break-even lies near 110k slots.
_MIN_FORKED_SLOTS = 2 ** 17


@dataclass(frozen=True)
class RunConfig:
    method: str
    eta: float = 1.0
    k: int = 10
    alpha: float = 1.0
    lam: float = 0.0
    seed: int = 0
    cutoffs: tuple = None  # None: those of DEFAULT_CUTOFFS that are <= k
    shuffle: bool = True

    def __post_init__(self):
        if self.cutoffs is None:
            object.__setattr__(self, "cutoffs", tuple(
                c for c in DEFAULT_CUTOFFS if c <= self.k))


@dataclass(frozen=True)
class TradeoffRecord:
    method: str
    param: float
    eta: float
    k: int
    ndcg_at: dict
    fairness_individual: float
    fairness_group: float
    wall_ms_per_1k: float


def make_slates(method, rel: RelevanceMatrix, groups: GroupMap,
                model: ExposureModel, *, alpha=1.0, lam=0.0, seed=0,
                shuffle=True):
    """Dispatch a method name to its allocator. `fairco` and
    `verfair-group` work at the level of `groups`."""
    if method == "top-k":
        return top_k(rel, model.k)
    if method == "random-k":
        return random_k(rel, model.k, seed)
    if method == "pr-k":
        return pr_k(rel, model)
    if method == "fairco":
        return fairco(rel, groups, model, lam)
    if method == "verfair-ind":
        return allocate_individual(rel, model, alpha, seed, shuffle)
    if method == "verfair-group":
        return allocate(rel, groups, model, alpha, seed, shuffle)
    raise ValueError(f"unknown method {method!r}")


def metrics_header(cutoffs):
    """Metrics CSV header with one ndcg@<c> column per cutoff."""
    return ",".join(["method,param,eta,k", *(f"ndcg@{c}" for c in cutoffs),
                     "fairness_ind,fairness_group,wall_ms_per_1k"])


def _record(config: RunConfig, param, report: EvalReport, wall_ms_per_1k):
    return TradeoffRecord(config.method, float(param), config.eta, config.k,
                          report.ndcg_at, report.fairness_individual,
                          report.fairness_group, wall_ms_per_1k)


def _point(config: RunConfig, param, rel: RelevanceMatrix, groups: GroupMap,
           slate_path=None):
    """Make, time and evaluate one slate set: (slates, report, record).
    With a `slate_path` the slates are also written there, as `run`
    describes."""
    groups = groups or identity_groups(rel)
    model = ExposureModel.pbm(config.eta, config.k)
    t0 = time.perf_counter()
    slates = make_slates(config.method, rel, groups, model,
                         alpha=config.alpha, lam=config.lam,
                         seed=config.seed, shuffle=config.shuffle)
    wall = time.perf_counter() - t0
    calls = [partial(evaluate, slates, rel, groups, model, config.cutoffs)]
    if slate_path is not None:
        check_evaluable(rel, groups, model, config.cutoffs)
        calls.insert(0, partial(write_slates, slates, config, slate_path))
    forks = data._usable_cpus() > 1 and slates.items.size >= _MIN_FORKED_SLOTS
    with data._forked(calls, 2 if forks else 1) as (*_, report):
        return slates, report, _record(config, param, report,
                                       wall * 1e6 / rel.m)


def run(config: RunConfig, rel: RelevanceMatrix, groups: GroupMap = None,
        slate_path=None, metrics_path=None):
    """Generate one slate set, evaluate it, optionally write both CSVs.

    The metrics row's param is the method's alpha or lambda, and nan for a
    method without a tradeoff parameter. With a `slate_path`,
    `check_evaluable` runs first, so a refused run leaves no file. Then
    one `data._forked` call makes `[write_slates, evaluate]`, in two
    processes with at least `_MIN_FORKED_SLOTS` slots and two or more
    usable CPUs, else in this one.
    """
    param = {"alpha": config.alpha, "lambda": config.lam}.get(
        PARAM_OF.get(config.method), float("nan"))
    slates, report, record = _point(config, param, rel, groups,
                                    slate_path=slate_path)
    if metrics_path is not None:
        write_sweep([record], metrics_path)
    return slates, report


def sweep(config: RunConfig, grid, rel: RelevanceMatrix,
          groups: GroupMap = None):
    """One TradeoffRecord per grid value, in ascending order.

    Each value replaces `config.lam` for fairco and `config.alpha` for
    every other method, and is the record's param. The points are the
    calls of one `data._forked` over the usable CPUs, so the records and
    the error are the serial sweep's, and each `wall_ms_per_1k` is timed
    in the process that ran the point.

    Before the `_forked` call, `rel.preferences` sorts every row as deep
    as any point reads it: to n for a verfair grid with some alpha above
    0, else to k. The matrix keeps that sort, so the points and their
    `evaluate` calls, here or in a child, sort no row again and no
    `wall_ms_per_1k` carries the sort.
    """
    if not grid:
        raise ValueError("parameter grid must be non-empty")
    if not all(v >= 0 for v in grid):
        raise ValueError("parameter values must be non-negative numbers")
    kind = PARAM_OF.get(config.method)
    if kind == "alpha" and max(grid) > 1:
        raise ValueError("alpha values must be in [0,1]")
    field = "lam" if kind == "lambda" else "alpha"
    depth = rel.n if kind == "alpha" and max(grid) > 0 else config.k
    if 1 <= depth <= rel.n:  # each point refuses a k outside 1..n
        rel.preferences(depth)

    def record(value):
        return _point(replace(config, **{field: value}), value, rel,
                      groups)[2]

    with data._forked([partial(record, v) for v in sorted(grid)],
                      data._usable_cpus()) as records:
        return records


def write_sweep(records, path):
    """Metrics CSV of records, one ndcg@<c> column per cutoff."""
    cutoffs = records[0].ndcg_at if records else DEFAULT_CUTOFFS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(metrics_header(cutoffs) + "\n")
        for r in records:
            floats = (*r.ndcg_at.values(), r.fairness_individual,
                      r.fairness_group, r.wall_ms_per_1k)
            cells = [r.method, repr(float(r.param)), repr(float(r.eta)),
                     str(r.k), *(repr(float(v)) for v in floats)]
            fh.write(",".join(cells) + "\n")


def _csv_fields(values):
    """Each value as `csv.writer` writes it as one field of a row."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append))
    writer.writerows((v, "") for v in values)
    cut = len(writer.dialect.lineterminator) + 1  # the "," and row end
    return [line[:-cut] for line in lines]


def _quotes(c):
    """True when `csv.writer` writes the one-character field `c` otherwise
    than as `c`, or refuses it (NUL before Python 3.11)."""
    try:
        return _csv_fields([c]) != [c]
    except csv.Error:
        return True


# The ASCII characters that make csv.writer quote a field; it quotes for
# no other character.
_QUOTED = tuple(c for c in map(chr, range(128)) if _quotes(c))


def _fields(ids):
    """`_csv_fields(ids)`, which is `ids` itself when every id is a
    non-empty `str` without a character that csv.writer quotes."""
    try:
        joined = "".join(ids)
    except TypeError:  # some id is not a str
        return _csv_fields(ids)
    if all(ids) and not any(c in joined for c in _QUOTED):
        return ids
    return _csv_fields(ids)


_CHUNK = 4096  # consumers per write


def write_slates(slates, config: RunConfig, path):
    """Slate dump: a run-header line, then consumer_id,rank,item_id,phase_tag;
    returns the number of slots written, m·k.

    Byte-identical to one `csv.writer` row per slot. Ids go out as they
    are unless csv.writer would quote one of them; then a list of ids is
    quoted through `_csv_fields`, the consumers a chunk at a time. Each
    line is joined from three pieces: the consumer, ",rank," and
    "item,tag" + row end, taken from a table of every item and phase.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# method={config.method} alpha={config.alpha} "
                 f"lambda={config.lam} eta={config.eta} k={config.k} "
                 f"seed={config.seed}\n")
        w = csv.writer(fh)
        w.writerow(["consumer_id", "rank", "item_id", "phase_tag"])
        m, k = slates.items.shape
        end = w.dialect.lineterminator
        tail = np.array([f"{d},{t}{end}" for d in _fields(slates.item_ids)
                         for t in PHASE_TAG], dtype=object)
        cid = slates.consumer_ids
        line = np.empty((min(m, _CHUNK), k, 3), dtype=object)
        line[:, :, 1] = [f",{r}," for r in range(1, k + 1)]
        for a in range(0, m, _CHUNK):
            rows = slates.rows[a:a + _CHUNK]
            part = line[:len(rows)]
            part[:, :, 0] = np.array(_fields([cid[r] for r in rows.tolist()]),
                                     dtype=object)[:, None]
            part[:, :, 2] = tail[slates.items[a:a + _CHUNK] * len(PHASE_TAG)
                                 + slates.phase[a:a + _CHUNK]]
            fh.write("".join(part.ravel().tolist()))
    return m * k


def bench(method, rel: RelevanceMatrix, groups: GroupMap = None, *,
          eta=1.0, k=10, alpha=1.0, lam=0.0, seed=0, repeat=3):
    """Median wall time (ms) to generate 1k slates, warm runs only.

    Each run, the warm-up too, gets a fresh copy of `rel`, made outside
    the timed region, so every timed run sorts its preferences anew."""
    if repeat < 3:
        raise ValueError("repeat must be >= 3")
    groups = groups or identity_groups(rel)
    model = ExposureModel.pbm(eta, k)
    times = []
    for _ in range(repeat + 1):  # the first run warms up
        fresh = replace(rel)
        t0 = time.perf_counter()
        make_slates(method, fresh, groups, model, alpha=alpha, lam=lam,
                    seed=seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * 1e6 / rel.m  # ms per 1k slates


def dump_distributions(slates, rel: RelevanceMatrix, groups: GroupMap,
                       model: ExposureModel, alpha, path):
    """Per-item CSV of (item_id, avg_relevance, exposure, quota_at_alpha);
    every refusal comes before the file is opened."""
    identity = identity_groups(rel)
    quota = compute_quotas(rel, identity, model, alpha)
    groups.indices(rel)  # raises for a matrix item with no group
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "avg_relevance", "exposure", "quota_at_alpha"])
        if not len(slates.items):
            return
        exposure = accumulate(slates, model, identity).per_item
        for d, avg, exp, q in zip(rel.item_ids, rel.avg_relevance().tolist(),
                                  exposure.tolist(), quota.tolist()):
            w.writerow([d, repr(avg), repr(exp), repr(q)])
