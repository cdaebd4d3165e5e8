"""Single runs, parameter sweeps, timing benchmarks, and per-item
distribution dumps, all emitting diffable CSV.

Timing covers slate generation only (no loading, no metric evaluation) and
is normalized to milliseconds per 1000 slates.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .allocator import PHASE_TAG, allocate, allocate_individual
from .baselines import fairco, pr_k, random_k, top_k
from .data import GroupMap, RelevanceMatrix, identity_groups
from .exposure import ExposureModel, accumulate
from .metrics import evaluate
from .quota import compute_quotas

METHODS = ("top-k", "random-k", "pr-k", "fairco", "verfair-ind", "verfair-group")

# Methods taking a tradeoff parameter, and which one.
PARAM_OF = {"verfair-ind": "alpha", "verfair-group": "alpha", "fairco": "lambda"}

DEFAULT_CUTOFFS = (1, 3, 10)


@dataclass(frozen=True)
class RunConfig:
    method: str
    eta: float = 1.0
    k: int = 10
    alpha: float = 1.0
    lam: float = 0.0
    seed: int = 0
    cutoffs: tuple = DEFAULT_CUTOFFS
    shuffle: bool = True


@dataclass(frozen=True)
class SweepConfig:
    method: str
    grid: tuple          # alpha values or lambda values, method-dependent
    eta: float = 1.0
    k: int = 10
    cutoffs: tuple = DEFAULT_CUTOFFS
    seed: int = 0

    def __post_init__(self):
        if not self.grid:
            raise ValueError("parameter grid must be non-empty")
        if any(v < 0 for v in self.grid):
            raise ValueError("parameter values must be non-negative")
        if PARAM_OF.get(self.method) == "alpha" and any(v > 1 for v in self.grid):
            raise ValueError("alpha values must be in [0,1]")


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
    """Dispatch a method name to its allocator."""
    if method == "top-k":
        return top_k(rel, model, model.k)
    if method == "random-k":
        return random_k(rel, model.k, seed)
    if method == "pr-k":
        return pr_k(rel, model, model.k)
    if method == "fairco":
        level = "group" if groups is not None and len(groups.group_ids) < rel.n \
            else "individual"
        return fairco(rel, groups or identity_groups(rel), model, lam, level)
    if method == "verfair-ind":
        return allocate_individual(rel, model, alpha, seed, shuffle)
    if method == "verfair-group":
        if groups is None:
            raise ValueError("verfair-group requires a group map")
        return allocate(rel, groups, model, alpha, seed, shuffle)
    raise ValueError(f"unknown method {method!r}")


def _param_value(config: RunConfig):
    kind = PARAM_OF.get(config.method)
    if kind == "alpha":
        return config.alpha
    if kind == "lambda":
        return config.lam
    return float("nan")


def metrics_header(cutoffs):
    """Metrics CSV header with one ndcg@<c> column per cutoff."""
    return ",".join(["method,param,eta,k", *(f"ndcg@{c}" for c in cutoffs),
                     "fairness_ind,fairness_group,wall_ms_per_1k"])


METRICS_HEADER = metrics_header(DEFAULT_CUTOFFS)


def run(config: RunConfig, rel: RelevanceMatrix, groups: GroupMap = None,
        slate_path=None, metrics_path=None):
    """Generate one slate set, evaluate it, optionally write both CSVs."""
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    groups = groups or identity_groups(rel)
    model = ExposureModel.pbm(config.eta, config.k)
    t0 = time.perf_counter()
    slates = make_slates(config.method, rel, groups, model,
                         alpha=config.alpha, lam=config.lam,
                         seed=config.seed, shuffle=config.shuffle)
    wall = time.perf_counter() - t0
    report = evaluate(slates, rel, groups, model, config.cutoffs)
    wall_ms_per_1k = wall * 1000.0 * 1000.0 / rel.m
    if slate_path is not None:
        write_slates(slates, config, slate_path)
    if metrics_path is not None:
        with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(metrics_header(report.ndcg_at) + "\n")
            fh.write(_metrics_row(config.method, _param_value(config),
                                  config.eta, config.k, report.ndcg_at,
                                  report.fairness_individual,
                                  report.fairness_group, wall_ms_per_1k)
                     + "\n")
    return slates, report


def _metrics_row(method, param, eta, k, ndcg_at, fairness_ind,
                 fairness_group, wall_ms):
    cells = [method, repr(float(param)), repr(float(eta)), str(k),
             *(repr(float(v)) for v in ndcg_at.values()),
             repr(float(fairness_ind)), repr(float(fairness_group)),
             repr(float(wall_ms))]
    return ",".join(cells)


def _csv_fields(values):
    """Each value as `csv.writer` writes it as one field of a row."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append))
    writer.writerows((v, "") for v in values)
    cut = len(writer.dialect.lineterminator) + 1  # the "," and row end
    return [line[:-cut] for line in lines]


_CHUNK = 4096  # consumers per write


def write_slates(slates, config: RunConfig, path):
    """Slate dump: a run-header line, then consumer_id,rank,item_id,phase_tag.

    Byte-identical to one `csv.writer` row per slot. Each id is quoted
    once, and the rows go out in chunks of `_CHUNK` consumers, each line
    joined from four pieces: consumer, ",rank,", item, ",tag" + row end.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# method={config.method} alpha={config.alpha} "
                 f"lambda={config.lam} eta={config.eta} k={config.k} "
                 f"seed={config.seed}\n")
        w = csv.writer(fh)
        w.writerow(["consumer_id", "rank", "item_id", "phase_tag"])
        m, k = slates.items.shape
        end = w.dialect.lineterminator
        item = np.array(_csv_fields(slates.item_ids), dtype=object)
        tail = np.array([f",{t}{end}" for t in PHASE_TAG], dtype=object)
        line = np.empty((min(m, _CHUNK), k, 4), dtype=object)
        line[:, :, 1] = [f",{r}," for r in range(1, k + 1)]
        for a in range(0, m, _CHUNK):
            rows = slates.rows[a:a + _CHUNK]
            part = line[:len(rows)]
            part[:, :, 0] = np.array(
                _csv_fields(slates.consumer_ids[r] for r in rows.tolist()),
                dtype=object)[:, None]
            part[:, :, 2] = item[slates.items[a:a + _CHUNK]]
            part[:, :, 3] = tail[slates.phase[a:a + _CHUNK]]
            fh.write("".join(part.ravel().tolist()))


def sweep(config: SweepConfig, rel: RelevanceMatrix, groups: GroupMap = None):
    """One TradeoffRecord per grid point, ordered by parameter value."""
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    groups = groups or identity_groups(rel)
    model = ExposureModel.pbm(config.eta, config.k)
    records = []
    for value in sorted(config.grid):
        kwargs = {"seed": config.seed}
        if PARAM_OF.get(config.method) == "lambda":
            kwargs["lam"] = value
        else:
            kwargs["alpha"] = value
        t0 = time.perf_counter()
        slates = make_slates(config.method, rel, groups, model, **kwargs)
        wall = time.perf_counter() - t0
        report = evaluate(slates, rel, groups, model, config.cutoffs)
        records.append(TradeoffRecord(
            method=config.method, param=float(value), eta=config.eta,
            k=config.k, ndcg_at=report.ndcg_at,
            fairness_individual=report.fairness_individual,
            fairness_group=report.fairness_group,
            wall_ms_per_1k=wall * 1e6 / rel.m))
    return records


def write_sweep(records, path):
    """Metrics CSV of sweep records, one ndcg@<c> column per cutoff."""
    cutoffs = records[0].ndcg_at if records else DEFAULT_CUTOFFS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(metrics_header(cutoffs) + "\n")
        for r in records:
            fh.write(_metrics_row(r.method, r.param, r.eta, r.k, r.ndcg_at,
                                  r.fairness_individual, r.fairness_group,
                                  r.wall_ms_per_1k) + "\n")


def bench(method, rel: RelevanceMatrix, groups: GroupMap = None, *,
          eta=1.0, k=10, alpha=1.0, lam=0.0, seed=0, repeat=3):
    """Median wall time (ms) to generate 1k slates, warm runs only."""
    if repeat < 3:
        raise ValueError("repeat must be >= 3")
    groups = groups or identity_groups(rel)
    model = ExposureModel.pbm(eta, k)
    make_slates(method, rel, groups, model, alpha=alpha, lam=lam, seed=seed)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        make_slates(method, rel, groups, model, alpha=alpha, lam=lam, seed=seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6 / rel.m  # ms per 1k slates


def dump_distributions(slates, rel: RelevanceMatrix, groups: GroupMap,
                       model: ExposureModel, alpha, path):
    """Per-item CSV of (item_id, avg_relevance, exposure, quota_at_alpha)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "avg_relevance", "exposure", "quota_at_alpha"])
        if not len(slates.items):
            return
        ledger = accumulate(slates, model, groups)
        quota = compute_quotas(rel, identity_groups(rel), model, alpha)
        avg = dict(zip(rel.item_ids, rel.avg_relevance()))
        for d in rel.item_ids:
            w.writerow([d, repr(float(avg[d])), repr(float(ledger.per_item[d])),
                        repr(float(quota.per_group[d]))])
