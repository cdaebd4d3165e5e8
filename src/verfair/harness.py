"""Single runs, parameter sweeps, timing benchmarks, and per-item
distribution dumps, all emitting diffable CSV.

A run is a one-point sweep: both make, time and evaluate a slate set
through `_point` and write metrics through `write_sweep`. Timing covers slate
generation only (no loading, no metric evaluation) and is normalized to
milliseconds per 1000 slates. A verfair sweep shuffles the consumers and
sorts their preferences once (`allocator.Preferences`), in its first grid
point, whose `wall_ms_per_1k` therefore carries the sort. The points after
the first run across the usable CPUs, in forked children that send their
records back, so each `wall_ms_per_1k` is timed in the process that ran the
point, concurrently with the others. A run that writes a slate file of at
least `_MIN_FORKED_SLOTS` slots, on two or more usable CPUs, evaluates the
slates in a forked child, which sends the report back, while this process
writes them, once `check_evaluable` has passed: a refused run writes no file.
"""

from __future__ import annotations

import csv
import itertools
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .allocator import PHASE_TAG, Preferences, allocate, allocate_individual
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
    cutoffs: tuple = DEFAULT_CUTOFFS
    shuffle: bool = True


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
                shuffle=True, prefs=None):
    """Dispatch a method name to its allocator. `fairco` and
    `verfair-group` work at the level of `groups`. `prefs` goes to the
    verfair allocators (see `allocate`)."""
    if method == "top-k":
        return top_k(rel, model.k)
    if method == "random-k":
        return random_k(rel, model.k, seed)
    if method == "pr-k":
        return pr_k(rel, model)
    if method == "fairco":
        return fairco(rel, groups, model, lam)
    if method == "verfair-ind":
        return allocate_individual(rel, model, alpha, seed, shuffle,
                                   prefs=prefs)
    if method == "verfair-group":
        return allocate(rel, groups, model, alpha, seed, shuffle,
                        prefs=prefs)
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
           prefs=None, slate_path=None):
    """Make, time and evaluate one slate set: (slates, report, record).
    The slates are written to `slate_path` when it is given, by
    `_evaluate_writing`."""
    groups = groups or identity_groups(rel)
    model = ExposureModel.pbm(config.eta, config.k)
    t0 = time.perf_counter()
    slates = make_slates(config.method, rel, groups, model,
                         alpha=config.alpha, lam=config.lam,
                         seed=config.seed, shuffle=config.shuffle,
                         prefs=prefs)
    wall = time.perf_counter() - t0
    if slate_path is None:
        report = evaluate(slates, rel, groups, model, config.cutoffs)
    else:
        report = _evaluate_writing(slates, rel, groups, model, config,
                                   slate_path)
    return slates, report, _record(config, param, report, wall * 1e6 / rel.m)


def _evaluate_writing(slates, rel: RelevanceMatrix, groups: GroupMap,
                      model: ExposureModel, config: RunConfig, path):
    """`evaluate` of `slates` at `config.cutoffs`, which `write_slates`
    writes to `path`.

    With 2 or more usable CPUs and `_MIN_FORKED_SLOTS` slots or more, a
    child forked by `data._forked` evaluates and sends the report back
    while this process writes the slates; the report is used while the
    child exits, and the child is reaped before this returns or raises.
    `check_evaluable` runs first, so a refused run leaves no file, as one
    that evaluates before it writes. When the fork fails or the child
    fails to send the report, `evaluate` runs here.
    """
    written = None
    if data._usable_cpus() > 1 and slates.items.size >= _MIN_FORKED_SLOTS:
        check_evaluable(rel, groups, model, config.cutoffs)

        def write():
            write_slates(slates, config, path)
            return True

        child = partial(evaluate, slates, rel, groups, model, config.cutoffs)
        with data._forked([child], write) as (written, sent):
            if sent is not None:
                return sent[0]
    report = evaluate(slates, rel, groups, model, config.cutoffs)
    if not written:  # serial, or no child was forked
        write_slates(slates, config, path)
    return report


def run(config: RunConfig, rel: RelevanceMatrix, groups: GroupMap = None,
        slate_path=None, metrics_path=None):
    """Generate one slate set, evaluate it, optionally write both CSVs.

    The metrics row's param is the method's alpha or lambda, and nan for a
    method without a tradeoff parameter. With a `slate_path`, at least
    `_MIN_FORKED_SLOTS` slots and two or more usable CPUs, the slates are
    evaluated in a forked child while this process writes them (see
    `_evaluate_writing`); the report is bit-identical. A refused run
    leaves no file, and its error is the serial run's.
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
    every other method, and is the record's param. The verfair methods
    share one `Preferences` across the grid: the consumers are shuffled and
    their preferences sorted once, in the first point, whose
    `wall_ms_per_1k` carries the sort.

    The first point runs in this process. The others are dealt to this
    process and to P - 1 children forked by `data._forked`, P being the
    usable CPUs or the points left, whichever is fewer, in the serpentine
    order 0, 1, ..., P - 1, P - 1, ..., 0, so that the last and costliest
    points of a rising grid are not all one process's. Each child sends
    back its points' records, which are put in grid order while the
    children exit, and every child is reaped before this returns or
    raises. So each `wall_ms_per_1k` is timed in the process that ran the
    point, concurrently with the others. On a failed fork, a child that
    fails to send its records, or a point raising here, every point after
    the first runs here in grid order, so the records and the first error
    raised are the serial sweep's.
    """
    if not grid:
        raise ValueError("parameter grid must be non-empty")
    if not all(v >= 0 for v in grid):
        raise ValueError("parameter values must be non-negative numbers")
    kind = PARAM_OF.get(config.method)
    if kind == "alpha" and max(grid) > 1:
        raise ValueError("alpha values must be in [0,1]")
    field = "lam" if kind == "lambda" else "alpha"
    prefs = None
    if kind == "alpha":
        prefs = Preferences(rel, config.seed, config.shuffle,
                            rel.n if max(grid) > 0 else config.k)
    values = sorted(grid)

    def records(points):
        return [_point(replace(config, **{field: values[i]}), values[i], rel,
                       groups, prefs)[2] for i in points]

    first = records([0])
    procs = max(1, min(data._usable_cpus(), len(values) - 1))
    turn = 2 * procs  # process j runs points j + 1 and turn - j, mod turn
    deals = [sorted([*range(1 + j, len(values), turn),
                     *range(turn - j, len(values), turn)])
             for j in range(procs)]
    try:
        with data._forked([partial(records, d) for d in deals[1:]],
                          partial(records, deals[0])) as (own, sent):
            if sent is not None:
                dealt = zip(itertools.chain(*deals),
                            itertools.chain(own, *sent))
                return first + [r for _, r in sorted(dealt)]
    except Exception:  # raised again below, unless a point before it fails
        pass
    return first + records(range(1, len(values)))


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
    """Slate dump: a run-header line, then consumer_id,rank,item_id,phase_tag.

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
