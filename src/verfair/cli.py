"""Command-line interface.

Subcommands: run, sweep, bench, gen, dump.
Exit codes: 0 success, 2 input validation failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .data import (DataError, identity_groups, load_groups, load_relevance,
                   save_relevance, synth_relevance)
from .exposure import ExposureModel
from .harness import RunConfig


def _add_common(p):
    p.add_argument("--relevance", required=True, help="relevance CSV path")
    p.add_argument("--groups", help="item->group CSV path (optional); "
                                    "fairco and verfair-group work at its level")
    p.add_argument("--method", required=True, choices=harness.METHODS)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _add_params(p):
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)


def _parse_cutoffs(text):
    return tuple(int(x) for x in text.split(","))


def _add_cutoffs(p):
    p.add_argument("--cutoffs", type=_parse_cutoffs,
                   help="comma-separated NDCG cutoffs "
                        "(default: those of 1,3,10 that are <= --k)")


def build_parser():
    ap = argparse.ArgumentParser(prog="verfair",
                                 description="Fair-exposure slate allocation "
                                             "and benchmarking")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single allocation run with metrics")
    _add_common(p)
    _add_params(p)
    _add_cutoffs(p)
    p.add_argument("--no-shuffle", action="store_true",
                   help="keep dataset consumer order")
    p.add_argument("--out", required=True, help="slate CSV output path")
    p.add_argument("--metrics-out", help="metrics CSV output path")

    p = sub.add_parser("sweep", help="tradeoff sweep over a parameter grid")
    _add_common(p)
    p.add_argument("--grid", required=True,
                   help="comma-separated parameter values")
    _add_cutoffs(p)
    p.add_argument("--out", required=True, help="metrics CSV output path")

    p = sub.add_parser("bench", help="timing benchmark (per 1k slates)")
    _add_common(p)
    _add_params(p)
    p.add_argument("--repeat", type=int, default=3)

    p = sub.add_parser("gen", help="generate a synthetic relevance CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="uniform",
                   help='"uniform" or "beta(a,b)"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dump", help="per-item relevance/exposure/quota CSV")
    _add_common(p)
    _add_params(p)
    p.add_argument("--out", required=True)
    return ap


def _load(args):
    rel = load_relevance(args.relevance)
    # before any k-long array is built
    if args.k > rel.n:
        raise ValueError(f"need n >= k (n={rel.n}, k={args.k})")
    groups = load_groups(args.groups, rel) if args.groups else identity_groups(rel)
    return rel, groups


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            rel, groups = _load(args)
            config = RunConfig(method=args.method, eta=args.eta, k=args.k,
                               alpha=args.alpha, lam=args.lam, seed=args.seed,
                               cutoffs=args.cutoffs,
                               shuffle=not args.no_shuffle)
            _, report = harness.run(config, rel, groups,
                                    slate_path=args.out,
                                    metrics_path=args.metrics_out)
            for kc, v in sorted(report.ndcg_at.items()):
                print(f"ndcg@{kc}={v:.6f}")
            print(f"fairness_ind={report.fairness_individual:.6f}")
            print(f"fairness_group={report.fairness_group:.6f}")
        elif args.command == "sweep":
            rel, groups = _load(args)
            grid = tuple(float(x) for x in args.grid.split(","))
            config = RunConfig(method=args.method, eta=args.eta, k=args.k,
                               seed=args.seed, cutoffs=args.cutoffs)
            records = harness.sweep(config, grid, rel, groups)
            harness.write_sweep(records, args.out)
            print(f"wrote {len(records)} records to {args.out}")
        elif args.command == "bench":
            rel, groups = _load(args)
            ms = harness.bench(args.method, rel, groups, eta=args.eta,
                               k=args.k, alpha=args.alpha, lam=args.lam,
                               seed=args.seed, repeat=args.repeat)
            print(f"{args.method}: {ms:.1f} ms per 1k slates")
        elif args.command == "gen":
            rel = synth_relevance(args.m, args.n, args.dist, args.seed)
            save_relevance(rel, args.out)
            print(f"wrote {args.m}x{args.n} matrix to {args.out}")
        elif args.command == "dump":
            rel, groups = _load(args)
            model = ExposureModel.pbm(args.eta, args.k)
            slates = harness.make_slates(args.method, rel, groups, model,
                                         alpha=args.alpha, lam=args.lam,
                                         seed=args.seed)
            harness.dump_distributions(slates, rel, groups, model,
                                       args.alpha, args.out)
            print(f"wrote per-item distributions to {args.out}")
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
