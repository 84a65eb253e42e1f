"""Command-line interface.

Subcommands:
  linear-query  release a linear query over a dataset with calibrated noise
  calibrate     per-item budget for the shuffled item-wise release
  reduce        project unbounded user data to a fixed size and run an
                inner mechanism on the projections
  freq-est      frequency-estimation trials, CSV of per-trial errors
  audit         brute-force privacy verification of a finite channel
  experiment    run a config-driven experiment grid, CSV report

Spaces are given either inline as ``clustered:s,t,r`` or as a path to a file
holding ``metric k=<n>`` plus a distance table, or a ``clustered s= t= r=``
line.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .audit import verify_emd_dp, verify_item_metric_dp
from .budget import MetricBudget
from .experiments import _parse_clustered, run_experiment
from .frequency import (
    freq_est_central,
    freq_est_local,
    gkrr_mechanism,
    gkrr_params,
    gkrr_right_inverse,
    hadamard_response,
    hadamard_user_budget,
    laplace_freq_central,
    project_to_simplex,
)
from .linear_mech import LinearQuery, NoiseSpec, lipschitz_constant, priv_emd_linear
from .metric_space import ClusteredSpace, MetricSpace
from .reduction import bounded_emd_reduction, reduction_budget
from .rng import substream
from .shuffle_amp import calibrate_alpha0, effective_budget, priv_emd_itemwise
from .transport import Histogram, Multiset, emd, multiset_from_csv, multisets_by_user_from_csv


def parse_space(spec: str) -> tuple[MetricSpace, ClusteredSpace | None]:
    """Resolve a space argument to (space, clustered parameters or None)."""
    if spec.startswith("clustered:"):
        params = _parse_clustered(spec)
        return params.space(), params
    if not os.path.exists(spec):
        raise ValueError(f"space file not found: {spec}")
    with open(spec) as fh:
        text = fh.read()
    first = text.lstrip().split(None, 1)[0]
    if first == "clustered":
        params = ClusteredSpace.from_text(text)
        return params.space(), params
    return MetricSpace.from_text(text), None


def _cmd_linear_query(args: argparse.Namespace) -> int:
    space, _ = parse_space(args.space)
    data = multiset_from_csv(args.data, space)
    table = np.atleast_2d(np.loadtxt(args.query, delimiter=",", ndmin=2))
    query = LinearQuery(space, table)
    lip = args.lipschitz
    if lip is None:
        lip = lipschitz_constant(query)
    noise = NoiseSpec(args.noise, omega=1.0 / args.alpha, lipschitz=lip, delta=args.delta)
    out = priv_emd_linear(
        query, data, noise, model=args.model, n=args.n, seed=args.seed,
        check_lipschitz=not args.unchecked,
    )
    print(",".join(repr(float(v)) for v in out))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    target = MetricBudget(args.alpha, args.delta)
    alpha0 = calibrate_alpha0(target, m=args.m, n=args.n, model=args.model, mode=args.mode)
    result = effective_budget(alpha0, args.delta, args.m, args.n, args.model) if alpha0 > 0 else None
    print("alpha0,alpha_eff,delta_eff,w_star")
    if result is None:
        print(f"{alpha0!r},0.0,{args.delta!r},0.0")
    else:
        print(f"{alpha0!r},{result.alpha_eff!r},{result.delta_eff!r},{result.w_star!r}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    space, params = parse_space(args.space)
    users = multisets_by_user_from_csv(args.data, space)
    budget = reduction_budget(args.epsilon, args.delta, args.radius, args.samples)

    if args.inner == "size":
        inner = lambda datasets: sum(d.size for d in datasets)
        result = bounded_emd_reduction(users, args.samples, inner, seed=args.seed)
        print(result)
        return 0
    if args.inner == "histogram":
        def inner(datasets):
            pooled = np.sum([d.counts for d in datasets], axis=0)
            return pooled / pooled.sum()

        result = bounded_emd_reduction(users, args.samples, inner, seed=args.seed)
        print(",".join(repr(float(v)) for v in result))
        return 0
    if args.inner == "gkrr-itemwise":
        if params is None:
            raise ValueError("gkrr-itemwise needs a clustered space")
        # Composition across the s projected items meets the inner budget.
        alpha0 = budget.alpha / args.samples
        mech = gkrr_mechanism(params.s, params.t, params.r, alpha0)

        def inner(datasets):
            return [
                priv_emd_itemwise(d, mech, substream(args.seed, 1, i)).tolist()
                for i, d in enumerate(datasets)
            ]

        result = bounded_emd_reduction(users, args.samples, inner, seed=args.seed)
        for reports in result:
            print(",".join(str(v) for v in reports))
        return 0
    raise ValueError(f"unknown inner mechanism {args.inner!r}")


def _cmd_freq_est(args: argparse.Namespace) -> int:
    space, params = parse_space(args.space)
    users = multisets_by_user_from_csv(args.data, space)
    pooled = Multiset(space, np.sum([u.counts for u in users], axis=0))
    target = pooled.normalize()
    m_max = max(u.size for u in users)

    rows = []
    for trial in range(args.trials):
        seed = substream(args.seed, trial)
        if args.mechanism == "laplace":
            if args.epsilon is None:
                raise ValueError("laplace requires --epsilon")
            estimate, _ = laplace_freq_central(pooled, len(users), args.epsilon, seed)
        else:
            if args.mechanism == "gkrr":
                if params is None:
                    raise ValueError("gkrr requires a clustered space")
                if args.alpha0 is not None:
                    alpha0 = args.alpha0
                elif args.alpha is not None:
                    alpha0 = calibrate_alpha0(
                        MetricBudget(args.alpha, args.delta), m_max, len(users), args.model, args.mode
                    )
                else:
                    raise ValueError("gkrr requires --alpha0 or --alpha")
                mech = gkrr_mechanism(params.s, params.t, params.r, alpha0)
                inverse = gkrr_right_inverse(gkrr_params(params.s, params.t, params.r, alpha0))
            elif args.mechanism == "hadamard":
                if args.epsilon is None:
                    raise ValueError("hadamard requires --epsilon (user-level)")
                eps0 = hadamard_user_budget(args.epsilon, m_max, args.delta)
                mech, inverse = hadamard_response(space.size, eps0)
            else:
                raise ValueError(f"unknown mechanism {args.mechanism!r}")
            estimator = freq_est_central if args.model == "central" else freq_est_local
            raw = estimator(users, mech, inverse, seed)
            estimate = project_to_simplex(raw)
        emd_error, _ = emd(Histogram(space, estimate), target)
        l1_error = float(np.abs(estimate - target.mass).sum())
        rows.append((trial, emd_error, l1_error))

    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["trial", "emd_error", "l1_error"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    space, params = parse_space(args.space)
    if args.mechanism == "gkrr":
        if params is None:
            raise ValueError("gkrr requires a clustered space")
        mech = gkrr_mechanism(params.s, params.t, params.r, args.alpha0)
    elif args.mechanism == "hadamard":
        mech, _ = hadamard_response(space.size, args.alpha0)
    else:
        raise ValueError(f"unknown mechanism {args.mechanism!r}")
    if args.m <= 1:
        result = verify_item_metric_dp(mech, args.alpha, args.delta)
    else:
        result = verify_emd_dp(mech, args.m, args.alpha, args.delta)
    print(f"{'PASS' if result.passed else 'FAIL'} "
          f"alpha={args.alpha} delta={args.delta} m={args.m} "
          f"worst_pair={result.worst_pair} divergence={result.divergence!r}")
    return 0 if result.passed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        text = run_experiment(args.config, args.out, seed=args.seed, jobs=args.jobs, allow_skip=args.allow_skip)
    except Exception as exc:  # cell failures surface as a nonzero exit
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emdp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linear-query", help="release a linear query with calibrated noise")
    p.add_argument("--space", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--query", required=True, help="CSV of the d x k query table")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--noise", choices=["gamma", "gaussian"], default="gamma")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--model", choices=["local", "central"], default="local")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lipschitz", type=float, default=None)
    p.add_argument("--unchecked", action="store_true")
    p.set_defaults(func=_cmd_linear_query)

    p = sub.add_parser("calibrate", help="per-item budget for the shuffled release")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--model", choices=["local", "central"], default="local")
    p.add_argument("--mode", choices=["exact", "asymptotic"], default="exact")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("reduce", help="fixed-size projection plus an inner mechanism")
    p.add_argument("--data", required=True, help="CSV with user_id,point_index rows")
    p.add_argument("--space", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--inner", choices=["size", "histogram", "gkrr-itemwise"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("freq-est", help="frequency-estimation error trials")
    p.add_argument("--space", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mechanism", choices=["gkrr", "hadamard", "laplace"], required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha0", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--model", choices=["local", "central"], default="local")
    p.add_argument("--mode", choices=["exact", "asymptotic"], default="asymptotic")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_freq_est)

    p = sub.add_parser("audit", help="brute-force privacy verification")
    p.add_argument("--space", required=True)
    p.add_argument("--mechanism", choices=["gkrr", "hadamard"], required=True)
    p.add_argument("--alpha0", type=float, required=True, help="channel construction level")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--alpha", type=float, required=True, help="audited budget")
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("experiment", help="run a config-driven experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-skip", action="store_true")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
