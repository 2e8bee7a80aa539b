"""Command-line front end.

Subcommands: run, sweep, reproduce-fig, a2vi, a2pg, check.  Every command
prints a one-line JSON summary to stdout; errors go to stderr as one JSON
line.  Exit codes: 0 success, 2 usage, 3 bad config, 4 divergence,
5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    BellmanObjective,
    GradientObjective,
    RunConfig,
    load_config_file,
    parse_run_config,
    parse_sweep_config,
)
from .core import build_field, run
from .diagnostics import (
    a2pg_stationarity_report,
    a2vi_residual_report,
    check_activation,
    check_step_size,
    worst_verdict,
)
from .errors import ConfigError, DivergenceError
from .experiment import (
    emit_plot_data,
    reproduce_experiment,
    summarize,
    sweep_run,
    write_aggregate_csv,
    write_sweep_csv,
)
from .mdp import load_fixture
from .schedules import HarmonicSteps
from .stochastics import (
    ComponentUniformErrors,
    NormBallErrors,
    UniformNoise,
    ZeroErrors,
    ZeroNoise,
)

__all__ = ["main"]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write_trace(trace, out: str) -> None:
    if out.endswith(".jsonl"):
        trace.write_jsonl(out)
    else:
        trace.write_csv(out)


def _cmd_run(args) -> int:
    data = load_config_file(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.horizon is not None:
        data["horizon"] = args.horizon
    cfg = parse_run_config(data)
    trace = run(cfg)
    out = args.out if args.out is not None else cfg.out
    if out:
        _write_trace(trace, out)
    _emit({
        "ticks": trace.ticks,
        "final_norm": float(np.linalg.norm(trace.final_x)),
        "residual": float(trace.residual[-1]),
        "projections": int(trace.projected.sum()),
        "initial_projection": bool(trace.meta.get("initial_projection", False)),
        "out": out,
    })
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_sweep_config(load_config_file(args.config))
    rows = sweep_run(spec, jobs=args.jobs)
    write_sweep_csv(spec, rows, args.out)
    _emit({
        "cells": len(rows),
        "divergent": sum(r["status"] != "ok" for r in rows),
        "aggregate": spec.aggregate,
        "out": args.out,
    })
    return 0


_FIGURE_PC = {1: 0.4, 2: 0.8}


def _cmd_reproduce_fig(args) -> int:
    p_c = _FIGURE_PC[args.figure]
    result = reproduce_experiment(
        p_c, seeds=range(args.runs), jobs=args.jobs,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    agg_path = outdir / f"scaling_pc{p_c:g}.csv"
    plot_path = outdir / f"scaling_pc{p_c:g}_plot.csv"
    write_aggregate_csv(result, agg_path)
    emit_plot_data(result, plot_path, style=args.plot_style)
    summary = summarize(result)
    summary["aggregate_csv"] = str(agg_path)
    summary["plot_csv"] = str(plot_path)
    _emit(summary)
    return 0


def _cmd_a2vi(args) -> int:
    if args.fixture is not None:
        objective = BellmanObjective(fixture=args.fixture)
        states = load_fixture(args.fixture).states
    else:
        objective = BellmanObjective(
            states=args.states, actions=args.actions,
            discount=args.discount, mdp_seed=args.mdp_seed,
        )
        states = args.states
    cfg = RunConfig(
        dimension=states,
        horizon=args.ticks,
        seed=args.seed,
        objective=objective,
        steps=HarmonicSteps(c=args.step_c),
        errors=(
            ComponentUniformErrors(bound=args.eps)
            if args.eps > 0 else ZeroErrors()
        ),
    )
    trace = run(cfg)
    report = a2vi_residual_report(build_field(cfg).mdp, trace.final_x,
                                  eps_bound=args.eps, slack=args.slack)
    report["final_values"] = [float(v) for v in trace.final_x]
    if args.out:
        _write_trace(trace, args.out)
        report["out"] = args.out
    _emit(report)
    return 0


def _cmd_a2pg(args) -> int:
    objective = GradientObjective(surface=args.surface)
    cfg = RunConfig(
        dimension=args.dim,
        horizon=args.ticks,
        seed=args.seed,
        objective=objective,
        steps=HarmonicSteps(c=args.step_c),
        errors=(
            NormBallErrors(bound=args.eps) if args.eps > 0 else ZeroErrors()
        ),
        noise=(
            UniformNoise(level=args.noise) if args.noise > 0 else ZeroNoise()
        ),
    )
    trace = run(cfg)
    report = a2pg_stationarity_report(build_field(cfg).surface, trace.final_x,
                                      eps_bound=args.eps, tol=args.tol)
    report["final_theta"] = [float(v) for v in trace.final_x]
    if args.out:
        _write_trace(trace, args.out)
        report["out"] = args.out
    _emit(report)
    return 0


def _cmd_check(args) -> int:
    cfg = parse_run_config(load_config_file(args.config))
    steps_report = check_step_size(cfg.steps, horizon=args.horizon)
    act_report = check_activation(cfg.activation, cfg.dimension,
                                  seed=cfg.seed)
    _emit({
        "step_size": steps_report.to_json_dict(),
        "activation": act_report.to_json_dict(),
        "verdict": worst_verdict([steps_report.verdict, act_report.verdict]),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncsa",
        description="Asynchronous stochastic approximation runs and studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one configured run")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", help="execute a parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("reproduce-fig",
                       help="rerun the delayed error-scaling study")
    p.add_argument("figure", type=int, choices=sorted(_FIGURE_PC))
    p.add_argument("--out", default=".")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--plot-style", choices=("wide", "long"), default="wide")
    p.set_defaults(handler=_cmd_reproduce_fig)

    p = sub.add_parser("a2vi", help="asynchronous value-iteration run")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture")
    group.add_argument("--states", type=int)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--discount", type=float, default=0.9)
    p.add_argument("--mdp-seed", type=int, default=0)
    p.add_argument("--ticks", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--step-c", type=float, default=10.0)
    p.add_argument("--slack", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_a2vi)

    p = sub.add_parser("a2pg", help="asynchronous policy-gradient style run")
    p.add_argument("--surface", choices=("quadratic-bowl", "rosenbrock"),
                   default="quadratic-bowl")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--ticks", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--step-c", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_a2pg)

    p = sub.add_parser("check", help="diagnose a run config's ingredients")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, default=100_000)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(json.dumps({
            "error": "divergence", "message": str(exc),
            "tick": exc.n, "component": exc.component,
        }), file=sys.stderr)
        return 4
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}),
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
