"""Command line front end.

Every subcommand reads a scenario file (``--config``, a path or the
name of a bundled scenario such as ``table2``) and writes CSV to
``--out``, the config's ``out`` path, or stdout. Exit codes: 0 on
success, 2 for configuration and domain errors, 3 for numeric failures
(step size too large, non-finite state, no convergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .dtmc import max_stable_dt, monte_carlo_mean, extinction_time_stochastic
from .errors import ConfigError, DomainError, NumericError
from .integrate import integrate
from .model import ModelParams
from .threshold import build_decomposition, calibrate_alpha, r0_rank_one
from .trajectory import TrajectoryTable, format_value

__all__ = ["main", "console_main", "build_parser"]


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario file path or bundled name (e.g. table2)")
    sub.add_argument("--out", help="output CSV path (default: config 'out', else stdout)")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--replicas", type=int, help="override the ensemble size")
    sub.add_argument("--dt", type=float, help="override the chain epoch length")
    sub.add_argument("--horizon", type=float, help="override the simulated time span")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusim",
        description="Simulate compartmental information diffusion in a grouped population.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("r0", help="print the basic reproduction number and its decomposition")
    _add_common(sub)

    sub = subs.add_parser("calibrate", help="solve for the activation scale that hits a target R0")
    _add_common(sub)
    sub.add_argument("--target-r0", type=float, help="target value (default: config target_r0)")

    sub = subs.add_parser("run-ode", help="integrate the mean-field trajectories, write CSV")
    _add_common(sub)

    sub = subs.add_parser("run-dtmc", help="simulate the chain ensemble, write mean/spread CSV")
    _add_common(sub)

    sub = subs.add_parser("compare", help="mean-field vs chain ensemble on one sampling grid")
    _add_common(sub)

    sub = subs.add_parser("extinction-sweep", help="mean extinction time across target R0 values")
    _add_common(sub)
    sub.add_argument("--r0-grid", type=_float_list, required=True, help="comma-separated target R0 values")

    sub = subs.add_parser("logistic-sweep", help="activity peaks across carrying capacities")
    _add_common(sub)
    sub.add_argument("--k-grid", type=_float_list, required=True, help="comma-separated capacities")

    return parser


def _resolved_params(cfg: ScenarioConfig) -> ModelParams:
    """Config params, with alpha calibrated when target_r0 is set."""
    if cfg.target_r0 is None:
        return cfg.params
    return cfg.params.with_alpha(calibrate_alpha(cfg.params, cfg.target_r0))


def _auto_dt(params: ModelParams, cfg: ScenarioConfig, sample_every: float) -> float:
    """Epoch length: the largest divisor of sample_every that is provably stable.

    The bound is max_stable_dt at the initial population size, with the
    scenario's logistic coupling when it is enabled.
    """
    total0 = float(cfg.s0.sum() + cfg.a0.sum() + cfg.d0.sum())
    n_cap = max(1, math.ceil(total0))
    bound = min(max_stable_dt(params, n_cap, logistic=cfg.logistic), sample_every)
    k = max(1, math.ceil(sample_every / bound - 1e-9))
    return sample_every / k


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")
        print(f"wrote {out}")


def _traj_csv(traj: TrajectoryTable) -> str:
    return "\n".join([traj.csv_header(), *traj.csv_rows()]) + "\n"


def _cmd_r0(cfg: ScenarioConfig) -> int:
    params = _resolved_params(cfg)
    dec = build_decomposition(params)
    print(f"alpha = {format_value(params.alpha)}")
    print(f"R0 = {format_value(dec.r0)}")
    for label, mat in (("F", dec.f), ("V", dec.v), ("K", dec.k)):
        print(f"{label} =")
        for row in mat:
            print("  " + "  ".join(format_value(v) for v in row))
    return 0


def _cmd_calibrate(cfg: ScenarioConfig, target_r0: float | None) -> int:
    if target_r0 is None:
        target_r0 = cfg.target_r0
    if target_r0 is None:
        raise ConfigError("calibrate needs --target-r0 or a target_r0 config entry")
    alpha = calibrate_alpha(cfg.params, target_r0)
    print(f"target_r0 = {format_value(target_r0)}")
    print(f"alpha = {format_value(alpha)}")
    check = r0_rank_one(cfg.params.with_alpha(alpha))
    print(f"achieved_r0 = {format_value(check)}")
    return 0


def _cmd_run_ode(cfg: ScenarioConfig, out: str | None) -> int:
    params = _resolved_params(cfg)
    traj = integrate(params, cfg.continuous_init(), cfg.integration, logistic=cfg.logistic)
    _emit(_traj_csv(traj), out)
    return 0


def _chain_settings(cfg: ScenarioConfig, params: ModelParams, dt_flag: float | None) -> tuple[float, float, float]:
    sample_every = cfg.integration.sample_every
    dt = dt_flag if dt_flag is not None else cfg.dt
    if dt is None:
        dt = _auto_dt(params, cfg, sample_every)
    return dt, cfg.integration.horizon, sample_every


def _ensemble(
    cfg: ScenarioConfig, params: ModelParams, n_replicas: int, seed: int, dt_flag: float | None
) -> TrajectoryTable:
    dt, horizon, sample_every = _chain_settings(cfg, params, dt_flag)
    return monte_carlo_mean(
        params, cfg.discrete_init(), dt, horizon, cfg.mode,
        n_replicas=n_replicas, seed=seed, sample_every=sample_every, logistic=cfg.logistic,
    )


def _cmd_run_dtmc(cfg: ScenarioConfig, out: str | None, n_replicas: int, seed: int, dt_flag: float | None) -> int:
    traj = _ensemble(cfg, _resolved_params(cfg), n_replicas, seed, dt_flag)
    _emit(_traj_csv(traj), out)
    return 0


def _cmd_compare(cfg: ScenarioConfig, out: str | None, n_replicas: int, seed: int, dt_flag: float | None) -> int:
    params = _resolved_params(cfg)
    ode = integrate(params, cfg.continuous_init(), cfg.integration, logistic=cfg.logistic)
    mc = _ensemble(cfg, params, n_replicas, seed, dt_flag)
    if ode.times.shape != mc.times.shape:
        raise NumericError(
            f"sampling grids disagree: {ode.times.shape[0]} mean-field rows vs "
            f"{mc.times.shape[0]} ensemble rows"
        )
    m = params.m
    groups = [str(i) for i in range(1, m + 1)]
    header = ",".join(
        ["time"]
        + [f"ode_{c}_{g}" for c in ("S", "A", "D") for g in groups]
        + [f"mc_{c}_{g}" for c in ("S", "A", "D") for g in groups]
        + [f"sd_{c}_{g}" for c in ("S", "A", "D") for g in groups]
    )
    lines = [header]
    for k, t in enumerate(ode.times):
        cells = [format_value(t)]
        for block in (ode.s, ode.a, ode.dd, mc.s, mc.a, mc.dd, mc.sd_s, mc.sd_a, mc.sd_dd):
            cells.extend(format_value(v) for v in block[k])
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", out)
    return 0


def _cmd_extinction_sweep(
    cfg: ScenarioConfig, out: str | None, n_replicas: int, seed: int,
    dt_flag: float | None, r0_grid: list[float],
) -> int:
    lines = ["r0,alpha,mean_extinction_time,sd_extinction_time,n_extinct,n_censored"]
    for target in r0_grid:
        alpha = calibrate_alpha(cfg.params, target)
        params = cfg.params.with_alpha(alpha)
        dt, horizon, _ = _chain_settings(cfg, params, dt_flag)
        summary = extinction_time_stochastic(
            params, cfg.discrete_init(), dt, horizon, cfg.mode,
            n_replicas=n_replicas, seed=seed, logistic=cfg.logistic,
        )
        mean = "" if summary.mean is None else format_value(summary.mean)
        sd = "" if summary.spread is None else format_value(summary.spread)
        n_extinct = n_replicas - summary.n_censored
        lines.append(
            f"{format_value(target)},{format_value(alpha)},{mean},{sd},"
            f"{n_extinct},{summary.n_censored}"
        )
    _emit("\n".join(lines) + "\n", out)
    return 0


def _cmd_logistic_sweep(cfg: ScenarioConfig, out: str | None, k_grid: list[float]) -> int:
    params = _resolved_params(cfg)
    m = params.m
    groups = [str(i) for i in range(1, m + 1)]
    header = ",".join(
        ["k", "alpha"] + [f"peak_A_{g}" for g in groups] + [f"t_peak_{g}" for g in groups]
    )
    lines = [header]
    for capacity in k_grid:
        logistic = dataclasses.replace(cfg.logistic, enabled=True, capacity=capacity)
        traj = integrate(params, cfg.continuous_init(), cfg.integration, logistic=logistic)
        peak_idx = np.argmax(traj.a, axis=0)
        peaks = [format_value(traj.a[peak_idx[i], i]) for i in range(m)]
        t_peaks = [format_value(traj.times[peak_idx[i]]) for i in range(m)]
        lines.append(",".join([format_value(capacity), format_value(params.alpha)] + peaks + t_peaks))
    _emit("\n".join(lines) + "\n", out)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.horizon is not None:
        integration = dataclasses.replace(cfg.integration, horizon=args.horizon)
        cfg = dataclasses.replace(cfg, integration=integration)
    out = args.out if args.out is not None else cfg.out
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    n_replicas = args.replicas if args.replicas is not None else cfg.n_replicas
    if n_replicas < 1:
        raise ConfigError(f"replicas must be positive, got {n_replicas}")

    if args.command == "r0":
        return _cmd_r0(cfg)
    if args.command == "calibrate":
        return _cmd_calibrate(cfg, args.target_r0)
    if args.command == "run-ode":
        return _cmd_run_ode(cfg, out)
    if args.command == "run-dtmc":
        return _cmd_run_dtmc(cfg, out, n_replicas, seed, args.dt)
    if args.command == "compare":
        return _cmd_compare(cfg, out, n_replicas, seed, args.dt)
    if args.command == "extinction-sweep":
        return _cmd_extinction_sweep(cfg, out, n_replicas, seed, args.dt, args.r0_grid)
    if args.command == "logistic-sweep":
        return _cmd_logistic_sweep(cfg, out, args.k_grid)
    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
