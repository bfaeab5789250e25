"""Command line front end.

Every subcommand reads a scenario file (``--config``, a path or the
name of a bundled scenario such as ``table2``) and takes only the flags
it reads. ``r0`` and ``calibrate`` print a summary to stdout; the others
write CSV to ``--out``, the config's ``out`` path, or stdout. Exit
codes: 0 on success, 2 for configuration and domain errors, 3 for
numeric failures (step size too large, non-finite state or R0).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .dtmc import _mode_rates, max_stable_dt, monte_carlo_mean, extinction_time_stochastic
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


# flag -> add_argument keywords; each subcommand takes the flags it reads
_FLAGS: dict[str, dict] = {
    "--out": dict(help="output CSV path (default: config 'out', else stdout)"),
    "--horizon": dict(type=float, help="override the simulated time span"),
    "--seed": dict(type=int, help="override the master seed"),
    "--replicas": dict(type=int, help="override the ensemble size"),
    "--dt": dict(type=float, help="override the chain epoch length"),
    "--target-r0": dict(type=float, help="target value (default: config target_r0)"),
    "--r0-grid": dict(type=_float_list, required=True, help="comma-separated target R0 values"),
    "--k-grid": dict(type=_float_list, required=True, help="comma-separated capacities"),
}
_CHAIN_FLAGS = ("--out", "--horizon", "--seed", "--replicas", "--dt")

# flag destination -> ScenarioConfig field it overrides
_OVERRIDES = {"out": "out", "seed": "seed", "replicas": "n_replicas", "dt": "dt", "target_r0": "target_r0"}


def _totals(cfg: ScenarioConfig) -> np.ndarray:
    """The initial group totals s0 + a0 + d0, which conserved groups keep."""
    return cfg.s0 + cfg.a0 + cfg.d0


def _resolved_params(cfg: ScenarioConfig, target_r0: float | None = None) -> ModelParams:
    """The full model's params for the config's mode, as the chain runs them.

    alpha is calibrated to ``target_r0``, else to the config's target_r0
    when that is set.
    """
    params = dataclasses.replace(cfg.params, **_mode_rates(cfg.params, cfg.mode))
    target = cfg.target_r0 if target_r0 is None else target_r0
    if target is None:
        return params
    return params.with_alpha(calibrate_alpha(params, target, totals=_totals(cfg)))


def _chain_dt(params: ModelParams, cfg: ScenarioConfig) -> float:
    """Epoch length: the scenario's dt, else the largest provably stable
    divisor of sample_every.

    The bound is max_stable_dt at the initial population size, with the
    scenario's logistic coupling when it is enabled.
    """
    if cfg.dt is not None:
        return cfg.dt
    sample_every = cfg.integration.sample_every
    total0 = float(cfg.s0.sum() + cfg.a0.sum() + cfg.d0.sum())
    n_cap = max(1, math.ceil(total0))
    bound = min(max_stable_dt(params, n_cap, logistic=cfg.logistic), sample_every)
    k = max(1, math.ceil(sample_every / bound - 1e-9))
    return sample_every / k


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")
        print(f"wrote {out}")


def _cmd_r0(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    params = _resolved_params(cfg)
    dec = build_decomposition(params, totals=_totals(cfg))
    lines = [f"alpha = {format_value(params.alpha)}", f"R0 = {format_value(dec.r0)}"]
    for label, mat in (("F", dec.f), ("V", dec.v), ("K", dec.k)):
        lines.append(f"{label} =")
        lines += ["  " + "  ".join(format_value(v) for v in row) for row in mat]
    return lines


def _cmd_calibrate(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    if cfg.target_r0 is None:
        raise ConfigError("calibrate needs --target-r0 or a target_r0 config entry")
    params = _resolved_params(cfg)
    return [
        f"target_r0 = {format_value(cfg.target_r0)}",
        f"alpha = {format_value(params.alpha)}",
        f"achieved_r0 = {format_value(r0_rank_one(params, totals=_totals(cfg)))}",
    ]


def _ensemble(cfg: ScenarioConfig, params: ModelParams) -> TrajectoryTable:
    return monte_carlo_mean(
        params, cfg.discrete_init(), _chain_dt(params, cfg), cfg.integration.horizon, cfg.mode,
        n_replicas=cfg.n_replicas, seed=cfg.seed,
        sample_every=cfg.integration.sample_every, logistic=cfg.logistic,
    )


def _cmd_run_ode(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    ode = integrate(_resolved_params(cfg), cfg.continuous_init(), cfg.integration, logistic=cfg.logistic)
    return [ode.csv_header(), *ode.csv_rows()]


def _cmd_run_dtmc(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    mc = _ensemble(cfg, _resolved_params(cfg))
    return [mc.csv_header(), *mc.csv_rows()]


def _cmd_compare(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    params = _resolved_params(cfg)
    ode = integrate(params, cfg.continuous_init(), cfg.integration, logistic=cfg.logistic)
    mc = _ensemble(cfg, params)
    if ode.times.shape != mc.times.shape:
        raise NumericError(
            f"sampling grids disagree: {ode.times.shape[0]} mean-field rows vs "
            f"{mc.times.shape[0]} ensemble rows"
        )
    cols = ode.csv_header().split(",")[1:]
    header = ",".join(["time"] + [f"{tag}_{c}" for tag in ("ode", "mc", "sd") for c in cols])
    # each row keeps the mean-field time cell and drops the ensemble's
    return [header] + [f"{o},{c.partition(',')[2]}" for o, c in zip(ode.csv_rows(), mc.csv_rows())]


def _cmd_extinction_sweep(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    lines = ["r0,alpha,mean_extinction_time,sd_extinction_time,n_extinct,n_censored"]
    for target in args.r0_grid:
        params = _resolved_params(cfg, target)
        summary = extinction_time_stochastic(
            params, cfg.discrete_init(), _chain_dt(params, cfg), cfg.integration.horizon, cfg.mode,
            n_replicas=cfg.n_replicas, seed=cfg.seed, logistic=cfg.logistic,
        )
        mean = "" if summary.mean is None else format_value(summary.mean)
        sd = "" if summary.spread is None else format_value(summary.spread)
        lines.append(
            f"{format_value(target)},{format_value(params.alpha)},{mean},{sd},"
            f"{cfg.n_replicas - summary.n_censored},{summary.n_censored}"
        )
    return lines


def _cmd_logistic_sweep(cfg: ScenarioConfig, args: argparse.Namespace) -> list[str]:
    params = _resolved_params(cfg)
    m = params.m
    lines = [",".join(["k", "alpha"] + [f"{col}_{i}" for col in ("peak_A", "t_peak") for i in range(1, m + 1)])]
    for capacity in args.k_grid:
        logistic = dataclasses.replace(cfg.logistic, enabled=True, capacity=capacity)
        traj = integrate(params, cfg.continuous_init(), cfg.integration, logistic=logistic)
        peak_idx = np.argmax(traj.a, axis=0)
        peaks = [format_value(traj.a[peak_idx[i], i]) for i in range(m)]
        t_peaks = [format_value(traj.times[peak_idx[i]]) for i in range(m)]
        lines.append(",".join([format_value(capacity), format_value(params.alpha)] + peaks + t_peaks))
    return lines


_COMMANDS = (
    ("r0", _cmd_r0, "print the basic reproduction number and its decomposition", ()),
    ("calibrate", _cmd_calibrate, "solve for the activation scale that hits a target R0", ("--target-r0",)),
    ("run-ode", _cmd_run_ode, "integrate the mean-field trajectories, write CSV", ("--out", "--horizon")),
    ("run-dtmc", _cmd_run_dtmc, "simulate the chain ensemble, write mean/spread CSV", _CHAIN_FLAGS),
    ("compare", _cmd_compare, "mean-field vs chain ensemble on one sampling grid", _CHAIN_FLAGS),
    ("extinction-sweep", _cmd_extinction_sweep, "mean extinction time across target R0 values",
     _CHAIN_FLAGS + ("--r0-grid",)),
    ("logistic-sweep", _cmd_logistic_sweep, "activity peaks across carrying capacities",
     ("--out", "--horizon", "--k-grid")),
)


class _SubcommandParser(argparse.ArgumentParser):
    """Rejects a flag it does not take with its own usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``diffusim`` command line."""
    parser = argparse.ArgumentParser(
        prog="diffusim",
        description="Simulate compartmental information diffusion in a grouped population.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, run, help_text, flags in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="scenario file path or bundled name (e.g. table2)")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(run=run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: argparse sizes a help formatter to the
    # terminal for every add_argument, about 1 ms per build
    return build_parser()


def _dispatch(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    given = {
        field: getattr(args, dest)
        for dest, field in _OVERRIDES.items()
        if getattr(args, dest, None) is not None
    }
    if getattr(args, "horizon", None) is not None:
        given["integration"] = dataclasses.replace(cfg.integration, horizon=args.horizon)
    cfg = dataclasses.replace(cfg, **given)
    # r0 and calibrate take no --out: their summary always goes to stdout
    _emit(args.run(cfg, args), cfg.out if "out" in args else None)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, DomainError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2


def console_main() -> None:
    raise SystemExit(main())
