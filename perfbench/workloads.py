"""The three benchmark workloads: inputs from a seed, one pass, oracles.

Each workload has three parts:

* ``prepare(seed, ctx)`` generates the scenario files from the seed,
  parses them and calibrates. It is the timed set-up.
* ``run_pass(inp, ctx)`` is one timed pass. It returns every output of
  the pass in a dict that :func:`digest` hashes.
* ``check(inp, out, ctx)`` holds the oracles. They hold for every seed.
  Each one is a ``(name, ok, detail)`` row.

Sizes are fixed per workload, and the seed moves only values, never the
amount of work. Chain epochs depend on dt and the horizon, RK4 steps on
step and horizon, and kernel states on N, so pass times stay comparable
across seeds. The ``smoke`` sizes are tiny and check the harness itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
from pathlib import Path

import numpy as np

SIZES = {
    "chain_sparse": {
        "full": dict(
            dtmc_n=100, dtmc_horizon=0.5, dtmc_sample=0.05, dtmc_replicas=200,
            ext_n=12, ext_horizon=10.0, ext_sample=0.5, ext_replicas=64, r0_grid=(1.2, 2.3, 4.9),
            log_dt=2.5e-4, log_horizon=0.25, log_sample=0.05, log_replicas=128, capacity=200.0,
            frozen_step=0.01, frozen_horizon=2.0, replica_horizon=0.5,
        ),
        "smoke": dict(
            dtmc_n=100, dtmc_horizon=0.05, dtmc_sample=0.05, dtmc_replicas=8,
            ext_n=12, ext_horizon=0.5, ext_sample=0.5, ext_replicas=8, r0_grid=(1.2, 2.3, 4.9),
            log_dt=2.5e-4, log_horizon=0.05, log_sample=0.05, log_replicas=4, capacity=200.0,
            frozen_step=0.01, frozen_horizon=0.5, replica_horizon=0.05,
        ),
    },
    "small_exact": {
        "full": dict(
            n=20, dt=0.05, steps=20, cli_replicas=256, wide_replicas=20000,
            split_n=32, split_steps=200, event_replicas=16, z_bound=6.0,
        ),
        "smoke": dict(
            n=20, dt=0.05, steps=4, cli_replicas=32, wide_replicas=256,
            split_n=8, split_steps=8, event_replicas=2, z_bound=6.0,
        ),
    },
    "mean_field": {
        "full": dict(
            ode_step=0.05, ode_horizon=60.0, sweep_step=0.1, sweep_horizon=12.0,
            k_grid=(60.0, 100.0, 200.0), r0_grid=(0.5, 0.9, 1.4, 2.3), grid_step=0.1,
            grid_horizon=100.0, endemic_r0=(1.4, 2.3, 4.9), draws=40,
        ),
        "smoke": dict(
            ode_step=0.05, ode_horizon=2.0, sweep_step=0.1, sweep_horizon=1.0,
            k_grid=(60.0, 100.0, 200.0), r0_grid=(0.5, 0.9, 1.4, 2.3), grid_step=0.1,
            grid_horizon=100.0, endemic_r0=(1.4, 2.3, 4.9), draws=4,
        ),
    },
}


class LegCounter:
    """Leg recorder for untraced passes: counts legs, records no time."""

    def __init__(self):
        self.entered = 0

    def leg(self, name: str):
        self.entered += 1
        return contextlib.nullcontext()


@dataclasses.dataclass
class Context:
    """What a pass needs besides its inputs: the modules and a leg recorder."""

    diffusim: object
    cli: object
    legs: object
    out_dir: Path
    size: dict


# -- helpers -----------------------------------------------------------------


def _fmt(value) -> str:
    return repr(float(value))


def _vec(values) -> str:
    return ", ".join(_fmt(v) for v in np.atleast_1d(values))


def scenario_text(params, s0, a0, d0, extra: dict) -> str:
    """Scenario file text for ``params`` plus run keys (``extra``)."""
    lines = [f"m = {params.m}", f"n_total = {_fmt(params.n_total)}", f"alpha = {_fmt(params.alpha)}"]
    for name in ("b", "d", "rho", "delta", "phi", "eps", "gamma"):
        lines.append(f"{name} = {_vec(getattr(params, name))}")
    lines += [f"s0 = {_vec(s0)}", f"a0 = {_vec(a0)}", f"d0 = {_vec(d0)}"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def _write_scenario(ctx: Context, name: str, text: str) -> str:
    path = ctx.out_dir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(ctx: Context, argv: list[str]) -> None:
    # the CLI reports "wrote <path>" on stdout, which is the benchmark's
    with contextlib.redirect_stdout(io.StringIO()):
        code = ctx.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"diffusim {' '.join(argv)} exited with {code}")


@contextlib.contextmanager
def capture(owner, attr: str):
    """Collect the return values of ``owner.attr`` while the block runs."""
    original = getattr(owner, attr)
    got: list = []

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        got.append(result)
        return result

    setattr(owner, attr, recorder)
    try:
        yield got
    finally:
        setattr(owner, attr, original)


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(b"b%d:" % len(value))
        h.update(value)
    elif isinstance(value, str):
        _feed(h, value.encode())
    elif isinstance(value, (bool, int, float, np.floating, np.integer)) or value is None:
        h.update(repr(value).encode())
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"{%d" % len(value))
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _feed(h, getattr(value, field.name))
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(outputs: dict) -> str:
    """SHA-256 over every CSV and array a pass produced."""
    h = hashlib.sha256()
    _feed(h, outputs)
    return h.hexdigest()


def _read_csv(blob: bytes) -> tuple[list[str], np.ndarray]:
    lines = blob.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) if cell else math.nan for cell in line.split(",")] for line in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _table_csv(table) -> str:
    return "\n".join([table.csv_header(), *table.csv_rows()]) + "\n"


def _check_table(name: str, times, values, n_rows: int) -> tuple[str, bool, str]:
    """Rows as expected, times strictly increasing, every count finite and >= 0."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    ok = (
        times.shape[0] == n_rows
        and bool(np.all(np.diff(times) > 0))
        and bool(np.all(np.isfinite(values)))
        and bool(np.all(values >= 0))
    )
    low = float(values.min()) if values.size else math.nan
    return (name, ok, f"{times.shape[0]} rows (want {n_rows}), min value {low:.6g}")


def _check_replica_steps(name: str, table, init, total: float | None) -> tuple[str, bool, str]:
    """A per-epoch trajectory: starts at init, moves at most one head per epoch."""
    rows = np.hstack([table.s, table.a, table.dd])
    start = np.concatenate([init.s, init.a, init.dd]).astype(float)
    jumps = np.abs(np.diff(rows, axis=0)).sum(axis=1) if rows.shape[0] > 1 else np.zeros(0)
    ok = bool(np.array_equal(rows[0], start)) and bool(np.all(rows >= 0)) and bool(np.all(jumps <= 2))
    detail = f"{rows.shape[0]} rows, largest one-epoch move {float(jumps.max(initial=0.0)):g}"
    if total is not None:
        sums = rows.sum(axis=1)
        ok = ok and bool(np.all(sums == total))
        detail += f", population {float(sums.min()):g}..{float(sums.max()):g} (want {total:g})"
    return (name, ok, detail)


def _exact_moments(probs: np.ndarray, states: np.ndarray, n: int):
    """Exact mean and variance of S, A and D at every step."""
    s_vals = states[:, 0].astype(float)
    a_vals = states[:, 1].astype(float)
    d_vals = n - s_vals - a_vals
    out = []
    for vals in (s_vals, a_vals, d_vals):
        mean = probs @ vals
        var = np.maximum(probs @ vals**2 - mean**2, 0.0)
        out.append((mean, var))
    return out


def _max_z(moments, got: list[np.ndarray], n_reps: int) -> float:
    worst = 0.0
    for (mean, var), series in zip(moments, got):
        se = np.sqrt(var / n_reps)
        diff = np.abs(np.asarray(series, dtype=float) - mean)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, diff / se, np.where(diff > 1e-9, np.inf, 0.0))
        worst = max(worst, float(z.max()))
    return worst


# -- chain_sparse --------------------------------------------------------------


def prepare_chain_sparse(seed: int, ctx: Context) -> dict:
    D, z = ctx.diffusim, ctx.size
    rng = np.random.default_rng([seed, 1])
    rates = D.load_config("table2").params

    n = z["dtmc_n"]
    a_tot = int(rng.integers(20, 31))
    a0 = rng.multinomial(a_tot, [0.5, 0.5])
    s0 = rng.multinomial(n - a_tot, [0.4, 0.6])
    d0 = np.zeros(2, dtype=int)
    chain = dataclasses.replace(rates, n_total=float(n))
    dtmc_path = _write_scenario(ctx, "chain_sparse_dtmc.cfg", scenario_text(chain, s0, a0, d0, {
        "horizon": _fmt(z["dtmc_horizon"]), "sample_every": _fmt(z["dtmc_sample"]),
        "n_replicas": z["dtmc_replicas"], "mode": "full", "seed": int(rng.integers(0, 2**31)),
        "target_r0": "1.4",
    }))

    ext_n = z["ext_n"]
    a_ext = np.zeros(2, dtype=int)
    a_ext[int(rng.integers(0, 2))] = 1
    s_ext = rng.multinomial(ext_n - 1, [0.45, 0.55])
    ext = dataclasses.replace(rates, n_total=float(ext_n))
    ext_path = _write_scenario(ctx, "chain_sparse_extinction.cfg", scenario_text(ext, s_ext, a_ext, d0, {
        "horizon": _fmt(z["ext_horizon"]), "sample_every": _fmt(z["ext_sample"]),
        "n_replicas": z["ext_replicas"], "mode": "full", "seed": int(rng.integers(0, 2**31)),
    }))

    cfg = D.load_config(dtmc_path)
    D.load_config(ext_path)
    tuned = cfg.params.with_alpha(D.calibrate_alpha(cfg.params, cfg.target_r0))
    init = cfg.discrete_init()
    return {
        "dtmc_path": dtmc_path,
        "ext_path": ext_path,
        "dtmc_csv": str(ctx.out_dir / "chain_sparse_dtmc.csv"),
        "ext_csv": str(ctx.out_dir / "chain_sparse_extinction.csv"),
        "tuned": tuned,
        "init": init,
        "init_c": cfg.continuous_init(),
        "replica_dt": D.max_stable_dt(tuned, n),
        "replica_seed": D.derive_replica_seed(cfg.seed, 0),
        "logistic": D.LogisticConfig(enabled=True, growth_rate=1.0, capacity=z["capacity"]),
        "logistic_seed": int(rng.integers(0, 2**31)),
    }


def run_chain_sparse(inp: dict, ctx: Context) -> dict:
    D, cli, z, legs = ctx.diffusim, ctx.cli, ctx.size, ctx.legs
    out: dict = {}
    with legs.leg("run_dtmc"):
        _cli(ctx, ["run-dtmc", "--config", inp["dtmc_path"], "--out", inp["dtmc_csv"]])
        out["dtmc_csv"] = Path(inp["dtmc_csv"]).read_bytes()
    with legs.leg("extinction_sweep"), capture(cli, "extinction_time_stochastic") as got:
        grid = ",".join(repr(r) for r in z["r0_grid"])
        _cli(ctx, ["extinction-sweep", "--config", inp["ext_path"], "--r0-grid", grid, "--out", inp["ext_csv"]])
        out["ext_csv"] = Path(inp["ext_csv"]).read_bytes()
        out["ext_summaries"] = list(got)
    with legs.leg("replica_events"):
        out["replica"] = D.simulate_replica(
            inp["tuned"], inp["init"], inp["replica_dt"], z["replica_horizon"], D.FULL,
            seed=inp["replica_seed"],
        )
    with legs.leg("logistic_chain"):
        mc = D.monte_carlo_mean(
            inp["tuned"], inp["init"], z["log_dt"], z["log_horizon"], D.FULL,
            n_replicas=z["log_replicas"], seed=inp["logistic_seed"],
            sample_every=z["log_sample"], logistic=inp["logistic"],
        )
        out["logistic_chain"] = mc
        out["logistic_chain_csv"] = _table_csv(mc)
    with legs.leg("frozen_pair"):
        quiet = inp["tuned"].with_alpha(0.0)
        cfg = D.IntegrationConfig(step=z["frozen_step"], horizon=z["frozen_horizon"], sample_every=0.5)
        out["frozen_logistic"] = D.integrate(quiet, inp["init_c"], cfg, logistic=inp["logistic"])
        out["frozen_constant"] = D.integrate(quiet, inp["init_c"], cfg)
    return out


def check_chain_sparse(inp: dict, out: dict, ctx: Context) -> list:
    z = ctx.size
    rows = []
    header, table = _read_csv(out["dtmc_csv"])
    n_rows = int(math.floor(z["dtmc_horizon"] / z["dtmc_sample"] + 1e-9)) + 1
    rows.append(_check_table("run_dtmc csv", table[:, 0], table[:, 1:], n_rows))
    rows.append(("run_dtmc columns", len(header) == 13, f"{len(header)} columns"))

    header, table = _read_csv(out["ext_csv"])
    summaries = out["ext_summaries"]
    reps = z["ext_replicas"]
    horizon = z["ext_horizon"]
    grid_ok = table.shape[0] == len(z["r0_grid"]) and np.allclose(table[:, 0], z["r0_grid"])
    rows.append(("extinction rows", bool(grid_ok) and len(summaries) == table.shape[0],
                 f"{table.shape[0]} csv rows, {len(summaries)} summaries"))
    for k, summary in enumerate(summaries):
        times = summary.times
        done = times[np.isfinite(times)]
        n_extinct, n_censored = int(table[k, 4]), int(table[k, 5])
        ok = (
            n_extinct + n_censored == reps
            and times.shape[0] == reps
            and n_censored == summary.n_censored == int(np.isnan(times).sum())
            and bool(np.all(done >= 0))
            and bool(np.all(done <= horizon))
        )
        rows.append((f"extinction r0={z['r0_grid'][k]}", ok,
                     f"{n_extinct} extinct + {n_censored} censored of {reps}, "
                     f"latest extinction {float(done.max(initial=0.0)):.6g} <= horizon {horizon:g}"))

    rows.append(_check_replica_steps("replica per-epoch moves", out["replica"], inp["init"], None))

    mc = out["logistic_chain"]
    n_rows = int(math.floor(z["log_horizon"] / z["log_sample"] + 1e-9)) + 1
    spread = np.hstack([mc.sd_s, mc.sd_a, mc.sd_dd])
    rows.append(_check_table("logistic chain", mc.times, np.hstack([mc.s, mc.a, mc.dd, spread]), n_rows))

    # frozen activation: the population follows closed forms up to RK4 error
    lg = inp["logistic"]
    init = inp["init_c"]
    params = inp["tuned"]
    traj = out["frozen_logistic"]
    total = traj.s.sum(axis=1) + traj.a.sum(axis=1) + traj.dd.sum(axis=1)
    n0 = init.total()
    curve = lg.capacity / (1.0 + (lg.capacity / n0 - 1.0) * np.exp(-lg.growth_rate * traj.times))
    rel = float(np.max(np.abs(total - curve) / curve))
    rows.append(("frozen logistic curve", rel < 1e-6, f"max relative gap {rel:.3e} (< 1e-6)"))
    traj = out["frozen_constant"]
    groups = traj.s + traj.a + traj.dd
    n_i = init.s + init.a + init.dd
    rest = params.b / params.d
    curve = rest + (n_i - rest) * np.exp(-np.outer(traj.times, params.d))
    rel = float(np.max(np.abs(groups - curve) / curve))
    rows.append(("frozen constant curve", rel < 1e-6, f"max relative gap {rel:.3e} (< 1e-6)"))
    return rows


# -- small_exact ---------------------------------------------------------------


def _single_group(D, n: float, alpha: float):
    return D.ModelParams(m=1, n_total=float(n), alpha=alpha, b=0.0, d=0.02, rho=0.2,
                         delta=0.03, phi=0.03, eps=0.5, gamma=0.5)


def prepare_small_exact(seed: int, ctx: Context) -> dict:
    D, z = ctx.diffusim, ctx.size
    rng = np.random.default_rng([seed, 2])
    n = z["n"]
    alpha = float(rng.uniform(1.5, 2.5))
    s0 = int(rng.integers(6, 13))
    a0 = int(rng.integers(3, 8))
    d0 = n - s0 - a0
    run_keys = {
        "dt": _fmt(z["dt"]), "horizon": _fmt(z["steps"] * z["dt"]), "sample_every": _fmt(z["dt"]),
        "n_replicas": z["cli_replicas"], "mode": "paper_literal", "seed": int(rng.integers(0, 2**31)),
    }
    path = _write_scenario(ctx, "small_exact.cfg",
                           scenario_text(_single_group(D, n, alpha), [s0], [a0], [d0], run_keys))
    scale = z["split_n"] / n
    s_big, a_big = int(round(s0 * scale)), int(round(a0 * scale))
    split_path = _write_scenario(ctx, "small_exact_split.cfg", scenario_text(
        _single_group(D, z["split_n"], alpha), [s_big], [a_big], [z["split_n"] - s_big - a_big],
        dict(run_keys, n_replicas=1)))
    cfg = D.load_config(path)
    split = D.load_config(split_path)
    return {
        "path": path,
        "csv": str(ctx.out_dir / "small_exact_dtmc.csv"),
        "params": cfg.params,
        "init": cfg.discrete_init(),
        "split_params": split.params,
        "split_init": split.discrete_init(),
        "wide_seed": int(rng.integers(0, 2**31)),
        "event_seed": int(rng.integers(0, 2**31)),
    }


def run_small_exact(inp: dict, ctx: Context) -> dict:
    D, z, legs = ctx.diffusim, ctx.size, ctx.legs
    dt, steps = z["dt"], z["steps"]
    p, init = inp["params"], inp["init"]
    out: dict = {}
    with legs.leg("cli_run_dtmc"):
        _cli(ctx, ["run-dtmc", "--config", inp["path"], "--out", inp["csv"]])
        out["cli_csv"] = Path(inp["csv"]).read_bytes()
    with legs.leg("exact_every_step"):
        laws = [D.exact_propagation(p, init, dt, k) for k in range(steps + 1)]
        out["exact"] = laws[-1]
        out["exact_probs"] = np.stack([law.final_p for law in laws])
        out["exact_mass"] = np.array([law.mass[-1] for law in laws])
    with legs.leg("wide_ensemble"):
        mc = D.monte_carlo_mean(p, init, dt, steps * dt, D.PAPER_LITERAL,
                                n_replicas=z["wide_replicas"], seed=inp["wide_seed"], sample_every=dt)
        out["wide"] = mc
        out["wide_csv"] = _table_csv(mc)
    with legs.leg("exact_split"):
        out["split_build"] = D.exact_propagation(inp["split_params"], inp["split_init"], dt, 0)
        out["split_full"] = D.exact_propagation(inp["split_params"], inp["split_init"], dt, z["split_steps"])
    with legs.leg("replica_events"):
        out["replicas"] = [
            D.simulate_replica(p, init, dt, steps * dt, D.PAPER_LITERAL,
                               seed=D.derive_replica_seed(inp["event_seed"], r))
            for r in range(z["event_replicas"])
        ]
    return out


def check_small_exact(inp: dict, out: dict, ctx: Context) -> list:
    z = ctx.size
    n = z["n"]
    rows = []
    ex = out["exact"]
    probs = out["exact_probs"]
    moments = _exact_moments(probs, ex.states, n)

    drift = max(float(np.abs(law.mass - 1.0).max())
                for law in (ex, out["split_build"], out["split_full"]))
    drift = max(drift, float(np.abs(out["exact_mass"] - 1.0).max()))
    rows.append(("exact mass drift", drift <= 1e-12, f"max |mass - 1| {drift:.2e} (<= 1e-12)"))
    gap = max(float(np.abs(moments[0][0] - ex.e_s).max()), float(np.abs(moments[1][0] - ex.e_a).max()))
    rows.append(("exact per-step laws agree", gap <= 1e-12, f"max gap in E[S], E[A] {gap:.2e}"))

    header, table = _read_csv(out["cli_csv"])
    rows.append(_check_table("cli run_dtmc csv", table[:, 0], table[:, 1:], z["steps"] + 1))
    worst = _max_z(moments, [table[:, 1], table[:, 2], table[:, 3]], z["cli_replicas"])
    rows.append(("cli ensemble vs exact law", worst < z["z_bound"],
                 f"{z['cli_replicas']} replicas, max |z| {worst:.2f} (< {z['z_bound']:g})"))

    mc = out["wide"]
    spread = np.hstack([mc.sd_s, mc.sd_a, mc.sd_dd])
    rows.append(_check_table("wide ensemble", mc.times, np.hstack([mc.s, mc.a, mc.dd, spread]), z["steps"] + 1))
    worst = _max_z(moments, [mc.s[:, 0], mc.a[:, 0], mc.dd[:, 0]], z["wide_replicas"])
    rows.append(("wide ensemble vs exact law", worst < z["z_bound"],
                 f"{z['wide_replicas']} replicas, max |z| {worst:.2f} (< {z['z_bound']:g})"))

    big = z["split_n"]
    build = out["split_build"]
    want_states = (big + 1) * (big + 2) // 2
    start = int(np.flatnonzero(build.final_p)[0]) if build.final_p.any() else -1
    point = build.final_p.sum() == 1.0 and int(np.count_nonzero(build.final_p)) == 1
    at_init = start >= 0 and tuple(build.states[start]) == (int(inp["split_init"].s[0]), int(inp["split_init"].a[0]))
    rows.append(("exact split kernel", build.states.shape[0] == want_states and point and at_init,
                 f"{build.states.shape[0]} states (want {want_states}), n_steps=0 gives the point mass at init"))

    for r, replica in enumerate(out["replicas"]):
        rows.append(_check_replica_steps(f"replica {r} per-epoch moves", replica, inp["init"], float(n)))
    return rows


# -- mean_field ----------------------------------------------------------------


def _random_params(D, rng, m: int):
    return D.ModelParams(
        m=m, n_total=float(rng.uniform(50.0, 500.0)), alpha=float(rng.uniform(0.5, 5.0)),
        b=rng.uniform(0.005, 0.05, m), d=rng.uniform(0.005, 0.05, m),
        rho=rng.uniform(0.05, 0.3, m), delta=rng.uniform(0.01, 0.1, m),
        phi=rng.uniform(0.01, 0.1, m), eps=rng.uniform(0.1, 1.0, m), gamma=rng.uniform(0.1, 1.0, m),
    )


def _near_rest(D, params, fraction: float):
    eq = D.disease_free_equilibrium(params)
    a0 = fraction * eq.s_star
    return eq.s_star - a0, a0, eq.d_star


def prepare_mean_field(seed: int, ctx: Context) -> dict:
    D, z = ctx.diffusim, ctx.size
    rng = np.random.default_rng([seed, 3])
    rates = D.load_config("table2").params

    a_tot = int(rng.integers(20, 31))
    a0 = rng.multinomial(a_tot, [0.5, 0.5])
    s0 = rng.multinomial(100 - a_tot, [0.4, 0.6])
    d0 = np.zeros(2, dtype=int)
    ode_path = _write_scenario(ctx, "mean_field_ode.cfg", scenario_text(rates, s0, a0, d0, {
        "step": _fmt(z["ode_step"]), "horizon": _fmt(z["ode_horizon"]), "sample_every": "0.5",
        "target_r0": "1.4",
    }))
    sweep_path = _write_scenario(ctx, "mean_field_sweep.cfg", scenario_text(rates, s0, a0, d0, {
        "step": _fmt(z["sweep_step"]), "horizon": _fmt(z["sweep_horizon"]), "sample_every": "0.5",
        "target_r0": "1.4", "logistic.growth_rate": "1.0",
    }))
    grid_paths = [_write_scenario(ctx, "mean_field_grid.cfg", scenario_text(
        rates, *_near_rest(D, rates, float(rng.uniform(0.005, 0.02))), {}))]
    # n_total leaves room for eight groups' rest populations (b/d <= 10 each)
    wide = dataclasses.replace(_random_params(D, rng, 8), n_total=400.0)
    grid_paths.append(_write_scenario(ctx, "mean_field_grid_m8.cfg", scenario_text(
        wide, *_near_rest(D, wide, float(rng.uniform(0.005, 0.02))), {})))
    # faster turnover than table2, so the endemic search converges in a
    # few thousand RK4 steps
    fast = D.ModelParams(m=2, n_total=100.0, alpha=1.0, b=0.1, d=0.1, rho=0.3, delta=0.3,
                         phi=0.2, eps=rates.eps, gamma=rates.gamma)
    endemic_path = _write_scenario(ctx, "mean_field_endemic.cfg", scenario_text(
        fast, *_near_rest(D, fast, float(rng.uniform(0.05, 0.15))), {}))

    ode_cfg = D.load_config(ode_path)
    D.load_config(sweep_path)
    grid = [D.load_config(path) for path in grid_paths]
    endemic = D.load_config(endemic_path)
    draws = [_random_params(D, rng, int(rng.choice([1, 2, 3, 5]))) for _ in range(z["draws"])]
    return {
        "ode_path": ode_path,
        "sweep_path": sweep_path,
        "ode_csv": str(ctx.out_dir / "mean_field_ode.csv"),
        "sweep_csv": str(ctx.out_dir / "mean_field_sweep.csv"),
        "ode_cfg": ode_cfg,
        "grid": [(cfg.params, cfg.continuous_init()) for cfg in grid],
        "endemic": (endemic.params, endemic.continuous_init()),
        "draws": draws,
    }


def run_mean_field(inp: dict, ctx: Context) -> dict:
    D, z, legs = ctx.diffusim, ctx.size, ctx.legs
    out: dict = {}
    with legs.leg("run_ode"):
        _cli(ctx, ["run-ode", "--config", inp["ode_path"], "--out", inp["ode_csv"]])
        out["ode_csv"] = Path(inp["ode_csv"]).read_bytes()
    with legs.leg("logistic_sweep"):
        grid = ",".join(repr(k) for k in z["k_grid"])
        _cli(ctx, ["logistic-sweep", "--config", inp["sweep_path"], "--k-grid", grid, "--out", inp["sweep_csv"]])
        out["sweep_csv"] = Path(inp["sweep_csv"]).read_bytes()
    with legs.leg("r0_grid"):
        cfg = D.IntegrationConfig(step=z["grid_step"], horizon=z["grid_horizon"], sample_every=1.0)
        (base, seed_state), (wide, wide_state) = inp["grid"]
        runs = [(target, base, seed_state) for target in z["r0_grid"]] + [(2.3, wide, wide_state)]
        out["grid"] = []
        for target, params, state in runs:
            tuned = params.with_alpha(D.calibrate_alpha(params, target))
            out["grid"].append((target, tuned, D.integrate(tuned, state, cfg)))
    with legs.leg("endemic"):
        params, state = inp["endemic"]
        out["endemic"] = []
        for target in z["endemic_r0"]:
            tuned = params.with_alpha(D.calibrate_alpha(params, target))
            out["endemic"].append((tuned, D.endemic_equilibrium(tuned, state)))
    with legs.leg("r0_draws"):
        out["draws"] = [(D.build_decomposition(p).r0, D.r0_rank_one(p)) for p in inp["draws"]]
    with legs.leg("config_roundtrip"):
        text = D.render_config(inp["ode_cfg"])
        out["rendered"] = text
        out["reparsed"] = D.parse_config(text)
    return out


def check_mean_field(inp: dict, out: dict, ctx: Context) -> list:
    D, z = ctx.diffusim, ctx.size
    rows = []
    _, table = _read_csv(out["ode_csv"])
    n_rows = int(math.floor(z["ode_horizon"] / 0.5 + 1e-9)) + 1
    rows.append(_check_table("run_ode csv", table[:, 0], table[:, 1:], n_rows))

    _, table = _read_csv(out["sweep_csv"])
    ok = (
        table.shape[0] == len(z["k_grid"])
        and np.allclose(table[:, 0], z["k_grid"])
        and bool(np.all(table[:, 2:4] >= 0))
        and bool(np.all((table[:, 4:6] >= 0) & (table[:, 4:6] <= z["sweep_horizon"])))
    )
    rows.append(("logistic_sweep csv", bool(ok), f"{table.shape[0]} capacities, peaks >= 0, peak times in the horizon"))

    for target, tuned, traj in out["grid"]:
        achieved = D.r0_rank_one(tuned)
        total = traj.total_active()
        moved = total[-1] < total[0] if target < 1 else total.max() > total[0]
        ok = abs(achieved - target) <= 1e-12 * target and bool(moved)
        rows.append((f"r0 grid m={tuned.m} r0={target}", ok,
                     f"calibrated R0 {achieved!r}, activity {total[0]:.4g} -> {total[-1]:.4g} "
                     f"({'decays' if target < 1 else 'departs upward'})"))

    for tuned, eq in out["endemic"]:
        state = D.ContinuousState(t=0.0, s=eq.s_star, a=eq.a_star, dd=eq.d_star)
        residual = float(np.abs(np.concatenate(D.ode_rhs(tuned, state))).max())
        ok = eq.kind == "endemic" and residual < 1e-9 and bool(np.all(eq.a_star > 0))
        rows.append((f"endemic stationary alpha={tuned.alpha:.6g}", ok,
                     f"{eq.kind}, max |rhs| {residual:.2e} (< 1e-9)"))

    gap = max(abs(spectral - closed) for spectral, closed in out["draws"])
    rows.append(("r0 closed form vs spectral", gap <= 1e-10,
                 f"{len(out['draws'])} random draws, max gap {gap:.2e} (<= 1e-10)"))
    rows.append(("config round trip", out["reparsed"] == inp["ode_cfg"], "parse_config(render_config(cfg)) == cfg"))
    return rows


WORKLOADS = {
    "chain_sparse": (prepare_chain_sparse, run_chain_sparse, check_chain_sparse),
    "small_exact": (prepare_small_exact, run_small_exact, check_small_exact),
    "mean_field": (prepare_mean_field, run_mean_field, check_mean_field),
}
