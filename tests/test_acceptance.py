"""Acceptance gate: the nine release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is computed at its stated tolerance; the assert carries
the measured numbers so a failure is self-explanatory.
"""

import numpy as np
from conftest import random_params, single_group_params, spectral_radius, two_group_params

from diffusim import (
    FULL,
    PAPER_LITERAL,
    ContinuousState,
    DiscreteState,
    IntegrationConfig,
    LogisticConfig,
    ModelParams,
    build_decomposition,
    calibrate_alpha,
    disease_free_equilibrium,
    event_probabilities,
    exact_propagation,
    extinction_time_stochastic,
    integrate,
    max_stable_dt,
    monte_carlo_mean,
    ode_rhs,
    r0_rank_one,
)
from diffusim.cli import main


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def seeded_near_rest(params: ModelParams, fraction: float = 0.01) -> ContinuousState:
    eq = disease_free_equilibrium(params)
    a0 = fraction * eq.s_star
    return ContinuousState(t=0.0, s=eq.s_star - a0, a=a0, dd=eq.d_star)


def test_criterion_1_r0_routes_agree():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(100):
        p = random_params(rng, int(rng.choice([1, 2, 3, 5])))
        dec = build_decomposition(p)
        closed = r0_rank_one(p)
        powered = spectral_radius(dec.f @ np.linalg.inv(dec.v))
        eig = float(np.max(np.abs(np.linalg.eigvals(dec.k))))
        worst = max(worst, abs(closed - powered), abs(closed - eig))
    ok = worst < 1e-10
    assert report(1, ok, f"closed form vs spectral radius vs eig oracle on 100 draws, max gap {worst:.3e}"), worst


def test_criterion_2_rest_point_is_stationary():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        p = random_params(rng, int(rng.integers(1, 6)))
        eq = disease_free_equilibrium(p)
        st = ContinuousState(t=0.0, s=eq.s_star, a=eq.a_star, dd=eq.d_star)
        ds, da, ddd = ode_rhs(p, st)
        worst = max(worst, float(np.abs(np.concatenate([ds, da, ddd])).max()))

    # independent oracle for the demo rates: solve the a = 0 linear
    # system directly and compare with the closed form (1/6, 0, 5/6)
    p = two_group_params()
    eq = disease_free_equilibrium(p)
    gap = 0.0
    for i in range(p.m):
        mat = np.array([
            [-(p.d[i] + p.rho[i]), p.delta[i]],
            [p.rho[i], -(p.d[i] + p.delta[i])],
        ])
        s_ref, d_ref = np.linalg.solve(mat, np.array([-p.b[i], 0.0]))
        gap = max(gap, abs(s_ref - eq.s_star[i]), abs(d_ref - eq.d_star[i]),
                  abs(eq.s_star[i] - 1.0 / 6.0), abs(eq.d_star[i] - 5.0 / 6.0))
    ok = worst < 1e-10 and gap < 1e-12
    assert report(2, ok, f"flow at the rest point < 1e-10 on 100 draws (max {worst:.3e}), demo rest point (1/6, 0, 5/6) vs linear solve (gap {gap:.3e})"), (worst, gap)


def test_criterion_3_threshold_dichotomy():
    base = two_group_params()
    cfg = IntegrationConfig(step=0.05, horizon=2000.0, sample_every=1.0)
    decay_ok = {}
    for target in (0.5, 0.9):
        p = base.with_alpha(calibrate_alpha(base, target))
        traj = integrate(p, seeded_near_rest(p), cfg)
        decay_ok[target] = float(traj.total_active()[-1])
    grow_ok = {}
    for target in (1.1, 1.4, 2.3):
        p = base.with_alpha(calibrate_alpha(base, target))
        traj = integrate(p, seeded_near_rest(p), cfg)
        total = traj.total_active()
        exceeds = total > total[0]
        if not exceeds.any():
            grow_ok[target] = False
            continue
        first = int(np.argmax(exceeds))
        # departs upward: no strict decline before it first tops the seed
        grow_ok[target] = bool(np.all(np.diff(total[: first + 1]) >= -1e-12))
    ok = all(v < 1e-3 for v in decay_ok.values()) and all(grow_ok.values())
    assert report(3, ok, f"subcritical final activity {decay_ok}, supercritical departs upward {grow_ok}"), (decay_ok, grow_ok)


def test_criterion_4_ensemble_matches_exact_law():
    p = single_group_params()
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    dt, n_steps, n_reps = 0.05, 50, 100_000
    ex = exact_propagation(p, init, dt, n_steps)
    s_vals = ex.states[:, 0].astype(float)
    a_vals = ex.states[:, 1].astype(float)
    d_vals = 20.0 - s_vals - a_vals
    probs = np.stack([exact_propagation(p, init, dt, k).final_p
                      for k in range(n_steps + 1)])

    mc = monte_carlo_mean(p, init, dt, n_steps * dt, PAPER_LITERAL,
                          n_replicas=n_reps, seed=424242, sample_every=dt)
    worst_z = 0.0
    for vals, mean_series, got in (
        (s_vals, ex.e_s, mc.s[:, 0]),
        (a_vals, ex.e_a, mc.a[:, 0]),
        (d_vals, ex.e_d, mc.dd[:, 0]),
    ):
        var = np.maximum(probs @ vals ** 2 - (probs @ vals) ** 2, 0.0)
        se = np.sqrt(var / n_reps)
        diff = np.abs(np.asarray(got) - np.asarray(mean_series))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, diff / se, np.where(diff > 1e-12, np.inf, 0.0))
        worst_z = max(worst_z, float(z.max()))
    ok = worst_z < 3.0
    assert report(4, ok, f"ensemble of {n_reps} vs exact law over {n_steps} steps, max |z| {worst_z:.2f} (< 3)"), worst_z


def test_criterion_5_ensemble_tracks_the_mean_field():
    rates = two_group_params()
    p = ModelParams(m=2, n_total=500.0, alpha=calibrate_alpha(rates, 1.4),
                    b=rates.b, d=rates.d, rho=rates.rho, delta=rates.delta,
                    phi=rates.phi, eps=rates.eps, gamma=rates.gamma)
    s0 = np.array([150.0, 210.0])
    a0 = np.array([100.0, 40.0])
    d0 = np.zeros(2)
    ode = integrate(p, ContinuousState(t=0.0, s=s0, a=a0, dd=d0),
                    IntegrationConfig(step=0.005, horizon=40.0, sample_every=0.5))
    mc = monte_carlo_mean(p, DiscreteState(s=s0, a=a0, dd=d0), 5e-5, 40.0, FULL,
                          n_replicas=64, seed=20240801, sample_every=0.5)
    ode_all = np.hstack([ode.s, ode.a, ode.dd])
    mc_all = np.hstack([mc.s, mc.a, mc.dd])
    rel = float(np.abs(mc_all - ode_all).max() / np.abs(ode_all).max())

    total = ode.total_active()
    k = int(np.argmax(total))
    unimodal = (0 < k < total.shape[0] - 1
                and bool(np.all(np.diff(total[: k + 1]) > 0))
                and bool(np.all(np.diff(total[k:]) < 0)))
    d_first = float(ode.dd.sum(axis=1)[0])
    d_last = float(ode.dd.sum(axis=1)[-1])
    final = ContinuousState(t=40.0, s=ode.s[-1], a=ode.a[-1], dd=ode.dd[-1])
    _, _, ddd = ode_rhs(p, final)
    d_slope = float(np.abs(ddd).max())
    flat = d_slope < 0.01 * float(np.abs(ode.dd[-1]).max())
    ok = rel < 0.10 and unimodal and d_last > d_first and flat
    assert report(5, ok, f"relative gap {rel:.4f} (< 0.10), one interior activity peak {unimodal}, D {d_first:.1f} -> {d_last:.1f} with |dD/dt| {d_slope:.3f} at the horizon"), (rel, unimodal, d_first, d_last, d_slope)


def feasible_epoch(params: ModelParams, pop_cap: float) -> float:
    """0.9 over a rate bound for all states with population <= pop_cap."""
    act = params.alpha * float(params.eps.max()) * float(params.gamma.max()) \
        * (pop_cap / 2.0) ** 2 / params.n_total
    lin = pop_cap * (float((params.rho + params.d).max())
                     + float((params.phi + params.d).max())
                     + float((params.delta + params.d).max()))
    births = float(params.b.sum())
    return 0.9 / (act + lin + births)


def test_criterion_6_extinction_time_rises_with_r0():
    rates = two_group_params()
    p90 = ModelParams(m=2, n_total=90.0, alpha=1.0, b=rates.b, d=rates.d,
                      rho=rates.rho, delta=rates.delta, phi=rates.phi,
                      eps=rates.eps, gamma=rates.gamma)
    init = DiscreteState(s=np.array([27, 38]), a=np.array([18, 7]), dd=np.zeros(2))
    means = []
    censored = []
    for target in (1.2, 2.3, 4.9):
        p = p90.with_alpha(calibrate_alpha(p90, target))
        dt = feasible_epoch(p, 95.0)
        summary = extinction_time_stochastic(p, init, dt, 1500.0, FULL,
                                             n_replicas=512, seed=20240801)
        means.append(summary.mean)
        censored.append(summary.n_censored)
    ok = (all(m is not None for m in means)
          and means[0] < means[1] < means[2]
          and all(c == 0 for c in censored))
    shown = [round(m, 1) if m is not None else None for m in means]
    assert report(6, ok, f"mean extinction times {shown} strictly increasing over R0 grid (1.2, 2.3, 4.9), censored {censored}"), (means, censored)


def test_criterion_7_capacity_lifts_activity_peaks():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.4))
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    peaks = {}
    for cap in (100.0, 200.0):
        lg = LogisticConfig(enabled=True, growth_rate=1.0, capacity=cap)
        mc = monte_carlo_mean(p, init, 2.5e-4, 20.0, FULL, n_replicas=128,
                              seed=777, sample_every=0.25, logistic=lg)
        peaks[cap] = mc.a.max(axis=0)
    trend = bool(np.all(peaks[200.0] >= peaks[100.0]))

    quiet = base.with_alpha(0.0)
    lg = LogisticConfig(enabled=True, growth_rate=1.0, capacity=200.0)
    st = ContinuousState(t=0.0, s=np.array([30.0, 42.0]), a=np.array([20.0, 8.0]),
                         dd=np.zeros(2))
    traj = integrate(quiet, st, IntegrationConfig(step=0.005, horizon=10.0, sample_every=0.5),
                     logistic=lg)
    total = traj.s.sum(axis=1) + traj.a.sum(axis=1) + traj.dd.sum(axis=1)
    expected = 200.0 / (1.0 + (200.0 / 100.0 - 1.0) * np.exp(-1.0 * traj.times))
    rel = float(np.max(np.abs(total - expected) / expected))
    ok = trend and rel < 1e-4
    assert report(7, ok, f"peak activity per group {np.round(peaks[100.0], 1)} -> {np.round(peaks[200.0], 1)} as capacity doubles, frozen-activation population within {rel:.2e} of the logistic curve"), (peaks, rel)


def test_criterion_8_probabilities_stay_sane_at_the_bound():
    rng = np.random.default_rng(987654321)
    tables = 0
    violations = 0
    for k in range(100):
        m = int(rng.choice([1, 2, 3, 5]))
        p = random_params(rng, m)
        n_ref = int(rng.integers(10, 300))
        p = ModelParams(m=m, n_total=float(n_ref), alpha=p.alpha, b=p.b, d=p.d,
                        rho=p.rho, delta=p.delta, phi=p.phi, eps=p.eps, gamma=p.gamma)
        mode = PAPER_LITERAL if k % 2 == 0 else FULL
        dt = max_stable_dt(p, n_ref)
        for _ in range(100):
            if mode == PAPER_LITERAL:
                cells = rng.multinomial(n_ref, np.ones(3 * m) / (3.0 * m))
            else:
                cells = rng.integers(0, n_ref + 1, 3 * m)
            st = DiscreteState(s=cells[:m], a=cells[m:2 * m], dd=cells[2 * m:])
            table = event_probabilities(p, st, dt, mode)
            vals = [float(v) for v in table.probabilities.values()]
            tables += 1
            # the table defines no_event as one minus the ordered sum of the
            # event entries, so summing in that same order must give 1 exactly
            if not (all(0.0 <= v <= 1.0 for v in vals) and sum(vals) == 1.0):
                violations += 1

    ex = exact_propagation(single_group_params(),
                           DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5])),
                           0.05, 50)
    drift = float(np.abs(ex.mass - 1.0).max())
    ok = violations == 0 and drift <= 1e-12
    assert report(8, ok, f"{tables} random tables at the stability bound, {violations} violations, exact-law mass drift {drift:.2e}"), (violations, drift)


def test_criterion_9_identical_runs_write_identical_bytes(tmp_path, capsys):
    argv = ["run-dtmc", "--config", "table2", "--horizon", "5",
            "--replicas", "300", "--seed", "2024"]
    blobs = []
    for tag in ("a", "b", "c"):
        path = tmp_path / f"{tag}.csv"
        code = main(argv + ["--out", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2]
    with capsys.disabled():
        assert report(9, ok, f"three identical-seed runs wrote {len(blobs[0])} identical bytes: {ok}"), ok
