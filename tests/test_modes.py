"""Both modes are one model: paper_literal is the full model on mapped rates.

``dtmc._mode_rates`` maps (params, mode) to the full model's rates:
paper_literal runs b = d = 0, phi + d and rho + d, and full is the
identity. The chain, the mean-field flow, R0 and the CLI all read the
mode through it, so the views agree in either mode.
"""

import dataclasses

import numpy as np
import pytest
from conftest import two_group_params

from diffusim import (
    FULL,
    PAPER_LITERAL,
    ContinuousState,
    DiscreteState,
    LogisticConfig,
    ModelParams,
    event_probabilities,
    extinction_time_stochastic,
    max_stable_dt,
    monte_carlo_mean,
    ode_rhs,
    simulate_replica,
)
from diffusim.cli import main
from diffusim.config import bundled_config
from diffusim.dtmc import _delta_tables, _Engine, _mode_rates
from diffusim.errors import DomainError
from diffusim.model import _kernel


def mapped(params: ModelParams, mode: str) -> ModelParams:
    return dataclasses.replace(params, **_mode_rates(params, mode))


def random_rates(rng: np.random.Generator, m: int, lo: float, hi: float, **fixed) -> ModelParams:
    n_total = fixed.pop("n_total", 100.0)
    draw = {name: rng.uniform(lo, hi, m) for name in ("b", "d", "rho", "delta", "phi", "eps", "gamma")}
    draw.update(fixed)
    return ModelParams(m=m, n_total=n_total, alpha=float(rng.uniform(lo, hi)), **draw)


# ------------------------------------------------------------------ the map


def test_full_is_the_identity_and_paper_literal_folds_deaths_into_d():
    p = two_group_params()
    full = _mode_rates(p, FULL)
    assert all(full[name] is getattr(p, name) for name in ("b", "d", "rho", "phi"))
    lit = _mode_rates(p, PAPER_LITERAL)
    np.testing.assert_array_equal(lit["b"], 0.0)
    np.testing.assert_array_equal(lit["d"], 0.0)
    np.testing.assert_array_equal(lit["rho"], p.rho + p.d)
    np.testing.assert_array_equal(lit["phi"], p.phi + p.d)
    with pytest.raises(DomainError, match="mode must be"):
        _mode_rates(p, "bogus")


def test_the_map_is_idempotent():
    rng = np.random.default_rng(71)
    for _ in range(50):
        p = random_rates(rng, int(rng.integers(1, 5)), 0.01, 1.0)
        once = mapped(p, PAPER_LITERAL)
        assert mapped(once, PAPER_LITERAL) == once
        assert mapped(once, FULL) == once


# --------------------------------------------------------------- the engine


def test_engine_rows_follow_the_rates_not_the_mode():
    p = two_group_params()
    closed = dataclasses.replace(p, b=0.0, d=0.0)
    logistic = LogisticConfig(enabled=True, growth_rate=0.5, capacity=100.0)
    assert _Engine(p, PAPER_LITERAL, 1e-3, None).n_events == 8
    assert _Engine(closed, FULL, 1e-3, None).n_events == 8
    assert _Engine(dataclasses.replace(p, b=0.0), FULL, 1e-3, None).n_events == 16
    assert _Engine(dataclasses.replace(p, d=0.0), FULL, 1e-3, None).n_events == 16
    assert _Engine(p, FULL, 1e-3, None).n_events == 16
    assert _Engine(closed, FULL, 1e-3, logistic).n_events == 16


def test_full_tables_keep_their_death_and_birth_entries_when_they_are_zero():
    p = dataclasses.replace(two_group_params(alpha=3.0), b=0.0, d=0.0)
    st = DiscreteState(s=[30, 42], a=[20, 8], dd=[0, 0])
    full = event_probabilities(p, st, 0.01, FULL)
    lit = event_probabilities(p, st, 0.01, PAPER_LITERAL)
    kinds = [ev.kind for ev in full.probabilities]
    assert kinds == [k for k in ("activate", "deactivate", "return", "withdraw", "death_s", "death_a",
                                 "death_d", "birth") for _ in range(2)] + ["no_event"]
    assert list(full.probabilities.values())[8:16] == [0.0] * 8
    assert list(lit.probabilities.values())[:8] == list(full.probabilities.values())[:8]
    assert full.no_event == lit.no_event


def test_paper_literal_still_refuses_logistic_coupling():
    p = ModelParams(m=1, n_total=20.0, alpha=1.0, b=0.0, d=0.02, rho=0.2, delta=0.03, phi=0.03,
                    eps=0.5, gamma=0.5)
    init = DiscreteState(s=[10], a=[5], dd=[5])
    logistic = LogisticConfig(enabled=True, growth_rate=0.5, capacity=20.0)
    with pytest.raises(DomainError, match="logistic coupling needs full mode"):
        simulate_replica(p, init, 0.01, 1.0, PAPER_LITERAL, logistic=logistic)
    with pytest.raises(DomainError, match="logistic coupling needs full mode"):
        extinction_time_stochastic(p, init, 0.01, 1.0, PAPER_LITERAL, n_replicas=2, logistic=logistic)


def test_paper_literal_is_full_on_the_mapped_rates_bit_for_bit():
    # the death and birth rows of the full engine on mapped rates would be
    # zeros at the end of the canonical order: they move neither T nor the
    # selected event, so every sample and every first passage is the same
    rng = np.random.default_rng(72)
    moved = 0
    for case in range(25):
        m = int(rng.integers(1, 4))
        counts = rng.multinomial(int(rng.integers(10, 41)), np.ones(3 * m) / (3 * m))
        counts[m] = max(counts[m], 1)  # some actives, so first passages have work to do
        init = DiscreteState(s=counts[:m], a=counts[m : 2 * m], dd=counts[2 * m :])
        p = random_rates(rng, m, 0.01, 1.0, n_total=float(init.total()))
        q = mapped(p, PAPER_LITERAL)
        dt = max_stable_dt(p, init.total())
        horizon = 60 * dt * int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2**63))
        a = monte_carlo_mean(p, init, dt, horizon, PAPER_LITERAL, n_replicas=50, seed=seed, sample_every=dt)
        b = monte_carlo_mean(q, init, dt, horizon, FULL, n_replicas=50, seed=seed, sample_every=dt)
        for name in ("times", "s", "a", "dd", "sd_s", "sd_a", "sd_dd"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=f"case {case}: {name}")
        moved += bool(np.any(a.sd_a > 0))
        a = extinction_time_stochastic(p, init, dt, 40 * horizon, PAPER_LITERAL, n_replicas=50, seed=seed)
        b = extinction_time_stochastic(q, init, dt, 40 * horizon, FULL, n_replicas=50, seed=seed)
        np.testing.assert_array_equal(a.times, b.times, err_msg=f"case {case}")
        assert (a.mean, a.spread, a.n_censored) == (b.mean, b.spread, b.n_censored)
    assert moved == 25  # every ensemble's replicas took different paths


# ------------------------------------------------- the chain's drift is the flow

# Each component is a sum of terms a few roundings from exact, so the gap
# is bounded by a few ulps of the summed term magnitudes
ULPS = 8


@pytest.mark.parametrize("mode, coupled", [(FULL, False), (PAPER_LITERAL, False), (FULL, True)],
                         ids=["full", "paper_literal", "full_logistic"])
def test_the_chains_drift_is_the_flow_on_the_mapped_rates(mode, coupled):
    rng = np.random.default_rng(73)
    dt = 1e-3
    for _ in range(300):
        m = int(rng.integers(1, 5))
        closed = rng.random() < 0.25  # b = d = 0, so full mode runs 4m rows
        p = random_rates(rng, m, 0.001, 1.0, n_total=float(rng.uniform(10.0, 500.0)),
                         **({"b": 0.0, "d": 0.0} if closed else {}))
        logistic = None
        if coupled:
            logistic = LogisticConfig(enabled=True, growth_rate=float(rng.uniform(0.01, 1.0)),
                                      capacity=float(rng.uniform(10.0, 500.0)))
        x = rng.integers(0, 200, 3 * m)
        x[m] += 1
        eng = _Engine(p, mode, dt, logistic)
        terms = eng.probabilities(x[None, :])[0] * _delta_tables(m, eng.n_events)[:, :-1] / dt
        drift = terms.sum(axis=1)
        q = mapped(p, mode)
        if coupled:
            rhs = np.array(_kernel(q, logistic)[0](*x.astype(float).tolist()))
        else:
            rhs = np.concatenate(ode_rhs(q, ContinuousState(t=0.0, s=x[:m], a=x[m : 2 * m], dd=x[2 * m :])))
        bound = ULPS * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(drift - rhs) <= bound), (p, x, drift - rhs, bound)


# ----------------------------------------------------- the CLI, one model


def paper_literal_table2(tmp_path, extra=""):
    path = tmp_path / "literal.cfg"
    path.write_text(bundled_config() + "mode = paper_literal\n" + extra, encoding="utf-8")
    return str(path)


def read_table(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_compare_under_paper_literal_holds_the_ode_groups_and_tracks_the_chain(tmp_path, capsys):
    # the ODE used to keep table2's births and deaths: ode_D_1 read 15.2
    # beside the chain's 41.5 at t = 100
    cfg = paper_literal_table2(tmp_path, "horizon = 100\nsample_every = 25\nn_replicas = 64\n")
    assert main(["compare", "--config", cfg]) == 0
    header, table = read_table(capsys.readouterr().out)
    ode, mc = table[:, 1:7], table[:, 7:13]
    # the CSV prints 9 significant digits
    np.testing.assert_allclose(ode[:, 0:2] + ode[:, 2:4] + ode[:, 4:6], 50.0, rtol=1e-8)
    assert header[5] == "ode_D_1" and abs(table[-1, 5] - 41.0) < 0.05
    rel = float(np.abs(mc - ode).max() / np.abs(ode).max())
    assert rel < 0.10, rel


def test_r0_and_calibrate_under_paper_literal_use_the_seed_totals(tmp_path, capsys):
    # R0 = sum_i eps_i gamma_i s*_i / (n_total (phi_i + d_i)) with
    # s*_i = 50 delta / (delta + rho + d) = 6.25: 0.58 * 6.25 / 4 = 0.90625
    cfg = paper_literal_table2(tmp_path)
    assert main(["r0", "--config", cfg]) == 0
    assert "R0 = 0.90625\n" in capsys.readouterr().out
    assert main(["calibrate", "--config", cfg, "--target-r0", "1.2"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 1.32413793\n" in out and "achieved_r0 = 1.2\n" in out


def test_a_full_mode_conserved_group_is_no_longer_refused(tmp_path, capsys):
    text = bundled_config().replace("b = 0.01, 0.01", "b = 0.01, 0").replace("d = 0.01, 0.01", "d = 0.01, 0")
    path = tmp_path / "conserved.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["calibrate", "--config", str(path), "--target-r0", "1.4"]) == 0
    assert "achieved_r0 = 1.4\n" in capsys.readouterr().out
