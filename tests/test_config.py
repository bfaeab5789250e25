"""Scenario file parsing, rendering, and the bundled scenario."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    FULL,
    PAPER_LITERAL,
    IntegrationConfig,
    LogisticConfig,
    ModelParams,
    ScenarioConfig,
    bundled_config,
    load_config,
    parse_config,
    render_config,
)
from diffusim.errors import ConfigError, DomainError

MINIMAL = """
m = 1
n_total = 20
s0 = 10
a0 = 5
d0 = 5
"""


def test_bundled_scenario_has_the_documented_values():
    cfg = parse_config(bundled_config("table2"))
    p = cfg.params
    assert p.m == 2 and p.n_total == 100.0 and p.alpha == 1.0
    np.testing.assert_array_equal(p.b, [0.01, 0.01])
    np.testing.assert_array_equal(p.d, [0.01, 0.01])
    np.testing.assert_array_equal(p.rho, [0.2, 0.2])
    np.testing.assert_array_equal(p.delta, [0.03, 0.03])
    np.testing.assert_array_equal(p.phi, [0.03, 0.03])
    np.testing.assert_array_equal(p.eps, [0.4, 0.6])
    np.testing.assert_array_equal(p.gamma, [0.4, 0.7])
    np.testing.assert_array_equal(cfg.s0, [30.0, 42.0])
    np.testing.assert_array_equal(cfg.a0, [20.0, 8.0])
    np.testing.assert_array_equal(cfg.d0, [0.0, 0.0])
    assert cfg.mode == "full" and cfg.n_replicas == 100 and cfg.seed == 42
    assert cfg.logistic.capacity == 100.0  # defaults to n_total


def test_unknown_bundled_name_is_a_config_error():
    with pytest.raises(ConfigError):
        bundled_config("nonexistent")


def test_empty_text_lists_every_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    msg = str(err.value)
    for key in ("m", "n_total", "s0", "a0", "d0"):
        assert key in msg


def test_defaults_fill_every_optional_key():
    cfg = parse_config(MINIMAL)
    p = cfg.params
    np.testing.assert_array_equal(p.b, [0.01])
    np.testing.assert_array_equal(p.rho, [0.2])
    np.testing.assert_array_equal(p.eps, [1.0])
    assert cfg.integration.step == 0.01
    assert cfg.integration.horizon == 200.0
    assert cfg.dt is None and cfg.target_r0 is None and cfg.out is None
    assert not cfg.logistic.enabled


def test_group_vector_needs_one_value_per_group():
    text = bundled_config("table2").replace("eps = 0.4, 0.6", "eps = 0.4")
    with pytest.raises(ConfigError, match="eps"):
        parse_config(text)


@pytest.mark.parametrize("line,fragment", [
    ("bogus_key = 1", "unknown key"),
    ("m 2", "expected 'key = value'"),
    ("seed =", "empty value"),
    ("seed = two", "bad value"),
])
def test_line_errors_carry_the_line_number(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + line + "\n")
    msg = str(err.value)
    assert fragment in msg and "line 7" in msg


def test_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "m = 1\n")


def test_comments_whole_line_and_inline():
    cfg = parse_config("# leading note\nm = 1  # one group\nn_total = 20\ns0 = 10\na0 = 5\nd0 = 5\n")
    assert cfg.params.m == 1


def test_constant_mode_requires_exact_initial_total():
    text = MINIMAL + "mode = paper_literal\n"
    assert parse_config(text).mode == "paper_literal"
    bad = text.replace("a0 = 5", "a0 = 4")
    with pytest.raises(ConfigError, match="constant"):
        parse_config(bad)


def test_initial_total_may_not_exceed_reference_population():
    with pytest.raises(ConfigError, match="exceeds"):
        parse_config(MINIMAL.replace("s0 = 10", "s0 = 99"))


def test_chain_step_must_divide_the_sampling_interval():
    assert parse_config(MINIMAL + "dt = 0.25\n").dt == 0.25
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "dt = 0.3\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "dt = -0.1\n")


@pytest.mark.parametrize("line", [
    "mode = half_open",
    "seed = -3",
    "n_replicas = 0",
    "target_r0 = 0",
    "logistic.growth_rate = -1",
])
def test_value_validation(line):
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + line + "\n")


def test_logistic_requires_the_variable_population_mode():
    text = MINIMAL + "mode = paper_literal\nlogistic.enabled = true\n"
    with pytest.raises(ConfigError, match="logistic"):
        parse_config(text)


def test_render_parse_round_trip_plain_and_fully_loaded():
    plain = parse_config(bundled_config("table2"))
    assert parse_config(render_config(plain)) == plain
    loaded = parse_config(
        bundled_config("table2")
        + "dt = 0.001\ntarget_r0 = 1.4\nout = run.csv\nseed = 9\n"
        + "logistic.enabled = true\nlogistic.growth_rate = 0.5\nlogistic.capacity = 150\n"
    )
    assert parse_config(render_config(loaded)) == loaded


@st.composite
def scenario_configs(draw):
    m = draw(st.integers(1, 4))
    mode = draw(st.sampled_from([PAPER_LITERAL, FULL]))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

    counts = st.lists(st.integers(0, 50), min_size=m, max_size=m)
    s0, a0, d0 = (np.array(draw(counts), dtype=float) for _ in range(3))
    if mode == PAPER_LITERAL and s0.sum() + a0.sum() + d0.sum() == 0:
        s0[0] = 1.0
    total = float(s0.sum() + a0.sum() + d0.sum())
    n_total = total if mode == PAPER_LITERAL else total + draw(st.floats(0.5, 100.0))
    params = ModelParams(
        m=m, n_total=n_total, alpha=draw(st.floats(0.0, 10.0)),
        b=vector(0.0, 1.0), d=vector(0.0, 1.0), rho=vector(0.0, 1.0),
        delta=vector(0.0, 1.0), phi=vector(0.0, 1.0),
        eps=vector(0.0, 2.0), gamma=vector(0.0, 2.0),
    )
    sample_every = draw(st.floats(0.05, 5.0))
    integration = IntegrationConfig(
        step=sample_every / draw(st.integers(1, 50)),
        horizon=sample_every * draw(st.integers(1, 100)),
        sample_every=sample_every,
    )
    dt = sample_every / draw(st.integers(1, 1000)) if draw(st.booleans()) else None
    target_r0 = draw(st.floats(0.01, 10.0)) if draw(st.booleans()) else None
    out = draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)) if draw(st.booleans()) else None
    logistic = LogisticConfig(
        enabled=mode == FULL and draw(st.booleans()),
        growth_rate=draw(st.floats(0.0, 3.0)),
        capacity=draw(st.floats(1.0, 500.0)),
    )
    return ScenarioConfig(
        params=params, s0=s0, a0=a0, d0=d0, integration=integration, dt=dt,
        n_replicas=draw(st.integers(1, 10_000)), mode=mode, seed=draw(st.integers(0, 2**63)),
        target_r0=target_r0, out=out, logistic=logistic,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scenario_configs())
def test_render_parse_round_trip_on_random_configs(cfg):
    # guards render_config's hand-written key list against the registry
    assert parse_config(render_config(cfg)) == cfg


def test_load_config_accepts_paths_and_bundled_names(tmp_path):
    f = tmp_path / "tiny.cfg"
    f.write_text(MINIMAL, encoding="utf-8")
    assert load_config(f).params.m == 1
    assert load_config("table2").params.m == 2
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg")


def test_load_config_prefixes_errors_with_the_path(tmp_path):
    f = tmp_path / "broken.cfg"
    f.write_text("m = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="broken.cfg"):
        load_config(f)


def test_initial_state_views():
    cfg = parse_config(MINIMAL)
    cont = cfg.continuous_init()
    assert cont.t == 0.0 and float(cont.s[0]) == 10.0
    disc = cfg.discrete_init()
    assert disc.total() == 20
    frac = parse_config(MINIMAL.replace("s0 = 10", "s0 = 9.5").replace("a0 = 5", "a0 = 5.5"))
    with pytest.raises(DomainError):
        frac.discrete_init()
