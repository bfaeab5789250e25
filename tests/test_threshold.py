"""Reproduction number: spectral radius, decomposition, calibration."""

import warnings

import numpy as np
import pytest
from conftest import random_params, spectral_radius, two_group_params
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    ContinuousState,
    ModelParams,
    build_decomposition,
    calibrate_alpha,
    disease_free_equilibrium,
    endemic_equilibrium,
    load_config,
    r0_rank_one,
)
from diffusim.errors import DiffusionError, DomainError, NumericError


# ------------------------------------------------------------ spectral radius


def test_rank_one_matrix_radius_is_its_trace():
    assert spectral_radius(np.array([[0.2, 0.3], [0.4, 0.6]])) == pytest.approx(0.8, abs=1e-12)


def test_symmetric_matrix_radius_known_value():
    assert spectral_radius(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, abs=1e-10)


def test_nilpotent_and_zero_matrices_have_radius_zero():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_radius_matches_dense_eigenvalue_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        mat = rng.uniform(0.0, 1.0, (n, n))
        ref = float(np.max(np.abs(np.linalg.eigvals(mat))))
        assert spectral_radius(mat) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("mat", [
    np.zeros((2, 3)),
    np.array([[1.0, -0.1], [0.2, 0.3]]),
    np.array([[1.0, np.inf], [0.2, 0.3]]),
    np.array([1.0, 2.0]),
])
def test_radius_rejects_invalid_matrices(mat):
    with pytest.raises(DomainError):
        spectral_radius(mat)


# ------------------------------------------------------------- decomposition


def test_decomposition_structure():
    p = two_group_params()
    dec = build_decomposition(p)
    eq = disease_free_equilibrium(p)
    f_ref = p.alpha * np.outer(p.eps * eq.s_star, p.gamma) / p.n_total
    np.testing.assert_allclose(dec.f, f_ref, rtol=1e-14)
    np.testing.assert_allclose(dec.v, np.diag(p.phi + p.d), rtol=1e-14)
    np.testing.assert_allclose(dec.k, f_ref / (p.phi + p.d)[None, :], rtol=1e-14)
    assert dec.r0 == pytest.approx(spectral_radius(dec.k), abs=1e-14)


def test_demo_scenario_r0_frozen_value():
    assert r0_rank_one(two_group_params()) == pytest.approx(
        0.024166666666666666, abs=1e-15
    )


def test_closed_form_equals_power_iteration_equals_eig_oracle():
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = random_params(rng, int(rng.choice([1, 2, 3, 5])))
        dec = build_decomposition(p)
        via_trace = r0_rank_one(p)
        via_power = spectral_radius(dec.f @ np.linalg.inv(dec.v))
        via_eig = float(np.max(np.abs(np.linalg.eigvals(dec.k))))
        assert via_trace == pytest.approx(via_power, abs=1e-10)
        assert via_trace == pytest.approx(via_eig, abs=1e-10)
        assert dec.r0 == via_trace


def test_r0_monotone_in_alpha_and_each_gamma():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_params(rng, int(rng.integers(1, 4)))
        base = r0_rank_one(p)
        assert r0_rank_one(p.with_alpha(p.alpha * 1.1)) > base
        for j in range(p.m):
            gamma = p.gamma.copy()
            gamma[j] *= 1.1
            bumped = type(p)(m=p.m, n_total=p.n_total, alpha=p.alpha, b=p.b,
                             d=p.d, rho=p.rho, delta=p.delta, phi=p.phi,
                             eps=p.eps, gamma=gamma)
            assert r0_rank_one(bumped) > base


# ---------------------------------------------------------------- calibration


def test_calibration_frozen_value_and_round_trip():
    p = two_group_params()
    alpha = calibrate_alpha(p, 1.4)
    assert alpha == pytest.approx(57.93103448275862, rel=1e-14)
    assert r0_rank_one(p.with_alpha(alpha)) == pytest.approx(1.4, rel=1e-12)


def test_table2_free_point_r0_and_alpha_keep_their_bits():
    # the CLI's calibrated chains start from these bits; the values are pinned
    # exactly, so that a rewrite of the closed forms cannot move them unseen
    p = load_config("table2").params
    dfe = disease_free_equilibrium(p)
    assert [x.hex() for x in dfe.s_star.tolist()] == ["0x1.5555555555555p-3"] * 2
    assert [x.hex() for x in dfe.d_star.tolist()] == ["0x1.aaaaaaaaaaaaap-1"] * 2
    assert r0_rank_one(p).hex() == build_decomposition(p).r0.hex() == "0x1.8bf258bf258bfp-6"
    assert calibrate_alpha(p, 1.4).hex() == "0x1.cf72c234f72c2p+5"


def test_calibration_round_trips_on_random_draws():
    rng = np.random.default_rng(24)
    for _ in range(30):
        p = random_params(rng, int(rng.integers(1, 5)))
        target = float(rng.uniform(0.2, 5.0))
        alpha = calibrate_alpha(p, target)
        assert r0_rank_one(p.with_alpha(alpha)) == pytest.approx(target, rel=1e-10)


@st.composite
def calibration_cases(draw):
    m = draw(st.integers(1, 4))

    def vector(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m))

    # b, d, eps and gamma positive, so r0 at alpha = 1 is positive
    p = ModelParams(
        m=m, n_total=draw(st.floats(1.0, 1e4)), alpha=draw(st.floats(0.0, 10.0)),
        b=vector(1e-3, 1.0), d=vector(1e-3, 1.0), rho=vector(0.0, 1.0),
        delta=vector(0.0, 1.0), phi=vector(0.0, 1.0),
        eps=vector(1e-3, 2.0), gamma=vector(1e-3, 2.0),
    )
    return p, draw(st.floats(1e-3, 1e3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(calibration_cases())
def test_calibrated_alpha_hits_the_target_on_drawn_params(case):
    p, target = case
    assert r0_rank_one(p.with_alpha(calibrate_alpha(p, target))) == pytest.approx(target, rel=1e-12)


def test_calibration_rejects_bad_targets():
    p = two_group_params()
    with pytest.raises(DomainError):
        calibrate_alpha(p, 0.0)
    with pytest.raises(DomainError):
        calibrate_alpha(p, -1.4)


def test_calibration_rejects_zero_transmission():
    p = two_group_params()
    silent = type(p)(m=2, n_total=100.0, alpha=1.0, b=0.01, d=0.01, rho=0.2,
                     delta=0.03, phi=0.03, eps=np.array([0.4, 0.6]),
                     gamma=np.zeros(2))
    with pytest.raises(DomainError):
        calibrate_alpha(silent, 1.4)


@pytest.mark.parametrize("route", [disease_free_equilibrium, r0_rank_one, build_decomposition, calibrate_alpha])
def test_an_underflowing_disease_free_point_is_refused(route):
    # d_2 (d_2 + delta + rho) underflows to 0, so s*_2 = d*_2 = inf; accepted,
    # that point would make calibrate_alpha return alpha = 0.0 for an R0 of nan
    p = ModelParams(m=2, n_total=100.0, alpha=1.0, b=0.1, d=[0.01, 5e-324], rho=0.1,
                    delta=0.1, phi=0.1, eps=1.0, gamma=1.0)
    args = (p, 2.0) if route is calibrate_alpha else (p,)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match=r"^disease-free equilibrium of group 2 is not finite: s\* = inf, d\* = inf$"
    ):
        route(*args)


def test_an_overflowing_decomposition_is_refused_before_any_numpy_warning():
    # s*_1 is finite, but alpha eps_1 s*_1 gamma_1 / n_total overflows
    p = two_group_params(alpha=1e10)
    p = ModelParams(m=2, n_total=p.n_total, alpha=p.alpha, b=[1e305, 0.01], d=p.d, rho=p.rho,
                    delta=p.delta, phi=p.phi, eps=p.eps, gamma=p.gamma)
    assert np.isfinite(disease_free_equilibrium(p).s_star).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiffusionError, match="finite"):
            build_decomposition(p)


# "term": table2 with b_1 = 1e306 and eps = gamma = (1e3, 1), where calibrate_alpha
# used to return alpha = 0; "sum": s*_i = b_i is each group's term, both finite
OVERFLOWING_R0 = [
    (ModelParams(m=2, n_total=100.0, alpha=1.0, b=[1e306, 0.01], d=0.01, rho=0.2, delta=0.03,
                 phi=0.03, eps=[1e3, 1.0], gamma=[1e3, 1.0]),
     r"^R0 term of group 1 is not finite: .* = inf$"),
    (ModelParams(m=2, n_total=1.0, alpha=1.0, b=1e308, d=1.0, rho=0.0, delta=0.0, phi=0.0, eps=1.0, gamma=1.0),
     r"^R0 is not finite: the sum of the per-group terms overflows at group 2$"),
]


@pytest.mark.parametrize("route", [r0_rank_one, build_decomposition, calibrate_alpha])
@pytest.mark.parametrize("p, match", OVERFLOWING_R0, ids=["term", "sum"])
def test_an_overflowing_r0_is_refused_naming_the_group(route, p, match):
    args = (p, 2.0) if route is calibrate_alpha else (p,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=match):
            route(*args)


def test_an_overflowing_alpha_is_refused_naming_the_overflow():
    # table2 with eps = 1e-300 and gamma = 1e-10: R0 at alpha = 1 is about
    # 8e-310, finite and positive, so 2 / R0 overflows; it used to return inf
    base = two_group_params()
    p = ModelParams(m=2, n_total=base.n_total, alpha=1.0, b=base.b, d=base.d, rho=base.rho,
                    delta=base.delta, phi=base.phi, eps=[1e-300, 1e-300], gamma=[1e-10, 1e-10])
    assert 0.0 < r0_rank_one(p) < 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^alpha = target_r0 / r0\(alpha=1\) = 2\.0 / .* overflows$"):
            calibrate_alpha(p, 2.0)


def test_an_overflowing_off_diagonal_entry_is_refused_while_r0_is_finite():
    # k[0, 1] = eps_1 gamma_2 s*_1 / (n_total (d_2 + phi_2)) overflows, but
    # R0 = eps_1 gamma_1 s*_1 / (n_total (d_1 + phi_1)) + ... does not
    p = ModelParams(m=2, n_total=100.0, alpha=1.0, b=[1e305, 0.01], d=0.01, rho=0.2, delta=0.03,
                    phi=0.03, eps=[1e3, 1.0], gamma=[1e-3, 1e3])
    assert r0_rank_one(p) == pytest.approx(4.1667e305, rel=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^next-generation matrix f is not finite at entry \(1, 2\): inf$"):
            build_decomposition(p)


# ------------------------------------------------ conserved groups and totals

ENTRY_POINTS = [disease_free_equilibrium, r0_rank_one, build_decomposition,
                lambda p, **kw: calibrate_alpha(p, 1.4, **kw)]
ENTRY_IDS = ["disease_free_equilibrium", "r0_rank_one", "build_decomposition", "calibrate_alpha"]


def conserved_second_group(**rates) -> ModelParams:
    base = two_group_params()
    kw = dict(m=2, n_total=100.0, alpha=1.0, b=[0.01, 0.0], d=[0.01, 0.0], rho=base.rho,
              delta=base.delta, phi=base.phi, eps=base.eps, gamma=base.gamma)
    kw.update(rates)
    return ModelParams(**kw)


@pytest.mark.parametrize("route", ENTRY_POINTS, ids=ENTRY_IDS)
def test_a_conserved_group_needs_totals_and_names_itself_without_them(route):
    p = conserved_second_group()
    with pytest.raises(DomainError, match=r"^group 2 has d_i = b_i = 0, so it keeps its total"):
        route(p)
    route(p, totals=[50.0, 50.0])


@pytest.mark.parametrize("route", ENTRY_POINTS, ids=ENTRY_IDS)
def test_a_group_without_deaths_but_with_births_is_refused_on_every_route(route):
    p = conserved_second_group(b=0.01)
    with pytest.raises(DomainError, match=r"^group 2 has d_i = 0 < b_i"):
        route(p, totals=[50.0, 50.0])


def test_totals_are_read_only_for_conserved_groups():
    p = conserved_second_group()
    assert r0_rank_one(p, totals=[50.0, 50.0]) == r0_rank_one(p, totals=[1e9, 50.0])
    assert r0_rank_one(p, totals=[50.0, 50.0]) != r0_rank_one(p, totals=[50.0, 60.0])
    rng = np.random.default_rng(25)
    for _ in range(20):
        q = random_params(rng, int(rng.integers(1, 5)))
        assert r0_rank_one(q, totals=np.full(q.m, np.nan)) == r0_rank_one(q)
        assert build_decomposition(q, totals=np.full(q.m, 7.0)).r0 == build_decomposition(q).r0


def test_a_conserved_group_rests_at_its_split_of_the_total():
    p = conserved_second_group()
    eq = disease_free_equilibrium(p, totals=[0.0, 50.0])
    assert eq.s_star[1] == pytest.approx(50.0 * 0.03 / 0.23, rel=1e-15)
    assert eq.d_star[1] == pytest.approx(50.0 * 0.2 / 0.23, rel=1e-15)
    np.testing.assert_array_equal(eq.s_star[:1], disease_free_equilibrium(two_group_params()).s_star[:1])
    with pytest.raises(DomainError, match=r"^group 2 keeps its total but has delta_i \+ rho_i = 0"):
        disease_free_equilibrium(conserved_second_group(rho=[0.2, 0.0], delta=[0.03, 0.0]), totals=[0.0, 50.0])
    with pytest.raises(DomainError, match=r"^totals: expected scalar or length-2 vector"):
        disease_free_equilibrium(p, totals=[1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match=r"^totals: entries must be nonnegative"):
        disease_free_equilibrium(p, totals=[0.0, -1.0])


def test_paper_literal_r0_is_the_radius_of_its_next_generation_matrix():
    # the constant-population model on its own terms: S_i -> D_i at rho_i + d_i,
    # A_i -> D_i at phi_i + d_i and D_i -> S_i at delta_i, so at a = 0 group i
    # rests at s*_i = N_i delta_i / (delta_i + rho_i + d_i), and
    # k_ij = alpha eps_i gamma_j s*_i / (n_total (phi_j + d_j))
    rng = np.random.default_rng(26)
    for _ in range(100):
        p = random_params(rng, int(rng.choice([1, 2, 3, 5])))
        n = rng.uniform(1.0, 100.0, p.m)
        s_star = n * p.delta / (p.delta + p.rho + p.d)
        k = p.alpha * np.outer(p.eps * s_star, p.gamma) / p.n_total / (p.phi + p.d)[None, :]
        q = ModelParams(m=p.m, n_total=p.n_total, alpha=p.alpha, b=0.0, d=0.0, rho=p.rho + p.d,
                        delta=p.delta, phi=p.phi + p.d, eps=p.eps, gamma=p.gamma)
        r0 = r0_rank_one(q, totals=n)
        assert r0 == pytest.approx(spectral_radius(k), rel=1e-10)
        dec = build_decomposition(q, totals=n)
        assert dec.r0 == r0
        np.testing.assert_allclose(dec.k, k, rtol=1e-13)
        assert r0_rank_one(q.with_alpha(calibrate_alpha(q, 1.7, totals=n)), totals=n) == pytest.approx(1.7, rel=1e-12)


def test_the_endemic_point_decides_r0_as_r0_rank_one_does():
    # every draw sits at R0 = 1 to rounding; wherever r0_rank_one says
    # R0 <= 1 the endemic search must return exactly the disease-free point
    rng = np.random.default_rng(27)
    below = 0
    for _ in range(2000):
        m = int(rng.integers(1, 5))

        def rates():
            return 10.0 ** rng.uniform(-3.0, 3.0, m)

        base = ModelParams(m=m, n_total=float(10.0 ** rng.uniform(-3.0, 3.0)), alpha=1.0, b=rates(),
                           d=rates(), rho=rates(), delta=rates(), phi=rates(), eps=rates(), gamma=rates())
        p = base.with_alpha(calibrate_alpha(base, 1.0))
        if r0_rank_one(p) > 1.0:
            continue
        below += 1
        dfe = disease_free_equilibrium(p)
        seed = ContinuousState(t=0.0, s=dfe.s_star, a=np.full(m, 1.0), dd=dfe.d_star)
        eq = endemic_equilibrium(p, seed)
        assert eq == dfe and eq.kind == "disease_free"
    assert below > 500


def test_the_endemic_decision_reads_the_seed_totals_of_conserved_groups():
    rng = np.random.default_rng(28)
    for _ in range(200):
        p = conserved_second_group(alpha=float(rng.uniform(0.5, 3.0)))
        seed = ContinuousState(t=0.0, s=rng.uniform(0.0, 50.0, 2), a=rng.uniform(0.1, 20.0, 2),
                               dd=rng.uniform(0.0, 20.0, 2))
        totals = seed.s + seed.a + seed.dd
        eq = endemic_equilibrium(p, seed)
        if r0_rank_one(p, totals=totals) <= 1.0:
            assert eq == disease_free_equilibrium(p, totals=totals)
        else:
            assert float(eq.a_star.sum()) > 0
