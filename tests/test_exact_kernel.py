"""The exact m = 1 law's one-pass kernel against a per-state build, byte for byte.

The per-state build below is the oracle: it calls ``event_probabilities``
once per state, looks destinations up in a dict, drops zero-probability
events and propagates with scipy's CSR matvec. The one-pass build's
``(row, col, val)`` arrays, made into a CSR matrix, must give the same
``indptr``, ``indices`` and ``data``; its ``np.bincount`` steps must give
the same propagated law; and it must raise the same ``StepSizeError``
for an oversized dt.
"""

import re

import numpy as np
import pytest
import scipy.sparse
from conftest import finite_stable_dt, single_group_params
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import PAPER_LITERAL, DiscreteState, ModelParams, event_probabilities, exact_propagation, max_stable_dt
from diffusim.dtmc import _exact_kernel
from diffusim.errors import StepSizeError


def oracle_kernel(params, n, dt):
    """Per-state build: (states, kernel, state index)."""
    states = np.array([(s, a) for s in range(n + 1) for a in range(n + 1 - s)], dtype=np.int64)
    index = {(int(s), int(a)): i for i, (s, a) in enumerate(states)}
    rows, cols, vals = [], [], []
    for col, (s0, a0) in enumerate(states):
        st_ = DiscreteState(s=[int(s0)], a=[int(a0)], dd=[int(n - s0 - a0)])
        table = event_probabilities(params, st_, dt, PAPER_LITERAL)
        stay = 0.0
        for ev, p in table.probabilities.items():
            if ev.kind == "no_event":
                stay += p
                continue
            if p == 0.0:
                continue
            if ev.kind == "activate":
                dest = (int(s0) - 1, int(a0) + 1)
            elif ev.kind == "deactivate":
                dest = (int(s0), int(a0) - 1)
            elif ev.kind == "return":
                dest = (int(s0) + 1, int(a0))
            else:  # withdraw
                dest = (int(s0) - 1, int(a0))
            rows.append(index[dest])
            cols.append(col)
            vals.append(p)
        rows.append(col)
        cols.append(col)
        vals.append(stay)
    kernel = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(states.shape[0], states.shape[0]))
    return states, kernel, index


def oracle_propagation(params, init, dt, n_steps):
    """(states, kernel, e_s, e_a, mass, final_p) from the per-state build."""
    n = init.total()
    states, kernel, index = oracle_kernel(params, n, dt)
    p = np.zeros(states.shape[0])
    p[index[(int(init.s[0]), int(init.a[0]))]] = 1.0
    e_s, e_a, mass = [], [], []
    for step in range(n_steps + 1):
        if step > 0:
            p = kernel @ p
        mass.append(p.sum())
        e_s.append(states[:, 0].astype(float) @ p)
        e_a.append(states[:, 1].astype(float) @ p)
    return states, kernel, np.array(e_s), np.array(e_a), np.array(mass), p


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_law(params, init, dt, n_steps):
    try:
        states, kernel, e_s, e_a, mass, final_p = oracle_propagation(params, init, dt, n_steps)
    except StepSizeError as err:
        with pytest.raises(StepSizeError, match=f"^{re.escape(str(err))}$"):
            exact_propagation(params, init, dt, n_steps)
        return
    got_states, row, col, val = _exact_kernel(params, init.total(), dt)
    assert_same_bytes(got_states, states)
    got_kernel = scipy.sparse.csr_matrix((val, (row, col)), shape=kernel.shape)
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(got_kernel, name), getattr(kernel, name))

    ex = exact_propagation(params, init, dt, n_steps)
    assert_same_bytes(ex.states, states)
    for name, want in (("e_s", e_s), ("e_a", e_a), ("mass", mass), ("final_p", final_p)):
        assert_same_bytes(getattr(ex, name), want)


def m1_params(n, alpha, d, rho, delta, phi, eps=0.5, gamma=0.5):
    return ModelParams(m=1, n_total=float(n), alpha=alpha, b=0.0, d=d, rho=rho,
                       delta=delta, phi=phi, eps=eps, gamma=gamma)


@st.composite
def exact_cases(draw):
    n = draw(st.integers(1, 40))
    rate = st.one_of(st.just(0.0), st.floats(0.005, 0.4))
    params = m1_params(
        n,
        alpha=draw(st.one_of(st.just(0.0), st.floats(0.05, 6.0))),
        d=draw(rate), rho=draw(rate), delta=draw(rate), phi=draw(rate),
        eps=draw(st.floats(0.1, 1.0)), gamma=draw(st.floats(0.1, 1.0)),
    )
    # max_stable_dt bounds every channel at its worst at once, so some of
    # the larger steps still fit and some overload a state
    dt = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0])) * finite_stable_dt(params, n)
    s0 = draw(st.integers(0, n))
    a0 = draw(st.integers(0, n - s0))
    init = DiscreteState(s=[s0], a=[a0], dd=[n - s0 - a0])
    return params, init, dt, draw(st.integers(0, 25))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(exact_cases())
def test_one_pass_kernel_matches_the_per_state_build(case):
    assert_same_law(*case)


def test_one_pass_kernel_matches_the_per_state_build_at_n_80():
    p = m1_params(80, alpha=2.0, d=0.02, rho=0.2, delta=0.03, phi=0.03)
    init = DiscreteState(s=[40], a=[20], dd=[20])
    assert_same_law(p, init, 0.5 * max_stable_dt(p, 80), 40)


def test_one_pass_law_matches_the_per_state_build_over_300_steps():
    # a different addition order in a row would compound over the steps
    p = m1_params(40, alpha=3.0, d=0.01, rho=0.1, delta=0.05, phi=0.04)
    init = DiscreteState(s=[30], a=[4], dd=[6])
    assert_same_law(p, init, 0.8 * max_stable_dt(p, 40), 300)


def test_a_zero_no_event_entry_stays_in_the_kernel():
    # withdraw fires with probability exactly 1 at (s, a) = (1, 0), so its
    # no_event entry is an explicit 0.0 on the diagonal
    p = m1_params(1, alpha=0.0, d=0.0, rho=0.5, delta=0.25, phi=0.0)
    assert_same_law(p, DiscreteState(s=[1], a=[0], dd=[0]), 2.0, 3)
    _, _, _, val = _exact_kernel(p, 1, 2.0)
    assert val.size == 5


def test_oversized_dt_fails_before_any_step():
    # the activation channel peaks inside the simplex: the first state over
    # the bound in lexicographic order is (5, 14), at 1.0596, while the
    # largest summed probability is 1.524, at (10, 10)
    p = single_group_params(alpha=8.0)
    init = DiscreteState(s=[10], a=[5], dd=[5])
    dt = 0.12
    with pytest.raises(StepSizeError) as oracle:
        oracle_kernel(p, 20, dt)
    message = str(oracle.value)
    assert re.fullmatch(r"summed event probability \S+ > 1; decrease dt", message)
    # a propagation of this many steps would take minutes
    with pytest.raises(StepSizeError, match=f"^{re.escape(message)}$"):
        exact_propagation(p, init, dt, 10**6)
