"""Discrete-time Markov-chain engine for the group-structured model.

The chain advances in fixed epochs of length dt with at most one event
per epoch. Event kinds, their per-epoch probabilities (rate times dt)
and the state updates:

    activate(i)    S_i -> A_i   sum_j lam_ij(a) * s_i
    deactivate(i)  A_i -> D_i   (phi_i + d_i) * a_i   [paper_literal]
                                phi_i * a_i           [full]
    return(i)      D_i -> S_i   delta_i * dd_i
    withdraw(i)    S_i -> D_i   (d_i + rho_i) * s_i   [paper_literal]
                                rho_i * s_i           [full]
    death_s(i)     S_i -> gone  d_i * s_i             [full only]
    death_a(i)     A_i -> gone  d_i * a_i             [full only]
    death_d(i)     D_i -> gone  d_i * dd_i            [full only]
    birth(i)       +1 in S_i    b_i                   [full only]
    no_event                    1 - sum of the above

"paper_literal" keeps the population constant: births are disabled
(b is ignored in this mode, which is only defined for b = 0) and deaths
are folded into the deactivate/withdraw channels, both of which land in
D. "full" carries births and deaths explicitly, so the population
varies. The two modes generate identical chains when b = d = 0.

Reproducibility contract:

* Events are enumerated in the canonical order activate(1..m),
  deactivate(1..m), return(1..m), withdraw(1..m), then in full mode
  death_s(1..m), death_a(1..m), death_d(1..m), birth(1..m), and finally
  no_event. Each epoch consumes exactly one uniform double u from the
  replica's generator and selects the event by cumulative probability in
  that order: with q the running sums of the event probabilities, event
  k fires iff q[k-1] <= u < q[k] (q[-1] read as 0 for the first event),
  and no event fires iff u >= q[last]. This is
  ``np.searchsorted(q, u, side="right")``, so an event of probability 0
  never fires, not even for u = 0.
* Replica r of an ensemble owns numpy's PCG64 seeded with
  derive_replica_seed(seed, r): the SplitMix64 finalizer applied to
  (seed + (r + 1) * 0x9E3779B97F4A7C15) mod 2^64. A batch's seeds and
  PCG64 seeding words are computed in one array pass; each generator is
  then the stream of ``PCG64(derive_replica_seed(seed, r))`` exactly. A
  short run's uniforms are computed from the words by PCG64's closed-form
  jump, with no generator, and are that same stream.
* Ensemble reductions are exact integer sums over fixed chunks of 256
  replicas, combined in index order. A single replica's trajectory is
  the same sum over a one-replica batch.

Replicas are advanced by event-driven replay rather than epoch by epoch.
Between events the state, and with it q, is constant, so the next event
is at the first epoch j whose uniform satisfies u_j < q[last]. Replay
scans each replica's block of pre-drawn uniforms for that epoch, applies
the event selected by u_j, and resumes at j + 1. It consumes the same
stream, one uniform per epoch, as a per-epoch stepper, and so yields the
same chain bit for bit at a cost that grows with the events rather than
the epochs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError, NumericError, StepSizeError
from .integrate import _multiple_of
from .logistic import LogisticConfig
from .model import ModelParams
from .trajectory import TrajectoryTable

__all__ = [
    "PAPER_LITERAL",
    "FULL",
    "Event",
    "DiscreteState",
    "TransitionTable",
    "ExtinctionSummary",
    "ExactPropagation",
    "canonical_events",
    "derive_replica_seed",
    "event_probabilities",
    "max_stable_dt",
    "simulate_replica",
    "monte_carlo_mean",
    "extinction_time_stochastic",
    "exact_propagation",
]

PAPER_LITERAL = "paper_literal"
FULL = "full"

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# ensembles are simulated in fixed chunks of this many replicas, reduced
# in chunk order
_CHUNK_REPLICAS = 256
# uniforms drawn per replica at a time; draws in blocks concatenate to
# the same stream, so the block size never changes the chain
_REPLAY_BLOCK = 256


def derive_replica_seed(seed: int, index: int) -> int:
    """Per-replica 64-bit seed: SplitMix64 finalizer over (seed, index).

    Any integer ``seed`` is accepted and reduced mod 2^64, so -1 and
    2^64 - 1 give the same replica seeds. The chain drivers
    (``simulate_replica``, ``monte_carlo_mean`` and
    ``extinction_time_stochastic``) accept a seed only in [0, 2^64) and
    raise DomainError otherwise.
    """
    z = (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _replica_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_replica_seed(seed, r)`` for r in [lo, hi), as uint64."""
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(int(seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


# numpy's SeedSequence hash: pool size 4, 32-bit words
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is ``np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    The SeedSequence hash run on uint32 arrays, one replica per element.
    A seed is its low and high 32-bit words; a seed below 2^32 is one
    entropy word, and its missing second word hashes like a zero.
    """
    u32 = np.uint32
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & 0xFFFFFFFF
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    zero = np.zeros(seeds.shape, dtype=u32)
    entropy = [(seeds & np.uint64(0xFFFFFFFF)).astype(u32), (seeds >> np.uint64(32)).astype(u32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = u32(_SS_MIX_L) * pool[dst] - u32(_SS_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))
    state = np.empty(seeds.shape + (8,), dtype=u32)
    hash_const = _SS_INIT_B
    for k in range(8):
        value = pool[k % 4] ^ u32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & 0xFFFFFFFF
        value = value * u32(hash_const)
        state[..., k] = value ^ (value >> u32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seeds a bit generator with precomputed words (see :func:`_pcg64_words`)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly the four uint64 words the row holds
        return self.words


# numpy's PCG64: a 128-bit LCG, state -> state * _PCG_MULT + inc (mod 2^128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_jumps(k: int) -> np.ndarray:
    """Jump constants of draws 0 .. k-1 from the seeding sum x = state + inc.

    Seeding steps from 0 to inc, adds the state and steps again, and each
    draw steps before its output, so draw j reads the state
    A x + G inc (mod 2^128) with A = MULT^(j+2) and G = sum_{i < j+2} MULT^i.
    Rows: the low 64 bits of A, their low and high 32-bit halves, the
    high 64 bits of A, then the same four for G; one column per draw.
    """
    rows = []
    a, g = _PCG_MULT, 1
    for _ in range(k):
        a, g = (a * _PCG_MULT) & _MASK128, (g * _PCG_MULT + 1) & _MASK128
        a_lo, g_lo = a & _MASK64, g & _MASK64
        rows.append([a_lo, a_lo & 0xFFFFFFFF, a_lo >> 32, a >> 64, g_lo, g_lo & 0xFFFFFFFF, g_lo >> 32, g >> 64])
    return np.array(rows, dtype=np.uint64).T


# a run of at most this many epochs draws its uniforms from the words in
# one array pass instead of from a Generator per replica; per replica the
# two cost the same between 56 and 64 draws (see CHANGES.md)
_ARRAY_DRAW_EPOCHS = 56
# draws computed per array pass; its scratch is three (draws, replicas)
# uint64 arrays
_ARRAY_DRAW_COLUMNS = 10
_JUMPS = _pcg64_jumps(_ARRAY_DRAW_EPOCHS)[:, :, None]


def _pcg64_uniforms(words: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write ``PCG64`` draws 0 .. k-1 of each row of ``words`` into ``out[:, :k]``.

    Row i of ``out`` gets ``Generator(PCG64(_Words(words[i]))).random(k)``
    bit for bit, from the closed-form jump of :func:`_pcg64_jumps`, with
    no bit generator. As numpy's ``pcg_setseq_128_srandom_r`` seeds them,
    the state is ``(word 0 << 64) | word 1`` and the increment
    ``inc = (((word 2 << 64) | word 3) << 1) | 1``; draw j is the XSL-RR
    output of ``A_j x + G_j inc`` (x = state + inc, all mod 2^128) as
    ``(output >> 11) * 2^-53``. The 128-bit sums are built from uint64
    limbs, the high halves of the limb products from 32-bit halves. Draws
    are computed ``_ARRAY_DRAW_COLUMNS`` at a time, one row per draw, and
    ``k`` is at most ``_ARRAY_DRAW_EPOCHS``.
    """
    u64 = np.uint64
    one, low, half = u64(1), u64(0xFFFFFFFF), u64(32)
    w0, w1, w2, w3 = words.T
    inc_lo = (w3 << one) | one
    inc_hi = (w2 << one) | (w3 >> u64(63))
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi
    x_hi += x_lo < w1
    halves = ((x_lo & low, x_lo >> half), (inc_lo & low, inc_lo >> half))
    hi_buf = np.empty((min(_ARRAY_DRAW_COLUMNS, k), words.shape[0]), dtype=np.uint64)
    lo_buf = np.empty_like(hi_buf)
    t_buf = np.empty_like(hi_buf)
    for c in range(0, k, _ARRAY_DRAW_COLUMNS):
        w = min(_ARRAY_DRAW_COLUMNS, k - c)
        a_lo, a0, a1, a_hi, g_lo, g0, g1, g_hi = _JUMPS[:, c : c + w]
        hi, lo, t = hi_buf[:w], lo_buf[:w], t_buf[:w]
        # high 64 bits: the cross products ...
        np.multiply(a_hi, x_lo, out=hi)
        hi += np.multiply(a_lo, x_hi, out=t)
        hi += np.multiply(g_hi, inc_lo, out=t)
        hi += np.multiply(g_lo, inc_hi, out=t)
        # ... plus the high halves of a_lo x_lo and g_lo inc_lo
        for (m0, m1), (y0, y1) in zip(((a0, a1), (g0, g1)), halves):
            np.multiply(m0, y0, out=t)
            t >>= half
            np.multiply(m1, y0, out=lo)
            lo += t  # m1 y0 + (m0 y0 >> 32) < 2^64
            hi += np.right_shift(lo, half, out=t)
            lo &= low
            lo += np.multiply(m0, y1, out=t)  # m0 y1 + a 32-bit value < 2^64
            lo >>= half
            hi += lo
            hi += np.multiply(m1, y1, out=t)
        # low 64 bits, and their carry into the high ones
        np.multiply(a_lo, x_lo, out=lo)
        lo += np.multiply(g_lo, inc_lo, out=t)
        hi += lo < t
        # XSL-RR: rotate hi ^ lo right by the top six bits of hi
        lo ^= hi
        hi >>= u64(58)
        np.right_shift(lo, hi, out=t)
        np.subtract(u64(64), hi, out=hi)
        hi &= u64(63)
        lo <<= hi
        t |= lo
        t >>= u64(11)
        out[:, c : c + w] = t.T
    out[:, :k] *= 2.0**-53


class Event(NamedTuple):
    """One transition kind; group is 1-based, None for no_event."""

    kind: str
    group: int | None


def _check_mode(mode: str) -> None:
    if mode not in (PAPER_LITERAL, FULL):
        raise DomainError(f"mode must be '{PAPER_LITERAL}' or '{FULL}', got {mode!r}")


def canonical_events(m: int, mode: str) -> tuple[Event, ...]:
    """All events in the documented selection order, no_event last."""
    _check_mode(mode)
    kinds = ["activate", "deactivate", "return", "withdraw"]
    if mode == FULL:
        kinds += ["death_s", "death_a", "death_d", "birth"]
    events = [Event(kind, i) for kind in kinds for i in range(1, m + 1)]
    events.append(Event("no_event", None))
    return tuple(events)


def _count_array(name: str, value, m: int | None = None) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
            raise DomainError(f"{name}: counts must be whole numbers")
    elif arr.dtype.kind not in "iu":
        raise DomainError(f"{name}: counts must be integers")
    arr = np.array(arr, dtype=np.int64)
    if arr.ndim == 0 and m is not None:
        arr = np.full(m, int(arr), dtype=np.int64)
    if arr.ndim != 1:
        raise DomainError(f"{name}: expected a 1-d vector")
    if m is not None and arr.shape != (m,):
        raise DomainError(f"{name}: expected length {m}, got {arr.shape[0]}")
    if np.any(arr < 0):
        raise DomainError(f"{name}: counts must be nonnegative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteState:
    """Integer compartment counts per group."""

    s: np.ndarray
    a: np.ndarray
    dd: np.ndarray

    def __post_init__(self):
        s = _count_array("s", self.s)
        a = _count_array("a", self.a, s.shape[0])
        dd = _count_array("dd", self.dd, s.shape[0])
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dd", dd)

    @property
    def m(self) -> int:
        return self.s.shape[0]

    def total(self) -> int:
        return int(self.s.sum() + self.a.sum() + self.dd.sum())


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """One-epoch event probabilities in canonical order, no_event last.

    no_event is defined as 1 minus the ordered sum of the event entries,
    so re-summing the values in table order gives exactly 1.0.
    """

    probabilities: dict[Event, float]
    dt: float

    @property
    def no_event(self) -> float:
        return self.probabilities[Event("no_event", None)]


# (s, a, dd) increments of each event kind in its own group
_EVENT_DELTAS = {
    "activate": (-1, 1, 0),
    "deactivate": (0, -1, 1),
    "return": (1, 0, -1),
    "withdraw": (-1, 0, 1),
    "death_s": (-1, 0, 0),
    "death_a": (0, -1, 0),
    "death_d": (0, 0, -1),
    "birth": (1, 0, 0),
}


def _delta_tables(m: int, mode: str) -> np.ndarray:
    """Per-event increments to the flat (s, a, dd) state, one row per event."""
    events = canonical_events(m, mode)
    delta = np.zeros((len(events), 3, m), dtype=np.int64)
    for row, ev in enumerate(events[:-1]):
        delta[row, :, ev.group - 1] = _EVENT_DELTAS[ev.kind]
    return delta.reshape(len(events), 3 * m)


class _Engine:
    """Per-event probability tables for a batch of replicas."""

    def __init__(self, params: ModelParams, mode: str, dt: float, logistic: LogisticConfig | None):
        _check_mode(mode)
        dt = float(dt)
        if not np.isfinite(dt) or dt <= 0:
            raise DomainError(f"dt must be positive and finite, got {dt!r}")
        if logistic is not None and not logistic.enabled:
            logistic = None
        if logistic is not None and mode == PAPER_LITERAL:
            raise DomainError("logistic coupling needs full mode; paper_literal holds N constant")
        self.params = params
        self.mode = mode
        self.dt = dt
        self.logistic = logistic
        m = params.m
        self.m = m
        self.n_events = 8 * m if mode == FULL else 4 * m
        self.delta = _delta_tables(m, mode)
        self.gamma = params.gamma
        # activation: prob = alpha*eps_i*(gamma . a)/den * s_i * dt, with
        # den = n_total (constant modes) or the replica population (logistic)
        self.act_num = params.alpha * dt * params.eps
        self.act_const = self.act_num / params.n_total
        if mode == PAPER_LITERAL:
            c_deact = (params.phi + params.d) * dt
            self.c_withd = (params.d + params.rho) * dt
        else:
            c_deact = params.phi * dt
            self.c_withd = params.rho * dt
        # deactivate and return columns line up with the (a, dd) half of the
        # flat state, the death columns with all of it, so each is one multiply
        self.c_mid = np.concatenate([c_deact, params.delta * dt])
        self.c_death3 = np.concatenate([params.d, params.d, params.d]) * dt
        self.c_birth = params.b * dt

    def make_buffers(self, r: int) -> np.ndarray:
        """Probability buffer for an r-replica batch.

        Constant columns (births outside the logistic coupling) are filled
        here once; fill_probabilities never touches them.
        """
        p = np.zeros((r, self.n_events))
        if self.mode == FULL and self.logistic is None:
            p[:, 7 * self.m :] = self.c_birth
        return p

    def fill_probabilities(self, state: np.ndarray, p: np.ndarray) -> None:
        """Write the event probabilities of the flat (s, a, dd) rows ``state`` into ``p``.

        ``p`` must come from :meth:`make_buffers` for the same batch size.
        Activation is ``coef * s_i * scale`` with ``scale = gamma . a``,
        divided by the replica's population under the logistic coupling,
        which also sets the death and birth columns from that population.
        """
        m = self.m
        s = state[:, :m]
        scale = state[:, m : 2 * m] @ self.gamma
        if self.logistic is None:
            coef, death = self.act_const, self.c_death3
        else:
            lg = self.logistic
            total = state.sum(axis=1).astype(float)
            scale /= np.where(total > 0, total, 1.0)  # rates all vanish at N = 0
            coef = self.act_num
            death = ((lg.growth_rate * self.dt / lg.capacity) * total)[:, None]
            p[:, 7 * m :] = ((lg.growth_rate * self.dt / m) * total)[:, None]
        np.multiply(s, coef, out=p[:, :m])
        p[:, :m] *= scale[:, None]
        np.multiply(state[:, m:], self.c_mid, out=p[:, m : 3 * m])
        np.multiply(s, self.c_withd, out=p[:, 3 * m : 4 * m])
        if self.mode == FULL:
            np.multiply(state, death, out=p[:, 4 * m : 7 * m])

    def probabilities(self, state: np.ndarray) -> np.ndarray:
        """Event probability stack of the flat (s, a, dd) rows, shape (replicas, n_events)."""
        p = self.make_buffers(state.shape[0])
        self.fill_probabilities(state, p)
        return p


def _select(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Event index per row of cumulative probabilities ``q`` for uniforms ``u``.

    Row-wise ``np.searchsorted(q[r], u[r], side="right")``: event k fires
    iff q[k-1] <= u < q[k], and the result is the no_event index
    (``q.shape[1]``) iff u >= q[-1]. Rows of q are nondecreasing, so the
    search is the count of bounds at or below u.
    """
    return np.count_nonzero(q <= u[:, None], axis=1)


def event_probabilities(params: ModelParams, state: DiscreteState, dt: float, mode: str) -> TransitionTable:
    """One-epoch transition table at ``state``.

    Probabilities appear in the canonical event order; no_event is the
    complement of their ordered sum.

    Raises:
        StepSizeError: if the summed event probability exceeds 1 at this
            state (dt too large).
    """
    if state.m != params.m:
        raise DomainError(f"state has {state.m} groups, params expect {params.m}")
    eng = _Engine(params, mode, dt, None)
    row = eng.probabilities(np.concatenate([state.s, state.a, state.dd])[None, :])[0]
    total = float(np.cumsum(row)[-1])
    if total > 1.0:
        raise StepSizeError(f"summed event probability {total:.6g} > 1; decrease dt")
    events = canonical_events(params.m, mode)
    probs = {ev: float(p) for ev, p in zip(events[:-1], row)}
    probs[events[-1]] = 1.0 - total
    return TransitionTable(probabilities=probs, dt=float(dt))


# the fraction of the rate bound's reciprocal that max_stable_dt returns
_STABILITY_SAFETY = 0.9


def max_stable_dt(params: ModelParams, n: float, *, logistic: LogisticConfig | None = None) -> float:
    """Largest epoch length guaranteed valid for compartment counts up to n.

    Bounds the total event rate by maximizing every channel independently
    with all compartment counts at ``n`` (full-mode channels included, so
    the bound covers both modes) and returns 0.9 divided by the bound.
    With every rate zero the bound is vacuous and ``math.inf`` is returned.

    With ``logistic`` enabled, birth and death rates scale with the live
    population, so the bound instead covers every population up to
    P = max(n, 1.5 K) (the chain fluctuates around the capacity K and
    needs headroom above it): each channel's per-capita rate is maximized
    over the groups, activation by alpha max(eps) max(gamma), and the
    logistic births and deaths contribute r (1 + P / K) per head.
    """
    n = float(n)
    if not np.isfinite(n) or n < 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    if logistic is not None and logistic.enabled:
        pop = max(n, 1.5 * logistic.capacity)
        r_max = pop * (
            params.alpha * float(params.eps.max()) * float(params.gamma.max())
            + float(params.phi.max())
            + float(params.delta.max())
            + float(params.rho.max())
            + logistic.growth_rate * (1.0 + pop / logistic.capacity)
        )
    else:
        r_act = params.alpha * float(params.eps.sum()) * float(params.gamma.sum()) * n * n / params.n_total
        r_lin = n * float(
            (params.phi + params.d).sum()
            + params.delta.sum()
            + (params.rho + params.d).sum()
            + params.d.sum()
        ) + float(params.b.sum())
        r_max = r_act + r_lin
    if r_max == 0.0:
        return math.inf
    return _STABILITY_SAFETY / r_max


@dataclass
class _RunOutput:
    ext_epoch: np.ndarray                 # (replicas,) epochs until no actives, -1 if none
    final: np.ndarray                     # (replicas, 3m) last simulated state
    sums: np.ndarray | None = None        # (samples, 3m) int64 sum over replicas
    sumsq: np.ndarray | None = None       # (samples, 3m) int64 sum of squares
    # sums and sumsq are the two halves of one (samples, 2, 3m) array


def _run_replicas(
    params: ModelParams,
    mode: str,
    logistic: LogisticConfig | None,
    init: DiscreteState,
    dt: float,
    n_epochs: int,
    seeds: np.ndarray | list[int],
    *,
    stride: int = 0,
    first_replica: int = 0,
) -> _RunOutput:
    """Replay a batch of replicas event by event, one uniform per epoch.

    Each replica keeps an epoch pointer and a block of its own uniforms.
    A round fills the event probabilities of every running replica once,
    finds in each block the first epoch at or after the pointer whose
    uniform fires an event, applies that event and moves the pointer past
    it. A replica whose block holds no further event moves to the block's
    end and draws the next block. A run of at most ``_ARRAY_DRAW_EPOCHS``
    epochs is one block, drawn for the whole batch by
    :func:`_pcg64_uniforms`; longer runs draw from one Generator per
    replica. Samples are recorded as per-sample differences and summed at
    the end.

    ``stride`` chooses the run. With ``stride > 0`` every replica runs all
    ``n_epochs`` and the state is sampled every ``stride`` epochs, as the
    int64 sums over replicas of the samples and of their squares in
    ``sums`` and ``sumsq``; for a one-replica batch ``sums`` is the
    replica's trajectory. With ``stride == 0`` nothing is sampled and the
    run is a first passage: a replica stops at the epoch in which its
    actives run out. Every run returns each replica's extinction epoch and
    its last simulated state.

    ``seeds`` are the replicas' 64-bit seeds (a sequence or uint64 array);
    replica i draws from ``PCG64(seeds[i])``. ``first_replica`` is the
    ensemble index of ``seeds[0]``; errors name replicas by ensemble index.

    Raises:
        StepSizeError: if a replica, before its last simulated epoch,
            enters a state whose summed event probability exceeds 1.
    """
    eng = _Engine(params, mode, dt, logistic)
    m = params.m
    n_rep = len(seeds)
    state = np.empty((n_rep, 3 * m), dtype=np.int64)
    state[:, :m] = init.s
    state[:, m : 2 * m] = init.a
    state[:, 2 * m :] = init.dd
    ext = np.where(state[:, m : 2 * m].sum(axis=1) == 0, 0, -1)

    out = _RunOutput(ext_epoch=ext, final=state)
    n_samples = (n_epochs // stride + 1) if stride else 0
    if stride:
        moments = np.zeros((n_samples, 2, 3 * m), dtype=np.int64)
        moments[0, 0] = state.sum(axis=0)
        moments[0, 1] = np.square(state).sum(axis=0)

    # slot i runs replica rid[i]; its buffer row holds the uniforms of
    # epochs base[i] .. base[i] + block - 1, padded with 2.0 (never fires)
    # past n_epochs, and ptr[i] is the next epoch it simulates
    rid = np.arange(n_rep) if n_epochs > 0 else np.arange(0)
    if not stride:
        rid = rid[ext[rid] < 0]
    n = rid.size
    block = min(_REPLAY_BLOCK, n_epochs)
    buf = np.full((n, block), 2.0)
    words = _pcg64_words(np.asarray(seeds, dtype=np.uint64)[rid])
    gens: list[np.random.Generator | None] = [None] * n
    if n_epochs <= _ARRAY_DRAW_EPOCHS:
        _pcg64_uniforms(words, n_epochs, buf)
    else:
        for i in range(n):
            g = np.random.Generator(np.random.PCG64(_Words(words[i])))
            g.random(out=buf[i])
            if block < n_epochs:
                gens[i] = g
    base = np.zeros(n, dtype=np.int64)
    ptr = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    # row o marks the columns at or after offset o
    at_or_after = np.arange(block)[None, :] >= np.arange(block + 1)[:, None]
    p = eng.make_buffers(n)
    q = np.empty_like(p)
    hit = np.empty((n, block), dtype=bool)
    ahead = np.empty_like(hit)

    while n:
        cur = state[rid]
        eng.fill_probabilities(cur, p)
        np.cumsum(p, axis=1, out=q)
        total = q[:, -1]
        over = active & (total > 1.0)
        if over.any():
            i = int(np.argmax(over))
            raise StepSizeError(
                f"summed event probability {total[i]:.6g} > 1 for replica "
                f"{first_replica + int(rid[i])} at epoch {int(ptr[i])} "
                f"(t = {int(ptr[i]) * dt:g}); decrease dt"
            )
        # first uniform at or after the pointer that fires an event
        np.less(buf, np.where(active, total, -1.0)[:, None], out=hit)
        np.take(at_or_after, ptr - base, axis=0, out=ahead)
        hit &= ahead
        first = hit.argmax(axis=1)
        fires = hit[np.arange(n), first]
        block_end = np.minimum(base + block, n_epochs)
        ptr = np.where(fires, base + first + 1, block_end)

        ev = np.flatnonzero(fires)
        if ev.size:
            r = rid[ev]
            old = state[r]
            d = eng.delta[_select(q[ev], buf[ev, first[ev]])]
            new = old + d
            state[r] = new
            done = ptr[ev]  # epochs simulated once the event has happened
            if stride:
                k = -(-done // stride)  # first sample that includes the event
                # an event adds d to its sample's sum and new^2 - old^2 = d (old + new)
                # to its sum of squares
                step = np.empty((ev.size, 2, 3 * m), dtype=np.int64)
                step[:, 0] = d
                np.add(old, new, out=step[:, 1])
                step[:, 1] *= d
                if n_epochs % stride:  # an event after the last sample is in none
                    seen = k < n_samples
                    k, step = k[seen], step[seen]
                np.add.at(moments, k, step)
                del step  # freed before the next round, so the peak stays per round
            gone = (ext[r] < 0) & (new[:, m : 2 * m].sum(axis=1) == 0)
            ext[r[gone]] = done[gone]
            if not stride:
                active[ev[gone]] = False

        spent = active & (ptr == block_end)
        active[spent & (block_end == n_epochs)] = False
        refill = np.flatnonzero(spent & active)
        if refill.size:
            base[refill] = block_end[refill]
            widths = np.minimum(n_epochs - base[refill], block)
            for i, width in zip(refill.tolist(), widths.tolist()):
                gens[i].random(out=buf[i, :width])
                if base[i] + width == n_epochs:
                    gens[i] = None
                    buf[i, width:] = 2.0

        # drop finished slots once they make up half the batch
        live = np.flatnonzero(active)
        if live.size <= n // 2:
            rid, buf, base, ptr = rid[live], buf[live], base[live], ptr[live]
            gens = [gens[i] for i in live]
            n = live.size
            active = np.ones(n, dtype=bool)
            p = eng.make_buffers(n)
            q = np.empty_like(p)
            hit = np.empty((n, block), dtype=bool)
            ahead = np.empty_like(hit)

    if stride:
        np.cumsum(moments, axis=0, out=moments)
        out.sums, out.sumsq = moments[:, 0], moments[:, 1]
    return out


def _chain_setup(
    params: ModelParams,
    init: DiscreteState,
    mode: str,
    dt: float,
    horizon: float = 0.0,
    sample_every: float | None = None,
) -> tuple[int, int]:
    """Validate a chain driver's inputs; return (epochs, epochs per sample)."""
    _check_mode(mode)
    if init.m != params.m:
        raise DomainError(f"init has {init.m} groups, params expect {params.m}")
    if mode == PAPER_LITERAL and abs(init.total() - params.n_total) > 1e-9:
        raise DomainError(
            f"paper_literal mode keeps the population constant: initial total "
            f"{init.total()} must equal n_total {params.n_total:g}"
        )
    dt = float(dt)
    horizon = float(horizon)
    if not np.isfinite(dt) or dt <= 0:
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(horizon) or horizon < 0:
        raise DomainError(f"horizon must be nonnegative and finite, got {horizon!r}")
    n_epochs = int(np.floor(horizon / dt + 1e-9))
    if sample_every is None:
        return n_epochs, 1
    return n_epochs, _multiple_of(float(sample_every), dt, "sample_every/dt")


def _check_seed(seed: int) -> int:
    """``seed`` as a Python int; DomainError unless it is an integer in [0, 2^64)."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value <= _MASK64:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return value


def simulate_replica(
    params: ModelParams,
    init: DiscreteState,
    dt: float,
    horizon: float,
    mode: str = FULL,
    seed: int = 0,
    *,
    sample_every: float | None = None,
    logistic: LogisticConfig | None = None,
) -> TrajectoryTable:
    """One chain trajectory, bit-reproducible from ``seed``.

    Records the state every ``sample_every`` time units (every epoch when
    None). The same inputs give the same trajectory on every run. The
    seed, an integer in [0, 2^64), seeds numpy's PCG64 as given, so
    replica r of an ensemble run with master seed s is reproduced by
    ``seed=derive_replica_seed(s, r)``.
    """
    seed = _check_seed(seed)
    n_epochs, stride = _chain_setup(params, init, mode, dt, horizon, sample_every)
    out = _run_replicas(params, mode, logistic, init, dt, n_epochs, [seed], stride=stride)
    m = params.m
    tr = out.sums.astype(float)
    n_samples = tr.shape[0]
    times = np.arange(n_samples) * (stride * dt)
    return TrajectoryTable(times=times, s=tr[:, :m], a=tr[:, m : 2 * m], dd=tr[:, 2 * m :])


def _replica_chunks(n_replicas: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_REPLICAS, n_replicas)) for lo in range(0, n_replicas, _CHUNK_REPLICAS)]


def monte_carlo_mean(
    params: ModelParams,
    init: DiscreteState,
    dt: float,
    horizon: float,
    mode: str = FULL,
    n_replicas: int = 100,
    seed: int = 0,
    *,
    sample_every: float | None = None,
    logistic: LogisticConfig | None = None,
) -> TrajectoryTable:
    """Mean trajectory over independent replicas, with sample spread.

    Replica r uses the generator seeded by derive_replica_seed(seed, r);
    the result is identical to averaging ``simulate_replica`` over those
    seeds. Spread is the sample standard deviation (ddof 1; all zeros when
    n_replicas is 1).
    """
    if n_replicas < 1:
        raise DomainError(f"n_replicas must be at least 1, got {n_replicas}")
    seed = _check_seed(seed)
    n_epochs, stride = _chain_setup(params, init, mode, dt, horizon, sample_every)
    sums = sumsq = 0
    for lo, hi in _replica_chunks(n_replicas):
        res = _run_replicas(
            params, mode, logistic, init, dt, n_epochs,
            _replica_seeds(seed, lo, hi),
            stride=stride, first_replica=lo,
        )
        sums = sums + res.sums
        sumsq = sumsq + res.sumsq
    n = float(n_replicas)
    mean = sums / n
    if n_replicas == 1:
        sd = np.zeros_like(mean)
    else:
        var = (sumsq - n * mean * mean) / (n - 1.0)
        sd = np.sqrt(np.maximum(var, 0.0))
    m = params.m
    n_samples = mean.shape[0]
    times = np.arange(n_samples) * (stride * dt)
    return TrajectoryTable(
        times=times,
        s=mean[:, :m],
        a=mean[:, m : 2 * m],
        dd=mean[:, 2 * m :],
        sd_s=sd[:, :m],
        sd_a=sd[:, m : 2 * m],
        sd_dd=sd[:, 2 * m :],
    )


@dataclass(frozen=True, eq=False)
class ExtinctionSummary:
    """Per-replica extinction times plus their mean and spread.

    ``times`` holds the first time with no actives anywhere, NaN for
    replicas still active at the horizon (censored). ``mean``/``spread``
    cover uncensored replicas only; both are None when every replica was
    censored.
    """

    times: np.ndarray
    mean: float | None
    spread: float | None
    n_censored: int
    horizon: float
    dt: float


def extinction_time_stochastic(
    params: ModelParams,
    init: DiscreteState,
    dt: float,
    horizon: float,
    mode: str = FULL,
    n_replicas: int = 100,
    seed: int = 0,
    *,
    logistic: LogisticConfig | None = None,
) -> ExtinctionSummary:
    """First-passage times to a state with no actives, over an ensemble.

    Uses the same per-replica seed derivation as :func:`monte_carlo_mean`,
    so replica r sees the same chain prefix in both drivers.
    """
    if n_replicas < 1:
        raise DomainError(f"n_replicas must be at least 1, got {n_replicas}")
    seed = _check_seed(seed)
    n_epochs, _ = _chain_setup(params, init, mode, dt, horizon)
    epochs = np.concatenate([
        _run_replicas(
            params, mode, logistic, init, dt, n_epochs,
            _replica_seeds(seed, lo, hi), first_replica=lo,
        ).ext_epoch
        for lo, hi in _replica_chunks(n_replicas)
    ])
    times = np.where(epochs >= 0, epochs * dt, np.nan)
    done = times[np.isfinite(times)]
    n_censored = int(n_replicas - done.size)
    if done.size == 0:
        mean = spread = None
    else:
        mean = float(done.mean())
        spread = float(done.std(ddof=1)) if done.size > 1 else 0.0
    return ExtinctionSummary(
        times=times, mean=mean, spread=spread,
        n_censored=n_censored, horizon=float(horizon), dt=float(dt),
    )


@dataclass(frozen=True, eq=False)
class ExactPropagation:
    """Exact law of the single-group constant-population chain.

    ``states`` lists (s, a) pairs in lexicographic order (d is the
    remainder); ``final_p`` is the probability vector after the last
    step; ``e_s``/``e_a``/``e_d`` are expected counts per step and
    ``mass`` the total probability per step.
    """

    states: np.ndarray
    times: np.ndarray
    e_s: np.ndarray
    e_a: np.ndarray
    e_d: np.ndarray
    mass: np.ndarray
    final_p: np.ndarray


def _simplex_index(n: int, s, a):
    """Place of (s, a) in the lexicographic order of {(s, a): s + a <= n}."""
    return s * (n + 1) - s * (s - 1) // 2 + a


def _exact_kernel(params: ModelParams, n: int, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """States (s, a) of the m = 1 paper_literal chain with N = n, and its kernel.

    One :class:`_Engine` call fills every state's event probabilities,
    with the arithmetic of :func:`event_probabilities` row by row. The
    kernel is three arrays ``(row, col, val)``: column by column, state
    j's nonzero event entries in canonical order, then its no_event entry
    on the diagonal.

    Raises:
        StepSizeError: for the first state, in lexicographic order, whose
            summed event probability exceeds 1.
    """
    s = np.repeat(np.arange(n + 1, dtype=np.int64), np.arange(n + 1, 0, -1))
    a = np.arange(s.size, dtype=np.int64) - _simplex_index(n, s, 0)
    eng = _Engine(params, PAPER_LITERAL, dt, None)
    prob = eng.probabilities(np.column_stack([s, a, n - s - a]))
    total = np.cumsum(prob, axis=1)[:, -1]
    over = np.flatnonzero(total > 1.0)
    if over.size:
        raise StepSizeError(f"summed event probability {float(total[over[0]]):.6g} > 1; decrease dt")

    vals = np.column_stack([prob, 1.0 - total])
    keep = vals != 0.0
    keep[:, -1] = True
    col, ev = np.nonzero(keep)
    row = _simplex_index(n, s[col] + eng.delta[ev, 0], a[col] + eng.delta[ev, 1])
    return np.column_stack([s, a]), row, col, vals[keep]


def exact_propagation(params: ModelParams, init: DiscreteState, dt: float, n_steps: int) -> ExactPropagation:
    """Propagate the full state distribution of the m = 1 chain exactly.

    Builds the sparse one-epoch kernel (at most 5 nonzeros per column)
    over every reachable state {(s, a): s + a <= N} in one array pass
    and applies it ``n_steps`` times to a point mass at ``init``. A step
    is one ``np.bincount``, which adds each row's products in column
    order from 0.0, as a CSR matvec does. Runs in paper_literal mode
    (constant N).

    Raises:
        StepSizeError: if the summed event probability exceeds 1 at any
            reachable state (dt too large); raised before any step.
        NumericError: if the probability mass drifts from 1 by more than
            1e-12 at any step.
    """
    if params.m != 1:
        raise DomainError(f"exact propagation supports m = 1 only, got m = {params.m}")
    _chain_setup(params, init, PAPER_LITERAL, dt)
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")
    n = init.total()
    states, row, col, val = _exact_kernel(params, n, dt)

    p = np.zeros(states.shape[0])
    p[_simplex_index(n, int(init.s[0]), int(init.a[0]))] = 1.0
    s_vals = states[:, 0].astype(float)
    a_vals = states[:, 1].astype(float)
    e_s = np.empty(n_steps + 1)
    e_a = np.empty(n_steps + 1)
    mass = np.empty(n_steps + 1)
    for step in range(n_steps + 1):
        if step > 0:
            p = np.bincount(row, weights=val * p[col], minlength=p.size)
        mass[step] = p.sum()
        if abs(mass[step] - 1.0) > 1e-12:
            raise NumericError(f"probability mass drifted to {mass[step]!r} at step {step}")
        e_s[step] = s_vals @ p
        e_a[step] = a_vals @ p
    e_d = n - e_s - e_a
    times = np.arange(n_steps + 1) * dt
    return ExactPropagation(
        states=states, times=times, e_s=e_s, e_a=e_a, e_d=e_d, mass=mass, final_p=p
    )
