"""Discrete-time Markov-chain engine for the group-structured model.

The chain advances in fixed epochs of length dt with at most one event
per epoch. Event kinds, their per-epoch probabilities (rate times dt)
and the state updates:

    activate(i)    S_i -> A_i   sum_j lam_ij(a) * s_i
    deactivate(i)  A_i -> D_i   phi_i * a_i
    return(i)      D_i -> S_i   delta_i * dd_i
    withdraw(i)    S_i -> D_i   rho_i * s_i
    death_s(i)     S_i -> gone  d_i * s_i
    death_a(i)     A_i -> gone  d_i * a_i
    death_d(i)     D_i -> gone  d_i * dd_i
    birth(i)       +1 in S_i    b_i
    no_event                    1 - sum of the above

Both modes run this one chain, and a mode only chooses its rates
(``_mode_rates``). "full" takes the rates as given, so the population
varies. "paper_literal" is the constant-population model: it has no
births, and each death becomes a move to D, so it runs on b = d = 0,
phi + d and rho + d. Its table lists the first four kinds only.

Reproducibility contract, version 2 (v1 drew one PCG64 uniform per epoch):

* Events are enumerated in the canonical order activate(1..m),
  deactivate(1..m), return(1..m), withdraw(1..m), then in full mode
  death_s(1..m), death_a(1..m), death_d(1..m), birth(1..m), and finally
  no_event. With q the running sums (``np.cumsum``) of the event
  probabilities in that order, T = q[last] is the summed event
  probability of an epoch. When b = d = 0 and the coupling is constant,
  the death and birth entries are zeros at the end of the order, which
  move neither T nor the selected event, so the engine leaves them out.
* Replica r of an ensemble has the seed derive_replica_seed(seed, r): the
  SplitMix64 finalizer mix64 applied to (seed + (r + 1) * 0x9E3779B97F4A7C15)
  mod 2^64. Its uniforms are the same hash over a counter,
  u_k = (mix64(seed_r + k * 0x9E3779B97F4A7C15) >> 11) * 2^-53, k >= 1
  (Steele, Lea & Flood 2014, OOPSLA).
* Between events the state, and with it q, is constant, so the number of
  epochs up to and including the next event is geometric with
  parameter T. The replica's j-th event (from 0) reads the gap uniform
  u = u_{2j+1} and the choice uniform v = u_{2j+2}. It fires
  K = max(1, ceil(np.log1p(-u) / np.log1p(-T))) epochs after the previous
  one, if that is within the horizon; T = 0 never fires and T = 1 fires
  every epoch. It is event min(#(q <= v T), #(q < T)): event k iff
  q[k-1] <= v T < q[k] (q[-1] read as 0), and the last event of positive
  probability at the rounding edge v T == T. An event of probability 0
  never fires. The gap uses numpy's ``log1p``, so the bits hold per numpy
  build and CPU: ``math.log1p`` differs from it in the last bit on some
  inputs.
* An ensemble streams through one batch of at most 1024 slots. When half
  the slots are finished, the next replicas in index order take their
  places; the batch shrinks only once none are left. Its reductions are
  exact integer sums, which no order of addition changes, so the batch
  width never enters an output's bits. A single replica's trajectory is
  the same sum over a one-replica batch.
* A round moves every running replica by one event. The first round in
  which a running replica would simulate an epoch from a state whose
  summed event probability exceeds 1 raises StepSizeError, naming the
  lowest ensemble index among the overloaded replicas; a nan sum raises
  NumericError there, naming the first nan event. Replicas past the
  first 1024 start at a refill, so which one that is can depend on the
  batch width; an ensemble of at most 1024 replicas starts whole.

A batch advances from event to event, so its cost grows with the events
rather than the epochs. It is held in column layout, one row per
compartment or event and one column per replica, so each array operation
of a round is one pass over the replicas. Every running replica fires one
event per round, so the uniforms of its next events are known ahead: a
batch of at most 256 slots hashes those of 16 events at once, in one pass
with their log1p(-u), and a wider one those of a single event. One
routine, ``_running_sums``, forms every running sum of a round in place
and top to bottom, with the adds of ``np.cumsum``: q, and the activation
scale gamma . a as the left-to-right sum of the products a_i gamma_i. It
uses ufuncs rather than BLAS, so a replica's probabilities, and with them
its path, have the same bits alone and in a batch of any width.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import DomainError, NumericError, StepSizeError
from .integrate import _check_cells, _multiple_of
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

# an ensemble streams through a batch of at most this many slots
_BATCH_SLOTS = 1024
# _running_sums adds an array wider than this row by row: np.add.accumulate runs one inner loop per
# column, slower from 128-256 columns at 4 to 64 rows. A batch opened wider is wide (see _run_replicas)
_ROW_SUM_SLOTS = 256
# a narrow batch hashes the uniforms of this many events per slot at once, a wide one those of one
_AHEAD = 16
# event j of a replica hashes seed + (2j + 1) gamma and seed + (2j + 2) gamma, so from the key
# seed + 2j gamma event j + l hashes the key plus _AHEAD_WORDS[:, l]; _KEY_STEPS[k] is k events' 2k gamma
# (uint64 arrays: numpy's uint64 scalars warn where they wrap)
_AHEAD_WORDS = np.array([[[(k * _GOLDEN) & _MASK64] for k in range(g, 2 * _AHEAD + 1, 2)] for g in (1, 2)],
                        dtype=np.uint64)
_KEY_STEPS = np.array([(2 * k * _GOLDEN) & _MASK64 for k in range(_AHEAD + 1)], dtype=np.uint64)
_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MIX_MULS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_U53_SHIFT = np.uint64(11)


def derive_replica_seed(seed: int, index: int) -> int:
    """Per-replica 64-bit seed: SplitMix64 finalizer over (seed, index).

    Any integer ``seed`` is accepted and reduced mod 2^64, so -1 and
    2^64 - 1 give the same replica seeds. The chain drivers
    (``simulate_replica``, ``monte_carlo_mean`` and
    ``extinction_time_stochastic``) accept a seed only in [0, 2^64) and
    raise DomainError otherwise.
    """
    return int(_mix64(np.array([(int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64], dtype=np.uint64))[0])


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array, in place."""
    z ^= z >> _MIX_SHIFTS[0]
    z *= _MIX_MULS[0]
    z ^= z >> _MIX_SHIFTS[1]
    z *= _MIX_MULS[1]
    z ^= z >> _MIX_SHIFTS[2]
    return z


def _replica_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_replica_seed(seed, r)`` for r in [lo, hi), as uint64."""
    return _mix64(np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(int(seed) & _MASK64))


class Event(NamedTuple):
    """One transition kind; group is 1-based, None for no_event."""

    kind: str
    group: int | None


def _check_mode(mode: str) -> None:
    if mode not in (PAPER_LITERAL, FULL):
        raise DomainError(f"mode must be '{PAPER_LITERAL}' or '{FULL}', got {mode!r}")


def _mode_rates(params: ModelParams, mode: str) -> dict[str, np.ndarray]:
    """The full model's b, d, rho and phi that ``mode`` runs: the identity for
    full; b = d = 0, phi + d and rho + d for paper_literal. Idempotent."""
    _check_mode(mode)
    if mode == FULL:
        return {"b": params.b, "d": params.d, "rho": params.rho, "phi": params.phi}
    zero = np.zeros(params.m)
    return {"b": zero, "d": zero, "rho": params.rho + params.d, "phi": params.phi + params.d}


def canonical_events(m: int, mode: str) -> tuple[Event, ...]:
    """All events in the documented selection order, no_event last."""
    _check_mode(mode)
    kinds = list(_EVENT_DELTAS)[: 8 if mode == FULL else 4]
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
        object.__setattr__(self, "s", _count_array("s", self.s))
        for name in ("a", "dd"):
            object.__setattr__(self, name, _count_array(name, getattr(self, name), self.m))

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


# (s, a, dd) increments of each event kind in its own group, in canonical order
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


@functools.lru_cache
def _delta_tables(m: int, n_events: int) -> np.ndarray:
    """Read-only increments to the (s, a, dd) rows of a state: one column for
    each of the first ``n_events`` events in canonical order, then no_event's zeros."""
    steps = np.array(list(_EVENT_DELTAS.values())[: n_events // m], dtype=np.int64).T
    delta = np.zeros((3 * m, n_events + 1), dtype=np.int64)
    delta[:, :-1] = np.kron(steps, np.eye(m, dtype=np.int64))
    delta.setflags(write=False)
    return delta


class _Engine:
    """Per-event probability tables for a batch of replicas, one column per replica.

    The rates are those of :func:`_mode_rates`; the death and birth rows
    are left out when b = d = 0 and the coupling is constant.
    """

    def __init__(self, params: ModelParams, mode: str, dt: float, logistic: LogisticConfig | None):
        rates = _mode_rates(params, mode)
        dt = float(dt)
        if not np.isfinite(dt) or dt <= 0:
            raise DomainError(f"dt must be positive and finite, got {dt!r}")
        if logistic is not None and not logistic.enabled:
            logistic = None
        self.logistic = logistic
        m = params.m
        self.m = m
        b, d = rates["b"], rates["d"]
        self.n_events = 8 * m if logistic is not None or b.any() or d.any() else 4 * m
        self.delta = _delta_tables(m, self.n_events)
        self.gamma = params.gamma[:, None]
        lg = (0.0, 1.0) if logistic is None else (logistic.growth_rate, logistic.capacity)
        # a coefficient that overflows is refused below, without numpy's warnings first
        with np.errstate(over="ignore", invalid="ignore"):
            # activation: prob = alpha*eps_i*(gamma . a)/den * s_i * dt, with
            # den = n_total (constant coupling) or the replica population (logistic)
            self.act_num = (params.alpha * dt * params.eps)[:, None]
            self.act_const = self.act_num / params.n_total
            self.c_withd = (rates["rho"] * dt)[:, None]
            # deactivate and return rows line up with the (a, dd) rows of the
            # state, the death rows with all of them, so each is one multiply
            self.c_mid = np.concatenate([rates["phi"] * dt, params.delta * dt])[:, None]
            self.c_death3 = (np.concatenate([d, d, d]) * dt)[:, None]
            self.c_birth = (b * dt)[:, None]
            # the logistic death and birth rows are these times the replica's population
            r_dt = np.float64(lg[0]) * dt
            self.lg_death, self.lg_birth = r_dt / lg[1], r_dt / m
        named = (("alpha * dt * eps_{}", self.act_num), ("alpha * dt * eps_{} / n_total", self.act_const),
                 ("phi_{} * dt", self.c_mid[:m]), ("delta_{} * dt", self.c_mid[m:]), ("rho_{} * dt", self.c_withd),
                 ("d_{} * dt", self.c_death3[:m]), ("b_{} * dt", self.c_birth),
                 ("growth_rate * dt / capacity", self.lg_death), ("growth_rate * dt / m", self.lg_birth))
        values = np.concatenate([np.ravel(coef) for _, coef in named])
        finite = np.isfinite(values)
        if not finite.all():  # name the first, counting groups from 1
            k = int(np.argmin(finite))
            name = [name.format(i + 1) for name, coef in named for i in range(np.size(coef))][k]
            raise NumericError(f"event coefficient {name} = {float(values[k])!r} is not finite")

    def fill_probabilities(self, state: np.ndarray, p: np.ndarray) -> None:
        """Write the event probabilities of the (3m, replicas) ``state`` into every row of ``p``.

        Activation is ``coef * s_i * scale``; ``scale = gamma . a`` is summed left
        to right by :func:`_running_sums`, divided by the replica's population
        under the logistic coupling, which also sets the death and birth rows from it.
        """
        m = self.m
        s = state[:m]
        scale = _running_sums(state[m : 2 * m] * self.gamma)[-1]
        if self.logistic is None:
            coef, death, birth = self.act_const, self.c_death3, self.c_birth
        else:
            total = state.sum(axis=0).astype(float)
            scale /= np.where(total > 0, total, 1.0)  # rates all vanish at N = 0
            coef = self.act_num
            death, birth = self.lg_death * total, self.lg_birth * total
        np.multiply(s, coef, out=p[:m])
        p[:m] *= scale
        np.multiply(state[m:], self.c_mid, out=p[m : 3 * m])
        np.multiply(s, self.c_withd, out=p[3 * m : 4 * m])
        if self.n_events > 4 * m:
            np.multiply(state, death, out=p[4 * m : 7 * m])
            p[7 * m :] = birth

    def probabilities(self, state: np.ndarray) -> np.ndarray:
        """The transpose of :meth:`fill_probabilities` for the flat (s, a, dd) rows ``state``."""
        p = np.empty((self.n_events, state.shape[0]))
        self.fill_probabilities(state.T, p)
        return p.T


def _running_sums(q: np.ndarray) -> np.ndarray:
    """``q``'s running sums down its rows, in place: one accumulate, or one add per row past
    ``_ROW_SUM_SLOTS`` columns; both make the adds of ``np.cumsum(q, axis=0)`` in its order."""
    if q.shape[1] <= _ROW_SUM_SLOTS:
        return np.add.accumulate(q, axis=0, out=q)
    for k in range(1, q.shape[0]):
        np.add(q[k - 1], q[k], out=q[k])
    return q


def _refuse_total(sums: np.ndarray, m: int, where: str = "") -> NoReturn:
    """Refuse a state whose running sums ``sums`` of its event probabilities end above 1 or in nan.

    A total above 1, inf too, is StepSizeError: dt is too large. A nan one is
    no overload but an infinite factor times zero, as gamma . a overflowing
    beside s_i = 0: NumericError naming the first nan event (the
    probabilities are nonnegative, so the first nan sum is that event's).
    """
    total = float(sums[-1])
    if math.isnan(total):
        k = int(np.argmax(np.isnan(sums)))
        raise NumericError(f"event probability of {list(_EVENT_DELTAS)[k // m]}({k % m + 1}) is nan{where}: "
                           f"an infinite factor times zero")
    raise StepSizeError(f"summed event probability {total:.6g} > 1{where}; decrease dt")


def _select(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per column r of running sums ``q``, ``np.searchsorted(q[:, r], x[r], side="right")``.

    Event k iff q[k-1] <= x < q[k]; no_event (``q.shape[0]``) iff x >= q[-1].
    """
    return np.add.reduce(q <= x, axis=0)


def event_probabilities(params: ModelParams, state: DiscreteState, dt: float, mode: str) -> TransitionTable:
    """One-epoch transition table at ``state``.

    Probabilities appear in the canonical event order; no_event is the
    complement of their ordered sum.

    Raises:
        StepSizeError: if the summed event probability exceeds 1 at this
            state (dt too large).
        NumericError: if it is nan, naming the first nan event.
    """
    if state.m != params.m:
        raise DomainError(f"state has {state.m} groups, params expect {params.m}")
    eng = _Engine(params, mode, dt, None)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan total is refused below
        row = eng.probabilities(np.concatenate([state.s, state.a, state.dd])[None, :])[0]
    sums = np.cumsum(row)
    total = float(sums[-1])
    if not total <= 1.0:  # nan too
        _refuse_total(sums, params.m)
    events = canonical_events(params.m, mode)
    # full mode's death and birth entries are zeros where the engine leaves them out
    probs = dict.fromkeys(events[:-1], 0.0)
    probs.update(zip(events, row.tolist()))
    probs[events[-1]] = 1.0 - total
    return TransitionTable(probabilities=probs, dt=float(dt))


# the fraction of the rate bound's reciprocal that max_stable_dt returns
_STABILITY_SAFETY = 0.9


def max_stable_dt(params: ModelParams, n: float, *, logistic: LogisticConfig | None = None) -> float:
    """Largest epoch length guaranteed valid for compartment counts up to n.

    Bounds the total event rate by maximizing every channel independently
    with all compartment counts at ``n`` (paper_literal's folded channels
    included, so the bound covers both modes on ``params``' rates) and
    returns 0.9 divided by the bound. With every rate zero the bound is
    vacuous and ``math.inf`` is returned.

    With ``logistic`` enabled, birth and death rates scale with the live
    population, so the bound instead covers every population up to
    P = max(n, 1.5 K) (the chain fluctuates around the capacity K and
    needs headroom above it): each channel's per-capita rate is maximized
    over the groups, activation by alpha max(eps) max(gamma), and the
    logistic births and deaths contribute r (1 + P / K) per head.

    Raises NumericError, naming the bound, when 0.9 divided by it is not
    a positive normal float, as when the bound overflows.
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
    dt = _STABILITY_SAFETY / r_max
    if not dt >= sys.float_info.min:  # 0.0, subnormal, or nan
        raise NumericError(f"total event rate bound {r_max!r} is too large for a stable epoch "
                           f"length: 0.9 / bound = {dt!r}")
    return dt


@dataclass
class _RunOutput:
    final: np.ndarray                     # (3m,) int64 sum over replicas of the last simulated states
    ext_epoch: np.ndarray | None = None   # (replicas,) first passage: epochs until no actives, -1 if none
    sums: np.ndarray | None = None        # (samples, 3m) int64 sum over replicas
    sumsq: np.ndarray | None = None       # (samples, 3m) int64 sum of squares
    # in a sampled run final, sums and sumsq are views of one (samples + 1, 2, 3m) array


class _ReplicaSeeds:
    """The seeds of replicas 0..n-1 of a master ``seed``; a slice derives only its own."""

    def __init__(self, seed: int, n: int):
        self.seed, self.n = seed, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: slice) -> np.ndarray:
        lo, hi, _ = index.indices(self.n)
        return _replica_seeds(self.seed, lo, hi)


def _run_replicas(
    params: ModelParams,
    mode: str,
    logistic: LogisticConfig | None,
    init: DiscreteState,
    dt: float,
    n_epochs: int,
    seeds: np.ndarray | list[int] | _ReplicaSeeds,
    *,
    stride: int = 0,
) -> _RunOutput:
    """Advance an ensemble from event to event, two uniforms per event.

    Each replica runs in a slot, a column of every array of the round, with
    an epoch pointer and the key of its uniforms. A round fills the event
    probabilities of every slot, reads its gap and choice uniforms (see the
    module docstring), moves the pointer to the epoch of the next event and
    applies it; a slot that does not fire applies the zero no_event column.
    A replica whose next event falls past ``n_epochs`` is finished. The
    batch holds at most ``_BATCH_SLOTS`` slots; once half of them are
    finished they are dropped and the next replicas, in index order, take
    their places, so the batch shrinks only when none are left. Slots stay
    in replica order. Samples are recorded as per-sample differences and
    summed at the end.

    A round writes every row of one probability buffer and turns it into
    its running sums in place with :func:`_running_sums`, at any width. A
    running slot fires in every round, so a batch of at most
    ``_ROW_SUM_SLOTS`` slots hashes the uniforms of its slots' next
    ``_AHEAD`` events in one block, a wider batch those of one event, and
    every key moves past the block at once. Dropping the finished slots
    rewinds the kept slots' keys by the events of the block they did not
    reach and opens a new block, so event j still reads the words 2j + 1
    and 2j + 2.

    ``stride`` chooses the run. With ``stride > 0`` every replica runs all
    ``n_epochs`` and the state is sampled every ``stride`` epochs, as the
    int64 sums over replicas of the samples and of their squares in
    ``sums`` and ``sumsq``. With ``stride == 0`` nothing is sampled and the
    run is a first passage: a replica stops at the epoch in which its
    actives run out, and the run returns each replica's extinction epoch,
    the only array that grows with the ensemble. Every run returns the sum
    over replicas of their last simulated states in ``final``; for a
    one-replica batch the sums are the replica's own.

    ``seeds`` are the replicas' 64-bit seeds: a sequence, a uint64 array,
    or a :class:`_ReplicaSeeds`, which derives them as they are taken.
    Errors name replicas by their index in ``seeds``.

    Raises:
        StepSizeError: if a replica, before its last simulated epoch,
            enters a state whose summed event probability exceeds 1. The
            first round in which a running slot is overloaded raises, and
            names the lowest replica index among its overloaded slots.
        NumericError: if that sum is nan instead, naming the first nan event.
    """
    eng = _Engine(params, mode, dt, logistic)
    m = params.m
    n_rep = len(seeds)
    start = np.concatenate([init.s, init.a, init.dd])
    extinct0 = init.a.sum() == 0
    n_run = n_rep if n_epochs > 0 and (stride or not extinct0) else 0  # replicas with epochs to run
    if stride:
        n_samples = n_epochs // stride + 1
        # sample n_samples takes the events after the last sample, so after
        # the running sum it holds the summed last states
        moments = np.zeros((n_samples + 1, 2, 3 * m), dtype=np.int64)
        moments[0] = n_rep * np.stack([start, np.square(start)])
        flat = moments.reshape(-1)
        rows = np.arange(6 * m)[:, None]  # the places of the sums and then the squares in a sample
    else:
        ext_epoch = np.full(n_rep, 0 if extinct0 else -1)
        final = (n_rep - n_run) * start

    # slot i, column i of ``cols``, runs replica rid[i] from state[:, i]; ptr[i] epochs are simulated.
    # key[i] (its row read as uint64) is seed + 2j gamma (mod 2^64) before the event j that opens the
    # last block of uniforms, plus the block's ``ahead`` events, of which ``used`` are spent. Every
    # array of a round is the C-contiguous front of a buffer made once, at the batch's widest
    width = min(_BATCH_SLOTS, n_run)
    # a batch opened past _ROW_SUM_SLOTS is wide, which sets two things, each measured at every width:
    # - a wide batch hashes one event ahead, since the block lives through the selection, where a wide
    #   batch peaks; a narrow one hashes _AHEAD;
    # - a wide batch scatters its samples' sums and squares by two (3m, n) indices. One (6m, n) index
    #   raised its traced peak from 230 to 327 B a slot, and a broadcast (sample, row) index to 283 B.
    #   A narrow batch takes the one index: the split form costs about 3% of a chain_sparse pass and
    #   5-8% of a simulate_replica call
    wide = width > _ROW_SUM_SLOTS
    ahead = 1 if wide else _AHEAD
    slots = np.empty((3 + 3 * m) * width, dtype=np.int64)
    flags = np.empty(width, dtype=bool)
    probs = np.empty(eng.n_events * width)
    scratch = np.empty(6 * m * width, dtype=np.int64)  # d and work below
    block = np.empty(2 * ahead * width, dtype=np.uint64)  # the (gap, choice) uniforms of the next events
    taken = n = 0  # replicas [taken, n_run) wait for a slot
    used = ahead
    cols, active = np.empty((3 + 3 * m, 0), dtype=np.int64), flags[:0]

    # log1p(-T) is -0.0 at T = 0 and -inf at T = 1; a finished slot's T may exceed 1, and a
    # running slot's T that overflows or is nan (inf * 0) is refused below, without warnings first
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            # half the slots are finished (none at the start): write them
            # back, drop them and give their places to the next replicas
            if not stride:  # a finished slot without actives went extinct at its last event
                done = cols[:, ~active]
                final += np.add.reduce(done[3:], axis=1)
                ext_epoch[done[0]] = np.where(np.add.reduce(done[3 + m : 3 + 2 * m], axis=0) == 0, done[2], -1)
            kept = np.count_nonzero(active)
            new = min(width - kept, n_run - taken)
            n = kept + new
            if not n:
                break
            slots[: (3 + 3 * m) * n].reshape(-1, n)[:, :kept] = cols[:, active]
            cols, active = slots[: (3 + 3 * m) * n].reshape(-1, n), flags[:n]
            rid, key, ptr, state = cols[0], cols[1].view(np.uint64), cols[2], cols[3:]
            # every running slot fired once in each round of the block: its key goes back to its next event
            key[:kept] -= _KEY_STEPS[ahead - used]
            used = ahead
            uv = block[: 2 * ahead * n].reshape(2, ahead, n)
            neg_uv = uv.view(np.float64)  # once hashed, log1p(-u) and -v: a power-of-two scale is exact
            rid[kept:] = np.arange(taken, taken + new)
            key[kept:] = seeds[taken : taken + new]
            cols[2:, kept:] = np.concatenate([[0], start])[:, None]
            taken += new
            active[:] = True
            q = probs[: eng.n_events * n].reshape(-1, n)  # the event probabilities, then their running sums
            d, work = scratch[: 6 * m * n].reshape(2, 3 * m, n)
            while np.count_nonzero(active) > n // 2:
                eng.fill_probabilities(state, q)
                total = _running_sums(q)[-1]
                if not np.maximum.reduce(total, where=active, initial=0.0) <= 1.0:  # nan too
                    i = int(np.argmax(active & ~(total <= 1.0)))  # the lowest replica: slots are in order
                    _refuse_total(q[:, i], m, f" for replica {int(rid[i])} at epoch {int(ptr[i])} "
                                              f"(t = {int(ptr[i]) * dt:g})")
                if used == ahead:  # hash the gap and choice uniforms of the next ``ahead`` events
                    np.add(key, _AHEAD_WORDS[:, :ahead], out=uv)
                    _mix64(uv)
                    uv >>= _U53_SHIFT
                    np.multiply(uv, -(2.0**-53), out=neg_uv)
                    np.log1p(neg_uv[0], out=neg_uv[0])
                    key += _KEY_STEPS[ahead]
                    used = 0
                log_u, neg_v = neg_uv[0, used], neg_uv[1, used]
                used += 1
                neg_total = -total
                # the epoch of the next event; inf or nan (T = 0) never fires
                nxt = ptr + np.maximum(np.ceil(log_u / np.log1p(neg_total)), 1.0)
                fires = nxt <= n_epochs
                fires &= active
                np.less(nxt, n_epochs, out=active, where=active)  # an event in the last epoch ends the run
                np.copyto(ptr, nxt, where=fires, casting="unsafe")
                del nxt
                # x = v T = (-v)(-T), capped below T: q <= the float before T iff
                # q < T, so x == T selects the last event of positive probability;
                # a slot that does not fire reads x = inf, no_event. Every event
                # index is in range, so take need not check it
                x = np.where(fires, np.minimum(neg_v * neg_total, np.nextafter(total, 0.0)), np.inf)
                del neg_total  # freed before the selection, where a wide batch peaks
                np.take(eng.delta, _select(q, x), axis=1, out=d, mode="clip")
                state += d
                if stride:
                    # d to the sums of the event's first sample, new^2 - old^2 = d (2 new - d) to its squares,
                    # each half by one (3m, n) index if wide, else both by one (6m, n) index
                    k = (ptr + (stride - 1)) // stride * (6 * m)
                    if wide:
                        np.add(rows[: 3 * m], k, out=work)
                        np.add.at(flat, work.ravel(), d.ravel())
                    np.add(state, state, out=work)
                    work -= d
                    work *= d
                    if wide:
                        np.add(rows[3 * m :], k, out=d)
                        np.add.at(flat, d.ravel(), work.ravel())
                    else:
                        np.add.at(flat, (rows + k).ravel(), scratch[: 6 * m * n])
                else:
                    np.copyto(active, False, where=np.add.reduce(state[m : 2 * m], axis=0) == 0)  # no actives

    if not stride:
        return _RunOutput(final=final, ext_epoch=ext_epoch)
    np.cumsum(moments, axis=0, out=moments)
    return _RunOutput(final=moments[n_samples, 0], sums=moments[:n_samples, 0], sumsq=moments[:n_samples, 1])


def _chain_setup(
    params: ModelParams,
    init: DiscreteState,
    mode: str,
    dt: float,
    horizon: float = 0.0,
    sample_every: float | None = None,
    logistic: LogisticConfig | None = None,
    *,
    sampled: bool = True,
) -> tuple[int, int]:
    """Validate a chain driver's inputs; return (epochs, epochs per sample).

    A ``sampled`` run's table must fit the cell budget of :func:`_check_cells`.
    """
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
    for name, span in (("horizon", horizon), ("sample_every", dt if sample_every is None else sample_every)):
        if span / dt > 2.0**53:
            raise DomainError(f"{name}/dt = {span / dt:.6g} epochs is past 2^53, beyond exact epoch counts")
    n_epochs = int(np.floor(horizon / dt + 1e-9))
    stride = 1 if sample_every is None else _multiple_of(float(sample_every), dt, "sample_every/dt")
    if sampled:
        _check_cells(n_epochs // stride + 1, 3 * params.m, "samples")
    _check_logistic_mode(mode, logistic is not None and logistic.enabled)
    return n_epochs, stride


def _check_logistic_mode(mode: str, enabled: bool) -> None:
    """DomainError if the logistic coupling is ``enabled`` under paper_literal ``mode``."""
    if enabled and mode == PAPER_LITERAL:
        raise DomainError("logistic coupling needs full mode; paper_literal holds N constant")


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
    seed, an integer in [0, 2^64), is the replica's own seed, so replica
    r of an ensemble run with master seed s is reproduced by
    ``seed=derive_replica_seed(s, r)``.
    """
    seed = _check_seed(seed)
    n_epochs, stride = _chain_setup(params, init, mode, dt, horizon, sample_every, logistic)
    # the int64 moments are freed here, before the table is built
    tr = _run_replicas(params, mode, logistic, init, dt, n_epochs, [seed], stride=stride).sums.astype(float)
    s, a, dd = np.split(tr, 3, axis=1)
    return TrajectoryTable(times=np.arange(tr.shape[0]) * (stride * dt), s=s, a=a, dd=dd)


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

    Replica r uses the stream of derive_replica_seed(seed, r);
    the result is identical to averaging ``simulate_replica`` over those
    seeds. Spread is the sample standard deviation (ddof 1; all zeros when
    n_replicas is 1).
    """
    if n_replicas < 1:
        raise DomainError(f"n_replicas must be at least 1, got {n_replicas}")
    seed = _check_seed(seed)
    n_epochs, stride = _chain_setup(params, init, mode, dt, horizon, sample_every, logistic)
    res = _run_replicas(params, mode, logistic, init, dt, n_epochs, _ReplicaSeeds(seed, n_replicas), stride=stride)
    n = float(n_replicas)
    mean = res.sums / n
    if n_replicas == 1:
        sd = np.zeros_like(mean)
    else:
        var = (res.sumsq - n * mean * mean) / (n - 1.0)
        sd = np.sqrt(np.maximum(var, 0.0))
    s, a, dd = np.split(mean, 3, axis=1)
    sd_s, sd_a, sd_dd = np.split(sd, 3, axis=1)
    return TrajectoryTable(times=np.arange(mean.shape[0]) * (stride * dt), s=s, a=a, dd=dd,
                           sd_s=sd_s, sd_a=sd_a, sd_dd=sd_dd)


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
    n_epochs, _ = _chain_setup(params, init, mode, dt, horizon, logistic=logistic, sampled=False)
    epochs = _run_replicas(params, mode, logistic, init, dt, n_epochs, _ReplicaSeeds(seed, n_replicas)).ext_epoch
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
            summed event probability exceeds 1; NumericError if that sum is nan.
    """
    s = np.repeat(np.arange(n + 1, dtype=np.int64), np.arange(n + 1, 0, -1))
    a = np.arange(s.size, dtype=np.int64) - _simplex_index(n, s, 0)
    eng = _Engine(params, PAPER_LITERAL, dt, None)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan total is refused below
        prob = eng.probabilities(np.column_stack([s, a, n - s - a]))
    total = np.cumsum(prob, axis=1)[:, -1].copy()  # a copy, so the running sums are freed
    over = np.flatnonzero(~(total <= 1.0))  # nan too
    if over.size:
        _refuse_total(np.cumsum(prob[over[0]]), 1)

    vals = np.column_stack([prob, 1.0 - total])
    keep = vals != 0.0
    keep[:, -1] = True
    col, ev = np.nonzero(keep)
    row = _simplex_index(n, s[col] + eng.delta[0, ev], a[col] + eng.delta[1, ev])
    return np.column_stack([s, a]), row, col, vals[keep]


def exact_propagation(params: ModelParams, init: DiscreteState, dt: float, n_steps: int) -> ExactPropagation:
    """Propagate the full state distribution of the m = 1 chain exactly.

    Builds the sparse one-epoch kernel (at most 5 nonzeros per column)
    over every reachable state {(s, a): s + a <= N} in one array pass
    and applies it ``n_steps`` times to a point mass at ``init``. A step
    is one ``np.bincount``, which adds each row's products in column
    order from 0.0, as a CSR matvec does. Runs in paper_literal mode
    (constant N), on the rates of :func:`_mode_rates`.

    Raises:
        DomainError: if its n_steps + 1 rows pass the cell budget of a
            table held in memory; raised before the kernel is built.
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
    _check_cells(n_steps + 1, 5, "steps")  # times, e_s, e_a, e_d and mass
    n = init.total()
    states, row, col, val = _exact_kernel(params, n, dt)

    p = np.zeros(states.shape[0])
    p[_simplex_index(n, int(init.s[0]), int(init.a[0]))] = 1.0
    s_vals = states[:, 0].astype(float)
    a_vals = states[:, 1].astype(float)
    e_s, e_a, mass = np.empty((3, n_steps + 1))
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
