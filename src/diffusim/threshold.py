"""Reproduction number via the next-generation decomposition.

Linearizing the active compartments around the disease-free equilibrium
splits the Jacobian into new-activation terms F and transfer terms V:

    f[i, j] = alpha * eps_i * gamma_j * s*_i / n_total
    v       = diag(d_i + phi_i)

The basic reproduction number is the spectral radius of k = f v^-1.
Because f has rank one, so does k, and its spectral radius is its trace
sum_i alpha * eps_i * gamma_i * s*_i / (n_total * (d_i + phi_i))
(van den Driessche & Watmough 2002, Math. Biosci. 180:29). Every route
here, and the endemic point's R0 <= 1 decision, takes r0 from that
closed form (``model._r0_terms``); the tests check it against power
iteration and dense eigenvalues.

A conserved group (d_i = b_i = 0, as on paper_literal's rates) is the
d_i = 0 case of the same term, with s*_i read from its total N_i. Every
entry point takes the totals as the keyword ``totals``; without them
such a group raises DomainError naming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .model import ModelParams, _r0_terms, disease_free_equilibrium

__all__ = [
    "NextGenDecomposition",
    "build_decomposition",
    "r0_rank_one",
    "calibrate_alpha",
]


@dataclass(frozen=True, eq=False)
class NextGenDecomposition:
    """New-activation matrix f, transfer matrix v, k = f v^-1, and r0."""

    f: np.ndarray
    v: np.ndarray
    k: np.ndarray
    r0: float


def _r0(params: ModelParams, s_star: np.ndarray) -> float:
    """R0 at the disease-free point ``s_star``, refused when not finite."""
    terms, r0 = _r0_terms(params, s_star)
    if not np.isfinite(r0):
        if not np.isfinite(terms).all():
            i = int(np.argmin(np.isfinite(terms)))
            raise NumericError(f"R0 term of group {i + 1} is not finite: "
                               f"alpha eps_i gamma_i s*_i / (n_total (d_i + phi_i)) = {terms[i]}")
        with np.errstate(over="ignore"):
            i = int(np.argmin(np.isfinite(np.cumsum(terms))))
        raise NumericError(f"R0 is not finite: the sum of the per-group terms overflows at group {i + 1}")
    return r0


def build_decomposition(params: ModelParams, *, totals=None) -> NextGenDecomposition:
    """Evaluate f, v and k at the disease-free equilibrium, and r0 as for r0_rank_one.

    v is diagonal by construction and is inverted entrywise.

    Raises:
        NumericError: if r0, or an entry of f or k, is not finite; the
            message names the group or the entry (i, j), counting from 1.
    """
    dfe = disease_free_equilibrium(params, totals=totals)
    r0 = _r0(params, dfe.s_star)
    exit_rate = params.d + params.phi
    # alpha eps_i gamma_j first, as in r0's terms: eps_i s*_i alone can overflow
    # where the entry does not
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.outer(params.alpha * params.eps, params.gamma) * dfe.s_star[:, np.newaxis] / params.n_total
        k = f / exit_rate[np.newaxis, :]
    for name, mat in (("f", f), ("k", k)):
        if not np.isfinite(mat).all():
            i, j = np.unravel_index(np.argmin(np.isfinite(mat)), mat.shape)
            raise NumericError(f"next-generation matrix {name} is not finite at entry "
                               f"({i + 1}, {j + 1}): {mat[i, j]}")
    return NextGenDecomposition(f=f, v=np.diag(exit_rate), k=k, r0=r0)


def r0_rank_one(params: ModelParams, *, totals=None) -> float:
    """Closed-form r0 using the rank-one structure of f.

    Equals sum_i alpha * eps_i * gamma_i * s*_i / (n_total * (d_i + phi_i)),
    the trace of k, which for a rank-one k is its spectral radius.

    Raises:
        NumericError: if a per-group term or the sum is not finite; the
            message names the first such group, counting from 1.
    """
    return _r0(params, disease_free_equilibrium(params, totals=totals).s_star)


def calibrate_alpha(params: ModelParams, target_r0: float, *, totals=None) -> float:
    """Contact scalar alpha that yields the requested r0.

    r0 is linear in alpha, so alpha* = target_r0 / r0(alpha=1) exactly.

    Raises:
        DomainError: if target_r0 is not positive or r0 vanishes at
            alpha = 1 (no alpha can reach the target).
        NumericError: if r0 at alpha = 1 is not finite, as in r0_rank_one,
            or if alpha* overflows because r0 at alpha = 1 is that small.
    """
    target = float(target_r0)
    if not np.isfinite(target) or target <= 0:
        raise DomainError(f"target_r0 must be positive and finite, got {target_r0!r}")
    r0_unit = r0_rank_one(params.with_alpha(1.0), totals=totals)
    if r0_unit <= 0.0:
        raise DomainError("r0 at alpha=1 is zero; no alpha can reach the target")
    alpha = target / r0_unit
    if not np.isfinite(alpha):
        raise NumericError(f"alpha = target_r0 / r0(alpha=1) = {target!r} / {r0_unit!r} overflows")
    return alpha
