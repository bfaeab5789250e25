"""Reproduction number via the next-generation decomposition.

Linearizing the active compartments around the disease-free equilibrium
splits the Jacobian into new-activation terms F and transfer terms V:

    f[i, j] = alpha * eps_i * gamma_j * s*_i / n_total
    v       = diag(d_i + phi_i)

The basic reproduction number is the spectral radius of k = f v^-1.
Because f has rank one, the spectral radius also has the closed form
sum_i alpha * eps_i * gamma_i * s*_i / (n_total * (d_i + phi_i)); both
routes are kept and cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, disease_free_equilibrium

__all__ = [
    "NextGenDecomposition",
    "spectral_radius",
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


def spectral_radius(k: np.ndarray, *, tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Largest eigenvalue modulus of an entrywise-nonnegative matrix.

    Power iteration from the all-ones vector, so the result is
    deterministic. Convergence is declared when successive Rayleigh
    quotients agree to ``tol`` relative.

    Raises:
        DomainError: if k is not square, finite and entrywise nonnegative.
        ConvergenceError: if the quotients have not settled after
            ``max_iter`` iterations; the message carries the last two.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise DomainError("matrix entries must be finite")
    if np.any(k < 0):
        raise DomainError("matrix entries must be nonnegative")
    n = k.shape[0]
    x = np.ones(n)
    x /= np.linalg.norm(x)
    lam = None
    lam_prev = None
    for _ in range(max_iter):
        y = k @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            # a nonnegative matrix annihilating a nonnegative iterate of the
            # all-ones vector is nilpotent, so the spectral radius is 0
            return 0.0
        x = y / norm
        lam = float(x @ (k @ x))
        if lam_prev is not None:
            diff = abs(lam - lam_prev)
            if diff <= tol * max(abs(lam), abs(lam_prev)) or diff == 0.0:
                return lam
        lam_prev = lam
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations; "
        f"last Rayleigh quotients {lam_prev!r}, {lam!r}",
        last_state=(lam_prev, lam),
    )


def build_decomposition(params: ModelParams) -> NextGenDecomposition:
    """Evaluate f, v and k at the disease-free equilibrium and compute r0.

    v is diagonal by construction and is inverted entrywise; r0 is the
    spectral radius of k obtained by power iteration.
    """
    dfe = disease_free_equilibrium(params)
    exit_rate = params.d + params.phi
    # spectral_radius refuses an overflowing k, without numpy's warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        f = params.alpha * np.outer(params.eps * dfe.s_star, params.gamma) / params.n_total
        k = f / exit_rate[np.newaxis, :]
    v = np.diag(exit_rate)
    return NextGenDecomposition(f=f, v=v, k=k, r0=spectral_radius(k))


def r0_rank_one(params: ModelParams) -> float:
    """Closed-form r0 using the rank-one structure of f.

    Equals sum_i alpha * eps_i * gamma_i * s*_i / (n_total * (d_i + phi_i)),
    the trace of k, which for a rank-one k is its spectral radius.
    """
    dfe = disease_free_equilibrium(params)
    exit_rate = params.d + params.phi
    return float(np.sum(params.alpha * params.eps * params.gamma * dfe.s_star / (params.n_total * exit_rate)))


def calibrate_alpha(params: ModelParams, target_r0: float) -> float:
    """Contact scalar alpha that yields the requested r0.

    r0 is linear in alpha, so alpha* = target_r0 / r0(alpha=1) exactly.

    Raises:
        DomainError: if target_r0 is not positive or r0 vanishes at
            alpha = 1 (no alpha can reach the target).
    """
    target = float(target_r0)
    if not np.isfinite(target) or target <= 0:
        raise DomainError(f"target_r0 must be positive and finite, got {target_r0!r}")
    r0_unit = r0_rank_one(params.with_alpha(1.0))
    if r0_unit <= 0.0:
        raise DomainError("r0 at alpha=1 is zero; no alpha can reach the target")
    return target / r0_unit
