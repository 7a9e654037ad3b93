"""Truncated Fock-space states and operators.

Conventions shared by every module in the package:

* basis index = photon number, ascending, ``0 .. dim-1`` (cutoff ``dim-1``)
* operators are dense complex ``(dim, dim)`` ndarrays
* state vectors are complex ``(dim,)`` ndarrays with unit L2 norm
* density matrices are Hermitian, unit-trace, positive-semidefinite
  (to tolerance) ndarrays

Truncation guards have no switch: constructors that would silently leak
weight past the cutoff raise :class:`~nclsim.errors.TruncationLeakageError`
instead, since silent leakage is the dominant failure mode of Fock-space
simulation.  The coherent guard sums the discarded Poisson weight from the
same log-magnitudes the state is built from; this module imports no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    FockIndexError,
    InvalidDimensionError,
    InvalidStateError,
    TruncationLeakageError,
)

COHERENT_TAIL_THRESHOLD = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
NORM_TOL = 1e-12
PSD_TOL = 1e-8


def _check_dim(dim: int) -> int:
    if int(dim) != dim or dim < 2:
        raise InvalidDimensionError(f"Fock dimension must be an integer >= 2, got {dim}")
    return int(dim)


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator a with a|n> = sqrt(n)|n-1>."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def creation(dim: int) -> np.ndarray:
    """Creation operator a† = annihilation(dim)†, exactly."""
    return annihilation(dim).conj().T


def fock_state(n: int, dim: int) -> np.ndarray:
    """Number state |n> as a unit vector."""
    dim = _check_dim(dim)
    if int(n) != n or n < 0 or n >= dim:
        raise FockIndexError(f"photon number {n} outside basis 0..{dim - 1}")
    vec = np.zeros(dim, dtype=complex)
    vec[int(n)] = 1.0
    return vec


def _coherent_weights(alpha: complex, dim: int) -> tuple:
    """(log(|α|ⁿ/√n!), P(N ≥ n) for N ~ Poisson(μ)) at n = 0 .. max(dim,
    μ + 50√μ + 100), μ = |α|² > 0.  The tail is the reverse cumulative sum
    of the weights exp(2·logₙ - μ), negligible past the last n.  np.cumsum
    adds in order, so the logs below dim and the tail at each n keep their
    bits whatever the length."""
    mu = abs(alpha) ** 2
    if not mu <= 1e6:  # the arrays grow as μ, far past any cutoff the solvers hold
        raise TruncationLeakageError(f"coherent state alpha={alpha}: |alpha|^2 = {mu:.3e} > 1e6")
    n = np.arange(max(dim, int(mu + 50.0 * math.sqrt(mu)) + 100) + 1)
    log_mag = n * np.log(abs(alpha)) - 0.5 * np.cumsum(np.log(np.maximum(n, 1)))
    return log_mag, np.cumsum(np.exp(2.0 * log_mag - mu)[::-1])[::-1]


def coherent_min_dim(alpha: complex) -> int:
    """Smallest dim whose discarded Poisson tail weight is below
    ``COHERENT_TAIL_THRESHOLD``."""
    if abs(alpha) ** 2 == 0.0:
        return 2
    tail = _coherent_weights(alpha, 2)[1]
    return max(2, int(np.argmax(tail < COHERENT_TAIL_THRESHOLD)))


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Coherent state |α> truncated to dim levels and renormalized.

    Amplitudes are c_n ∝ α^n/sqrt(n!).  The discarded tail weight of the
    untruncated Poisson photon-number distribution must be below
    ``COHERENT_TAIL_THRESHOLD``; otherwise the call fails and names the
    minimal acceptable dimension.
    """
    dim = _check_dim(dim)
    if abs(alpha) ** 2 == 0.0:
        return fock_state(0, dim)
    log_mag, tail = _coherent_weights(alpha, dim)
    if tail[dim] >= COHERENT_TAIL_THRESHOLD:
        need = coherent_min_dim(alpha)
        raise TruncationLeakageError(
            f"coherent state alpha={alpha}: discarded tail weight {tail[dim]:.3e} "
            f"exceeds {COHERENT_TAIL_THRESHOLD:.0e}; need dim >= {need}",
            min_dim=need,
        )
    n = np.arange(dim)
    # log-domain magnitudes avoid overflow of alpha**n / sqrt(n!)
    vec = np.exp(log_mag[:dim] - log_mag[:dim].max()).astype(complex)
    alpha = complex(alpha)
    if alpha.imag != 0.0:
        vec *= np.exp(1j * float(np.angle(alpha)) * n)
    elif alpha.real < 0.0:  # the phase e^{iπn} is the sign (-1)^n, applied exactly
        vec[1::2] *= -1.0
    return vec / np.linalg.norm(vec)


def thermal_density(nbar: float, dim: int) -> np.ndarray:
    """Thermal (Bose-Einstein) density matrix with mean photon number nbar;
    the discarded tail weight must stay below ``COHERENT_TAIL_THRESHOLD``."""
    dim = _check_dim(dim)
    if nbar < 0:
        raise InvalidStateError(f"thermal occupation must be >= 0, got {nbar}")
    if nbar == 0:
        return pure_density(fock_state(0, dim))
    r = nbar / (nbar + 1.0)
    tail = r**dim  # exact geometric tail weight
    if tail >= COHERENT_TAIL_THRESHOLD:
        need = int(np.ceil(np.log(COHERENT_TAIL_THRESHOLD) / np.log(r))) + 1
        raise TruncationLeakageError(
            f"thermal state nbar={nbar}: discarded tail weight {tail:.3e} "
            f"exceeds {COHERENT_TAIL_THRESHOLD:.0e}; need dim >= {need}",
            min_dim=need,
        )
    p = (1 - r) * r ** np.arange(dim)
    p /= p.sum()
    return np.diag(p).astype(complex)


def pure_density(psi: np.ndarray) -> np.ndarray:
    """|ψ><ψ| for a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def diagonal_function_operator(f, dim: int) -> np.ndarray:
    """f(a†a) = diag(f(0), f(1), ..., f(dim-1)) for a real-valued f."""
    dim = _check_dim(dim)
    vals = np.array([float(f(n)) for n in range(dim)], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidStateError("nonlinearity evaluates to a non-finite value on the basis")
    return np.diag(vals).astype(complex)


def check_state_vector(psi: np.ndarray) -> np.ndarray:
    """Validate unit norm to ``NORM_TOL``; returns the array unchanged."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.shape[0] < 2:
        raise InvalidStateError("state vector must be 1-d with dim >= 2")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_TOL:
        raise InvalidStateError(f"state vector norm {nrm} deviates from 1 by more than {NORM_TOL}")
    return psi


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity to ``HERMITICITY_TOL``,
    ``TRACE_TOL`` and ``PSD_TOL``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise InvalidStateError("density matrix must be square with dim >= 2")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise InvalidStateError(f"Hermiticity violation {herm:.3e} > {HERMITICITY_TOL:.0e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > TRACE_TOL:
        raise InvalidStateError(f"trace deviates from 1 by {tr:.3e} > {TRACE_TOL:.0e}")
    wmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if wmin < -PSD_TOL:
        raise InvalidStateError(f"smallest eigenvalue {wmin:.3e} < -{PSD_TOL:.0e}")
    return rho
