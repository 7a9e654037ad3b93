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
simulation.  The coherent guard decides without scipy where a bound on the
Poisson tail proves the weight small, and asks ``scipy.special`` for the
exact tail only where it cannot, so propagating a coherent state imports no
scipy.
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


def _poisson_sf(k: int, mu: float) -> float:
    """P(N > k) for N ~ Poisson(mu), k >= 0: the value scipy.stats.poisson.sf
    gives, without importing scipy.stats.  The coherent guard calls it only
    where :func:`_tail_below` cannot decide without scipy."""
    from scipy.special import pdtrc

    return float(pdtrc(k, mu))


def _tail_below(k: int, mu: float, threshold: float) -> bool:
    """True when a bound proves P(N > k) < threshold for N ~ Poisson(mu).

    For j > k the pmf ratio p(j+1)/p(j) = μ/(j+1) is at most μ/(k+2), so the
    tail is at most p(k+1)/(1 - μ/(k+2)) when μ < k+2.  The bound must stay
    below threshold/2, a margin far above the rounding of the log-domain pmf,
    so where it says "below" :func:`_poisson_sf` says so too.
    """
    if mu == 0.0:
        return True
    if mu >= k + 2:
        return False
    log_pmf = (k + 1) * math.log(mu) - mu - math.lgamma(k + 2)
    return 2.0 * math.exp(log_pmf) / (1.0 - mu / (k + 2)) < threshold


def _poisson_isf(q: float, mu: float) -> int:
    """Smallest k with P(N > k) <= q for 0 < q < 1 and mu > 0: the value
    scipy.stats.poisson.isf gives (its ppf of 1 - q, rounded via pdtrik)."""
    from scipy.special import pdtr, pdtrik

    p = 1.0 - q
    k = np.ceil(pdtrik(p, mu))
    below = max(k - 1.0, 0.0)
    return int(below if pdtr(below, mu) >= p else k)


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


def coherent_min_dim(alpha: complex, threshold: float = COHERENT_TAIL_THRESHOLD) -> int:
    """Smallest dim whose discarded Poisson tail weight is below threshold."""
    mu = abs(alpha) ** 2
    if mu == 0.0:
        return 2
    # isf gives a good starting point unless 1 - threshold rounds to 1 (its
    # start is then NaN, and the walk starts at 2); walk to the exact boundary
    d = 2 if 1.0 - threshold == 1.0 else max(2, _poisson_isf(threshold, mu) - 2)
    while _poisson_sf(d - 1, mu) >= threshold:
        d += 1
    return d


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Coherent state |α> truncated to dim levels and renormalized.

    Amplitudes are c_n ∝ α^n/sqrt(n!).  The discarded tail weight of the
    untruncated Poisson photon-number distribution must be below
    ``COHERENT_TAIL_THRESHOLD``; otherwise the call fails and names the
    minimal acceptable dimension.
    """
    dim = _check_dim(dim)
    mu = abs(alpha) ** 2
    if not _tail_below(dim - 1, mu, COHERENT_TAIL_THRESHOLD):
        tail = _poisson_sf(dim - 1, mu)
        if tail >= COHERENT_TAIL_THRESHOLD:
            need = coherent_min_dim(alpha)
            raise TruncationLeakageError(
                f"coherent state alpha={alpha}: discarded tail weight {tail:.3e} "
                f"exceeds {COHERENT_TAIL_THRESHOLD:.0e}; need dim >= {need}",
                min_dim=need,
            )
    if mu == 0.0:
        return fock_state(0, dim)
    n = np.arange(dim)
    # log-domain magnitudes avoid overflow of alpha**n / sqrt(n!)
    log_mag = n * np.log(abs(alpha)) - 0.5 * np.cumsum(np.log(np.maximum(n, 1)))
    log_mag -= log_mag.max()
    vec = np.exp(log_mag).astype(complex)
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
