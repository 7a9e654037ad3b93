"""Stationary states: exact null-space solving and analytic diagonal theory.

Exact steady states come from the null space of the vectorized Liouvillian.
Two routes are provided: a dense SVD (small dimensions; also yields the
degeneracy diagnostic directly) and a sparse direct solve in which one
diagonal row of the superoperator is replaced by the trace constraint.
The replaced row is always a *diagonal* row because trace preservation makes
exactly the diagonal rows linearly dependent, so no information is lost.

The analytic side implements the detailed-balance recurrences for the
diagonal of the stationary state:

* with coherent driving (amplitude ratio α₀ = Ω/γ, loss ratio ε = Γ/γ):
      p_n = p_{n-1} · α₀² / (n (f(n)² + ε)²)
* with thermal pumping only (Ω = 0):
      p_n = p_{n-1} · n̄ / ((n̄+1) + (γ/Γ) f²(n))

plus the peak condition n₀(f(n₀)²+ε)² ≈ α₀², the Gaussian profile around
the peak, and the variance estimate
      Δ²n ≈ n₀ (1 + 4 n₀ ḟ(n₀) f(n₀)/(f(n₀)²+ε))⁻¹ ,
whose ratio Δ²n/n₀ - 1 estimates Mandel Q (→ -4k/(4k+1) for f(n)=n^k).

All recurrences run in the log domain: driving amplitudes like α₀ = 10⁴
overflow naive floating-point products long before the peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.special import logsumexp

from .errors import (
    BlockedRecurrenceError,
    DimensionCapError,
    InvalidStateError,
    NonUniqueSteadyStateError,
    PeakWindowError,
    SteadyStateResidualError,
    TailGuardError,
)
from .fock import annihilation, check_density_matrix, diagonal_function_operator
from .gadgets import ncl_lindblad
from .liouvillian import (
    SUPEROPERATOR_DIM_CAP,
    Generator,
    MasterEquation,
    superoperator_sparse,
    unvec,
    vec,
)
from .observables import DiagonalDistribution

TAIL_GUARD = 1e-12
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10
_PROBE_TOL = 1e-7


@dataclass(frozen=True)
class PeakEstimate:
    """Peak location, width estimate and the implied Mandel Q."""

    n0: int
    variance: float
    q_estimate: float


# ---------------------------------------------------------------------------
# exact steady states


def _residual_threshold(lop: sp.spmatrix, residual_tol: float) -> float:
    # absolute tolerance, floored by what double precision can deliver for
    # the operator's scale (rates ~1e5 leave residuals ~1e-11 after refinement)
    scale = float(np.abs(lop).sum(axis=1).max())
    return max(residual_tol, 100.0 * np.finfo(float).eps * scale)


def _solve_with_trace_row(lop: sp.csr_matrix, dim: int, row: int) -> np.ndarray:
    m = lop.tolil(copy=True)
    trace_cols = np.arange(dim) * (dim + 1)
    m[row, :] = 0.0
    for c in trace_cols:
        m[row, c] = 1.0
    m = m.tocsc()
    b = np.zeros(dim * dim, dtype=complex)
    b[row] = 1.0
    lu = splu(m)
    x = lu.solve(b)
    for _ in range(3):  # iterative refinement against the modified system
        r = b - m @ x
        if np.linalg.norm(r) <= 1e-14 * max(1.0, np.linalg.norm(x)):
            break
        x = x + lu.solve(r)
    return x


def _nullspace_direct(lop: sp.csr_matrix, dim: int, residual_tol: float, probe: bool = True):
    rows = [0, dim + 1, 2 * (dim + 1)]
    solutions = []
    for row in rows:
        if row >= dim * dim:
            continue
        try:
            solutions.append(_solve_with_trace_row(lop, dim, row))
        except RuntimeError:
            continue
        if len(solutions) == 2 or not probe:
            break
    if not solutions:
        raise NonUniqueSteadyStateError(
            "superoperator could not be factored with any trace-constraint row; "
            "the null space is likely degenerate"
        )
    if probe and len(solutions) == 2:
        drift = np.linalg.norm(solutions[0] - solutions[1])
        if drift > _PROBE_TOL:
            raise NonUniqueSteadyStateError(
                f"steady states from independent trace rows differ by {drift:.3e}; "
                "null space is degenerate"
            )
    x = solutions[0]
    rho = unvec(x, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.real(np.trace(rho))
    residual = float(np.linalg.norm(lop @ vec(rho)))
    thresh = _residual_threshold(lop, residual_tol)
    if residual > thresh:
        raise SteadyStateResidualError(
            f"steady-state residual {residual:.3e} above {thresh:.3e}"
        )
    return rho, residual


def _nullspace_svd(lop_dense: np.ndarray, dim: int, residual_tol: float, degeneracy_tol: float):
    _, s, vh = np.linalg.svd(lop_dense)
    if s.size >= 2 and s[-2] < degeneracy_tol:
        raise NonUniqueSteadyStateError(
            f"second-smallest singular value {s[-2]:.3e} below {degeneracy_tol:.0e}"
        )
    v = vh[-1].conj()
    rho = unvec(v, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-10:
        raise NonUniqueSteadyStateError("null vector is traceless; no state in the kernel")
    rho = rho / tr
    residual = float(np.linalg.norm(lop_dense @ vec(rho)))
    if residual > max(residual_tol, 100.0 * np.finfo(float).eps * np.abs(lop_dense).sum(axis=1).max()):
        raise SteadyStateResidualError(f"steady-state residual {residual:.3e} too large")
    return rho, residual


def steady_state_nullspace(
    me: MasterEquation,
    method: str = "auto",
    cap: int = SUPEROPERATOR_DIM_CAP,
    residual_tol: float = RESIDUAL_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> np.ndarray:
    """Unique stationary density matrix from the superoperator null space.

    method: 'svd' (dense, explicit degeneracy check via singular values),
    'direct' (sparse trace-constrained solve with a two-row degeneracy
    probe), or 'auto' (svd for dim <= 16, direct above).
    """
    if me.dim > cap:
        raise DimensionCapError(
            f"dim {me.dim} exceeds steady-state cap {cap}; use evolve_to_steady"
        )
    if method == "auto":
        method = "svd" if me.dim <= 16 else "direct"
    lop = superoperator_sparse(me)
    if method == "svd":
        rho, _ = _nullspace_svd(lop.toarray(), me.dim, residual_tol, degeneracy_tol)
    elif method == "direct":
        rho, _ = _nullspace_direct(lop, me.dim, residual_tol)
    else:
        raise InvalidStateError(f"unknown steady-state method {method!r}")
    return check_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-8, psd_tol=1e-8)


# ---------------------------------------------------------------------------
# diagonal recurrences


def ncl_recurrence(
    f,
    alpha0: float,
    epsilon: float,
    dim: int,
    start: int = 0,
) -> DiagonalDistribution:
    """Stationary diagonal under driving: p_n = p_{n-1} α₀²/(n(f(n)²+ε)²).

    A zero of f with ε = 0 makes a denominator vanish and decouples the
    ladder; that raises BlockedRecurrenceError.  Pass ``start`` above the
    zero (all weight below ``start`` is then exactly zero) or use ε > 0.
    """
    if dim < 2:
        raise InvalidStateError("dim must be >= 2")
    if epsilon < 0:
        raise InvalidStateError("epsilon must be >= 0")
    if int(start) != start or start < 0 or start >= dim:
        raise InvalidStateError(f"start index {start} outside 0..{dim - 1}")
    start = int(start)
    logp = np.full(dim, -np.inf)
    logp[start] = 0.0
    if alpha0 == 0.0:
        p = np.zeros(dim)
        p[start] = 1.0
        return DiagonalDistribution(p)
    log_amp = 2.0 * np.log(abs(alpha0))
    for n in range(start + 1, dim):
        den = float(f(n)) ** 2 + epsilon
        if den == 0.0:
            raise BlockedRecurrenceError(
                f"recurrence blocked at n={n}: f({n})²+ε = 0 "
                "(use epsilon > 0 or a start index above the zero of f)",
                n=n,
            )
        logp[n] = logp[n - 1] + log_amp - np.log(n) - 2.0 * np.log(den)
    norm = logsumexp(logp)
    p = np.exp(logp - norm)
    p /= p.sum()
    if p[dim - 1] >= TAIL_GUARD:
        raise TailGuardError(
            f"tail weight p[{dim - 1}] = {p[dim - 1]:.3e} >= {TAIL_GUARD:.0e}; increase dim"
        )
    return DiagonalDistribution(p)


def thermal_recurrence(
    f,
    nbar: float,
    gamma_over_gamma_linear: float,
    dim: int,
) -> DiagonalDistribution:
    """Stationary diagonal under thermal pumping only:
    p_n = p_{n-1} · n̄ / ((n̄+1) + (γ/Γ) f²(n))."""
    if nbar <= 0:
        raise InvalidStateError("thermal recurrence needs nbar > 0")
    if gamma_over_gamma_linear < 0:
        raise InvalidStateError("loss ratio must be >= 0")
    if dim < 2:
        raise InvalidStateError("dim must be >= 2")
    logp = np.zeros(dim)
    for n in range(1, dim):
        den = (nbar + 1.0) + gamma_over_gamma_linear * float(f(n)) ** 2
        logp[n] = logp[n - 1] + np.log(nbar) - np.log(den)
    norm = logsumexp(logp)
    p = np.exp(logp - norm)
    p /= p.sum()
    if p[dim - 1] >= TAIL_GUARD:
        raise TailGuardError(
            f"tail weight p[{dim - 1}] = {p[dim - 1]:.3e} >= {TAIL_GUARD:.0e}; increase dim"
        )
    return DiagonalDistribution(p)


def thermal_truncation_number(f, nbar: float, gamma_over_gamma_linear: float, dim: int) -> int:
    """Smallest n with (γ/Γ) f(n) >= n̄+1: where the thermal ladder is cut off."""
    for n in range(1, dim):
        if gamma_over_gamma_linear * float(f(n)) >= nbar + 1.0:
            return n
    raise InvalidStateError("distribution is not truncated within this dim")


# ---------------------------------------------------------------------------
# peak analysis


def _fprime(f, n0: int) -> float:
    if hasattr(f, "derivative"):
        return float(f.derivative(n0))
    lo, hi = max(n0 - 1, 0), n0 + 1  # central difference for bare callables
    return float((f(hi) - f(lo)) / (hi - lo))


def _width_factor(f, n0: int, epsilon: float) -> float:
    fv = float(f(n0))
    den = fv * fv + epsilon
    num = 4.0 * n0 * _fprime(f, n0) * fv
    if den == 0.0:
        return 1.0
    return 1.0 + num / den


def peak_condition(f, alpha0: float, epsilon: float, dim: int) -> PeakEstimate:
    """Integer peak of the driven stationary distribution and its width.

    n₀ minimizes |n(f(n)²+ε)² - α₀²| over 0..dim-1 (ties toward smaller n);
    the variance and Q estimates follow from the log-curvature of the
    recurrence around n₀.
    """
    if alpha0 <= 0:
        raise InvalidStateError("peak condition needs alpha0 > 0")
    n = np.arange(dim, dtype=float)
    fv = np.array([float(f(k)) for k in range(dim)])
    mismatch = np.abs(n * (fv**2 + epsilon) ** 2 - alpha0**2)
    n0 = int(np.argmin(mismatch))
    if n0 == dim - 1:
        raise PeakWindowError(
            f"peak search hit the top of the window (n0 = {n0}); increase dim"
        )
    if n0 == 0:
        return PeakEstimate(0, 0.0, -1.0)
    factor = _width_factor(f, n0, epsilon)
    if factor <= 0:
        raise InvalidStateError(
            "width estimate invalid: non-positive curvature (f decreasing at the peak?)"
        )
    variance = n0 / factor
    return PeakEstimate(n0, float(variance), float(variance / n0 - 1.0))


def gaussian_profile(f, n0: int, epsilon: float, delta_n: int) -> float:
    """Predicted ratio p_{n₀+δn}/p_{n₀} from the log-curvature of the
    recurrence: exp{-(|δn|(|δn|+1)/2n₀)(1 + 4n₀ḟ(n₀)f(n₀)/(f(n₀)²+ε))}."""
    if n0 < 1:
        raise InvalidStateError("profile needs n0 >= 1")
    d = abs(int(delta_n))
    return float(np.exp(-(d * (d + 1) / (2.0 * n0)) * _width_factor(f, n0, epsilon)))


# ---------------------------------------------------------------------------
# truncated (driven-frame) equation


def _b_operator(f, epsilon: float, dim: int) -> np.ndarray:
    g = diagonal_function_operator(lambda n: float(f(n)) ** 2 + epsilon, dim)
    return annihilation(dim) @ g


def _check_ncl_consistency(me: MasterEquation, f) -> None:
    if me.nbar != 0.0:
        raise InvalidStateError("the rewritten equation assumes no thermal pumping")
    if me.gamma_nonlinear <= 0:
        raise InvalidStateError("the rewritten equation needs gamma_nonlinear > 0")
    expected = ncl_lindblad(f, me.dim)
    if np.abs(me.nonlinear_op - expected).max() > 1e-12:
        raise InvalidStateError("engineered operator is not a·f(a†a) with this f")


def _signed_alpha0(me: MasterEquation) -> float:
    # With H = iΩ(a - a†) the four-term rewriting closes with the opposite
    # sign of the usual amplitude Ω/γ; only α₀² enters the diagonal theory,
    # so observable predictions are unaffected.
    return -me.omega / me.gamma_nonlinear


def _approximate_generator(me: MasterEquation, f) -> Generator:
    _check_ncl_consistency(me, f)
    a = annihilation(me.dim)
    ad = a.conj().T
    bm = _b_operator(f, me.epsilon, me.dim) - _signed_alpha0(me) * np.eye(me.dim)
    bdm = bm.conj().T
    gam = me.gamma_nonlinear
    # γ(a ρ B̃† + B̃ ρ a† - a†B̃ ρ - ρ B̃†a) with B̃ = B - α₀
    terms = [(gam, a, bdm), (gam, bm, ad), (-gam, ad @ bm, None), (-gam, None, bdm @ a)]
    return Generator(me.dim, terms)


def approximate_rhs(me: MasterEquation, f, rho: np.ndarray) -> np.ndarray:
    """Right-hand side with the double-commutator term dropped.

    Exact identity: rhs(me, ρ) = approximate_rhs(me, f, ρ) - γ a[[ρ, f(a†a)], f(a†a)]a†,
    so dropping the last term is the entire approximation.  The retained part
    is expressed through B = a([f(a†a)]² + ε) and the signed amplitude α₀.
    """
    gen = _approximate_generator(me, f)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (me.dim, me.dim):
        raise InvalidStateError(f"rho shape {rho.shape} != ({me.dim}, {me.dim})")
    return gen.apply(rho)


def approximate_superoperator(me: MasterEquation, f) -> sp.csr_matrix:
    """Sparse superoperator of :func:`approximate_rhs` (column stacking)."""
    return _approximate_generator(me, f).superoperator()


def approximate_steady_state(
    me: MasterEquation,
    f,
    residual_tol: float = RESIDUAL_TOL,
) -> np.ndarray:
    """Stationary state of the truncated equation, via its null space.

    Not of Lindblad form, so positivity is not guaranteed; the diagonal obeys
    the driven recurrence exactly and the state satisfies the eigen-relations
    Bρ = α₀ρ, ρB† = α₀ρ up to the Fock-cutoff boundary residual.
    """
    lop = approximate_superoperator(me, f)
    rho, _ = _nullspace_direct(lop, me.dim, residual_tol)
    return rho


def b_eigen_residual(me: MasterEquation, f, rho: np.ndarray) -> float:
    """||Bρ - α₀ρ||_F, the eigen-relation residual of a candidate steady state."""
    b = _b_operator(f, me.epsilon, me.dim)
    return float(np.linalg.norm(b @ rho - _signed_alpha0(me) * rho))
