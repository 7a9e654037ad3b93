"""Stationary states: exact null-space solving and the diagonal recurrences.

Every equation solved here preserves Hermiticity, so it is a real-linear map
on the Hermitian matrices, and exact steady states are solved there: in the
real coordinates (vech S, strict-vech A) of ρ = S + iA, with S real
symmetric and A real antisymmetric (vech and duplication matrices: Magnus &
Neudecker, *Matrix Differential Calculus*).  The map, a real system of
dimension D², is assembled straight from the generator's terms
(:meth:`~nclsim.liouvillian.Generator.hermitian_map`), without the complex
D²×D² superoperator.  The state comes from one sparse LU solve of that
system with its diagonal row (0, 0) replaced by the trace constraint.  The
replaced row is a *diagonal* row because trace preservation makes exactly
the diagonal rows linearly dependent, so no information is lost; the system
is then singular exactly when the null space is degenerate, and a
structural-rank test and a 1-norm condition estimate from the same factors
detect that.  A generator with real entries (every preset and config
equation) has no entries between S and A, so its system is block diagonal:
SuperLU's fill is that of the two blocks factored apart, the A part of the
solution is exactly 0, and the condition estimate covers both blocks.
SuperLU orders the columns by minimum degree on Aᵀ+A; states are returned as
complex128.  The full equation and the truncated equation below share this
solve and its dimension cap; it is the package's only stationary route.  The
independent reference the tests compare it against, a dense SVD of the
superoperator, lives in ``tests/oracles.py``.

The analytic side implements the detailed-balance recurrences for the
diagonal of the stationary state:

* with coherent driving (amplitude ratio α₀ = Ω/γ, loss ratio ε = Γ/γ):
      p_n = p_{n-1} · α₀² / (n (f(n)² + ε)²)
* with thermal pumping only (Ω = 0):
      p_n = p_{n-1} · n̄ / ((n̄+1) + (γ/Γ) f²(n))

The closed forms the tests check these against (the peak condition, the
Gaussian profile around the peak and the variance estimate) live in
``tests/theory.py``.

All recurrences run in the log domain: driving amplitudes like α₀ = 10⁴
overflow naive floating-point products long before the peak.

Only the sparse solve needs scipy; ``scipy.sparse`` and
``scipy.sparse.linalg`` are imported at the first stationary solve, so the
recurrences and every propagation run without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BlockedRecurrenceError,
    DimensionCapError,
    InvalidStateError,
    NonUniqueSteadyStateError,
    SteadyStateResidualError,
    TailGuardError,
)
from .evolve import BREACH_TOL
from .fock import annihilation, check_density_matrix
from .gadgets import ncl_lindblad
from .liouvillian import Generator, MasterEquation, hermitian_coordinates
from .observables import DiagonalDistribution

if TYPE_CHECKING:
    import scipy.sparse as sp

TAIL_GUARD = 1e-12
# absolute bound on ‖Lρ‖_F of a solved state, floored by the operator's scale
# in _unit_trace_state
RESIDUAL_TOL = 1e-10
# Largest dim the sparse trace-row solve takes.  Driven NCL (α₀ = 150, ε = 1,
# solve with its condition estimate after scipy is imported, one BLAS
# thread, 2-core x86 VM, process peak RSS, two runs): 0.07 s and 88 MB at
# dim 128, 0.29-0.30 s and 126 MB at 200, 0.51 s and 171 MB at 256,
# 0.81-0.85 s and 235 MB at 320.
SPARSE_DIM_CAP = 256


# ---------------------------------------------------------------------------
# exact steady states


def _unit_trace_state(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """``rho`` scaled to unit trace as a complex state, residual-checked
    against ``gen``."""
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-10:
        raise NonUniqueSteadyStateError("null vector is traceless; no state in the kernel")
    rho = rho / tr
    residual = float(np.linalg.norm(gen.apply(rho)))
    # absolute tolerance, floored by what double precision can deliver for
    # the operator's scale (rates ~1e5 leave residuals ~1e-11)
    rows, _, vals = gen.triplets
    scale = float(np.bincount(rows, np.abs(vals), minlength=1).max())
    thresh = max(RESIDUAL_TOL, 100.0 * np.finfo(float).eps * scale)
    if residual > thresh:
        raise SteadyStateResidualError(f"steady-state residual {residual:.3e} above {thresh:.3e}")
    return rho.astype(complex)


def _refined(x: np.ndarray, b: np.ndarray, apply, solve, norm: float) -> np.ndarray:
    """``x`` after up to three steps of iterative refinement of apply(x) = b,
    stopping once ‖b - apply(x)‖₁ is within a few rounding errors of the
    product, 4·eps·‖M‖₁·‖x‖₁, where ``norm`` is ‖M‖₁."""
    for _ in range(3):
        r = b - apply(x)
        if np.abs(r).sum() <= 4.0 * np.finfo(float).eps * norm * np.abs(x).sum():
            break
        x = x + solve(r)
    return x


@dataclass
class LUStats:
    """Sparse LU work of one stationary solve: ``splu`` calls (ones that
    raise included) and solves with the factors."""

    lu_factorizations: int = 0
    lu_solves: int = 0


def _factored(m: sp.csc_matrix, stats: LUStats):
    """(solve, ‖m‖₁) from one LU of the trace-row system ``m``, once ``m``
    has passed the degeneracy test: a structurally singular ``m``, a failed
    factorization, or a 1-norm condition number of at least 1/eps raises
    NonUniqueSteadyStateError.  ‖m⁻¹‖₁ is estimated by Hager's method
    (Higham & Tisseur's block form with one column, so no random start), a
    few solves with m and mᵀ."""
    from scipy.sparse.csgraph import structural_rank
    from scipy.sparse.linalg import LinearOperator, onenormest, splu

    # SuperLU's supernodal kernels can fail, and corrupt the heap, on a
    # matrix without a perfect matching before any zero pivot shows (a
    # Hamiltonian-only equation at dim 8)
    if structural_rank(m) < m.shape[0]:
        raise NonUniqueSteadyStateError(
            "trace-row system is structurally singular; null space is degenerate"
        )
    stats.lu_factorizations += 1
    try:
        # minimum degree on Aᵀ+A: less fill than the default COLAMD on these
        # structurally near-symmetric matrices (driven NCL at dim 64, α₀ = 150:
        # L+U 153k against 218k)
        lu = splu(m, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NonUniqueSteadyStateError(
            f"trace-row system is exactly singular ({exc}); null space is degenerate"
        ) from exc

    def solve(b, trans="N"):
        stats.lu_solves += 1
        return lu.solve(b, trans=trans)

    # every column holds an entry, since the structural rank is full
    norm = float(np.add.reduceat(np.abs(m.data), m.indptr[:-1]).max())
    transposed = lambda y: solve(y, "T")  # noqa: E731
    # the blocks of columns go to SuperLU whole, not column by column
    inverse = LinearOperator(
        m.shape, matvec=solve, rmatvec=transposed, matmat=solve, rmatmat=transposed,
        dtype=m.dtype,
    )
    condition = norm * onenormest(inverse, t=1)
    if not condition < 1.0 / np.finfo(float).eps:  # NaN from overflowed solves too
        raise NonUniqueSteadyStateError(
            "trace-row system is singular to working precision (condition number "
            f">= {condition:.3e}); null space is degenerate"
        )
    return solve, norm


def _nullspace_direct(gen: Generator, stats: LUStats | None = None) -> np.ndarray:
    """Trace-row solve of ``gen`` on the Hermitian matrices, in the real
    coordinates of :meth:`~nclsim.liouvillian.Generator.hermitian_map`,
    called only after the dimension is checked against ``SPARSE_DIM_CAP``.

    The trace-row system is the whole real map with row 0, the diagonal
    coordinate (0, 0), replaced by the trace row.  The diagonal rows of a
    trace-preserving generator sum to zero, so that system maps x to 0
    exactly when x is a traceless element of the null space: the null space
    is degenerate exactly when the system is singular, which
    :func:`_factored` tests.
    """
    import scipy.sparse as sp

    dim = gen.dim
    if dim > SPARSE_DIM_CAP:
        raise DimensionCapError(
            f"dim {dim} exceeds the sparse steady-state cap {SPARSE_DIM_CAP}; lower dim"
        )
    stats = LUStats() if stats is None else stats
    sym, anti, sign = hermitian_coordinates(dim)
    rows, cols, vals = gen.hermitian_map()
    keep = rows != 0
    n = dim * dim
    m = sp.csc_matrix(
        (
            np.concatenate([vals[keep], np.ones(dim)]),
            (
                np.concatenate([rows[keep], np.zeros(dim, int)]),
                np.concatenate([cols[keep], sym[:: dim + 1]]),  # the diagonal (k, k)
            ),
        ),
        shape=(n, n),
    )
    solve, norm = _factored(m, stats)
    b = np.zeros(n)
    b[0] = 1.0
    x = _refined(solve(b), b, m.dot, solve, norm)
    rho = x[sym] + 1j * sign * x[dim * (dim + 1) // 2 + anti]
    return _unit_trace_state(gen, rho.reshape((dim, dim), order="F"))


def steady_state_nullspace(me: MasterEquation, stats: LUStats | None = None) -> np.ndarray:
    """Unique stationary density matrix from the null space of ``me``: the
    sparse trace-constrained solve on the Hermitian matrices, with a
    condition estimate as the degeneracy test, for dims up to
    ``SPARSE_DIM_CAP``.  The state must leave a residual below
    ``RESIDUAL_TOL`` (floored by the operator's scale), pass the top-level
    guard of a pumped ladder (see :func:`_guarded`) and pass
    :func:`~nclsim.fock.check_density_matrix`.  ``stats``, when given,
    counts the sparse LU work.
    """
    return check_density_matrix(_guarded(me, _nullspace_direct(me.generator, stats)))


def _guarded(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """``rho``, once its top-level population passes the stationary guard."""
    # The stationary states of an equation that pumps a ladder (driving or
    # thermal pumping, with every channel on one off-diagonal band; see
    # MasterEquation.pumps_a_ladder) are truncations of an unbounded ladder, so
    # their top level may hold at most what propagation allows, BREACH_TOL;
    # more raises TailGuardError.  Other equations are not guarded: a dense
    # channel (a projector gadget) or a diagonal one (parity) can make the whole
    # space the model, and their tested states hold up to 0.5 at the top.  A
    # thermal ladder's top holds 3.4e-11 at dim 30 and n̄ = 0.8, so the
    # recurrences' TAIL_GUARD would trip where this guard does not.
    top = float(rho[-1, -1].real)
    if top > BREACH_TOL and me.pumps_a_ladder():
        raise TailGuardError(
            f"stationary top Fock level population p[{me.dim - 1}] = {top:.3e} exceeds "
            f"{BREACH_TOL:.0e} on a pumped ladder; increase dim"
        )
    return rho


# ---------------------------------------------------------------------------
# diagonal recurrences


def _logsumexp(a: np.ndarray) -> np.float64:
    """log Σ exp(a) for a 1-d array with a finite maximum, in the form of
    ``scipy.special.logsumexp`` (1.17) and bitwise its value: the m maxima are
    kept out of the sum, log1p(Σ_{a < max} exp(a - max)/m) + log(m) + max."""
    top = a.max()
    is_max = a == top
    m = float(np.count_nonzero(is_max))
    rest = np.exp(np.where(is_max, -np.inf, a) - top).sum()
    return np.log1p(rest / m) + np.log(m) + top


def _normalized(logp: np.ndarray) -> DiagonalDistribution:
    """The distribution with log-weights ``logp``, once its top level holds
    less than ``TAIL_GUARD``."""
    p = np.exp(logp - _logsumexp(logp))
    p /= p.sum()
    top = p.size - 1
    if p[top] >= TAIL_GUARD:
        raise TailGuardError(
            f"tail weight p[{top}] = {p[top]:.3e} >= {TAIL_GUARD:.0e}; increase dim"
        )
    return DiagonalDistribution(p)


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
        return DiagonalDistribution(np.exp(logp))  # undriven: all weight stays at start
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
    return _normalized(logp)


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
    return _normalized(logp)


# ---------------------------------------------------------------------------
# truncated (driven-frame) equation


def _b_operator(f, epsilon: float, dim: int) -> np.ndarray:
    return ncl_lindblad(lambda n: float(f(n)) ** 2 + epsilon, dim)


def _check_ncl_consistency(me: MasterEquation, f) -> None:
    if me.nbar != 0.0:
        raise InvalidStateError("the rewritten equation assumes no thermal pumping")
    if me.gamma_nonlinear <= 0:
        raise InvalidStateError("the rewritten equation needs gamma_nonlinear > 0")
    expected = ncl_lindblad(f, me.dim)
    if np.abs(me.nonlinear_op - expected).max() > 1e-12:
        raise InvalidStateError("engineered operator is not a·f(a†a) with this f")


def _approximate_generator(me: MasterEquation, f) -> Generator:
    """The equation with the double-commutator term dropped.

    Exact identity: L ρ = L̃ ρ - γ a[[ρ, f(a†a)], f(a†a)]a† for the generator
    L of ``me`` and this one, L̃, so dropping the last term is the entire
    approximation.  The retained part is expressed through
    B = a([f(a†a)]² + ε) and the signed amplitude α₀.
    """
    _check_ncl_consistency(me, f)
    a = annihilation(me.dim)
    ad = a.conj().T
    # With H = iΩ(a - a†) the four-term rewriting closes with the opposite
    # sign of the usual amplitude Ω/γ (``me.alpha0``): the signed amplitude is
    # -Ω/γ, and B̃ = B - (-Ω/γ).  Only α₀² enters the diagonal theory, so
    # observable predictions are unaffected.
    bm = _b_operator(f, me.epsilon, me.dim) + me.alpha0 * np.eye(me.dim)
    bdm = bm.conj().T
    gam = me.gamma_nonlinear
    # γ(a ρ B̃† + B̃ ρ a† - a†B̃ ρ - ρ B̃†a)
    terms = [(gam, a, bdm), (gam, bm, ad), (-gam, ad @ bm, None), (-gam, None, bdm @ a)]
    return Generator(me.dim, terms)


def approximate_steady_state(me: MasterEquation, f, stats: LUStats | None = None) -> np.ndarray:
    """Stationary state of the truncated equation, via its null space.

    Not of Lindblad form, so positivity is not guaranteed; the diagonal obeys
    the driven recurrence exactly and the state satisfies the eigen-relations
    Bρ = α₀ρ, ρB† = α₀ρ up to the Fock-cutoff boundary residual.  The state
    passes the top-level guard of ``me`` (see :func:`_guarded`).  ``stats``,
    when given, counts the sparse LU work.
    """
    return _guarded(me, _nullspace_direct(_approximate_generator(me, f), stats))

