"""Time propagation of density matrices.

Every equation here is linear and autonomous, dρ/dt = Lρ, so a substep τ maps
ρ to exp(τL)ρ.  The integrator approximates that action in a Krylov subspace,
as Expokit does (Saad, SIAM J. Numer. Anal. 29 (1992); Sidje, ACM TOMS 24
(1998)): Arnoldi builds an orthonormal basis V of span{ρ, Lρ, …} with
``KRYLOV_DIM`` vectors and the Hessenberg matrix H of L in it, and the state
after τ is β·V·exp(τH̄)e₁ (β = ‖ρ‖, H̄ is H augmented by two rows and
columns).  Expokit's two-term estimate of the local error must stay below
``tol``·τ (Frobenius norm), so ``tol`` bounds the local error per unit time.
The small exponentials are a numpy Padé scaling and squaring (Higham, SIAM
J. Matrix Anal. Appl. 26 (2005)), so propagation imports no scipy.  Substeps
are clipped only at the final time: the grid times tg inside a substep are
read from its basis, with weights β·exp(c·τH̄)e₁ for c = (tg - t)/τ.  One
Padé call serves up to ``PADE_BATCH`` = 32 of them: it takes the degree and
scaling of exp(τH̄) and forms the powers of τH̄ once.  Every new state and
grid state is re-Hermitized, ρ ← (ρ+ρ†)/2; positivity is monitored but
never projected, so integrator bugs surface in the recorded diagnostics.

For master equations with no upward coupling (no driving, no thermal
pumping, every channel operator on a single superdiagonal: the equation
decides it, through ``MasterEquation.is_pure_lowering``) population only
flows down the ladder, and the integrator tracks a shrinking active block:
top rows below 1e-14 are dropped, from ρ₀ and after every substep, and the
next basis is built on the smaller block.  The truncation-breach guard is
always on, at ``BREACH_TOL``, after every substep.

The block is float64 when the generator (see
:class:`~nclsim.liouvillian.Generator`) and ρ₀ are both real, as for every
preset and INI equation, and complex128 otherwise; Arnoldi runs on its real
view either way.  A trajectory keeps each grid state as that block,
read-only, and pads it to a complex128 dim×dim array when it is read.

Results do not depend on the BLAS thread count.  Norms and the Gram–Schmidt
contractions with the first basis vector alone are summed by einsum: a BLAS
dot, or a product with one row, splits a long vector among threads and then
changes its last bits.  The contractions with two or more basis rows,
``basis @ w`` and ``c @ basis``, go to BLAS in column slices of
``_GS_COLUMNS``, small enough that OpenBLAS runs each product on one thread
(it threads a matrix-vector product from 460800 entries on).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidStateError,
    SimulationError,
    StepSizeUnderflowError,
    TruncationBreachError,
)
from .fock import check_density_matrix
from .liouvillian import MasterEquation

DEFAULT_TOL = 1e-12
BREACH_TOL = 1e-6
KRYLOV_DIM = 20
_SHRINK_CUT = 1e-14
MAX_SUBSTEPS = 2_000_000
# an Arnoldi residual this far below ‖L v₀‖ means the basis spans an
# invariant subspace (to round-off): the exponential in it is exact for every τ
_BREAKDOWN = 1e-13
# grid times read in one Padé call, so that a substep covering a long grid
# (one whose basis broke down covers every grid time left) holds at most this
# many small exponentials at once
PADE_BATCH = 32
# basis columns per BLAS product in Gram–Schmidt: OpenBLAS runs a
# matrix-vector product on one thread while rows × columns < 460800, and
# KRYLOV_DIM rows of this many columns stay below that
_GS_COLUMNS = 20_000


# Higham (2005), Table 2.3: the largest ‖A‖₁ for which the [m/m] Padé
# approximant of exp meets double precision; above θ₁₃, A is scaled by 2⁻ˢ.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE = {m: np.array([math.factorial(2 * m - j) * math.factorial(m)
                      / (math.factorial(2 * m) * math.factorial(j) * math.factorial(m - j))
                      for j in range(m + 1)]) for m in _THETA}


def _expm(a: np.ndarray, scales=None) -> np.ndarray:
    """exp(c·a) for each scale c in (0, 1] of ``scales``, stacked, or exp(a)
    itself when ``scales`` is None, by Padé scaling and squaring (Higham
    2005).  The degree and the scaling are those of exp(a): the lowest degree
    m whose θ bounds ‖a‖₁, else degree 13 on a/2ˢ, which bounds every c·a/2ˢ
    too.  The even powers of a/2ˢ are formed once, and one coefficient
    product over them gives every numerator Σ bⱼ(ca)ʲ and denominator
    Σ (-1)ʲbⱼ(ca)ʲ, with bⱼ = (2m-j)!·m! / ((2m)!·j!·(m-j)!); one batched
    solve and s batched squarings follow."""
    norm = float(np.abs(a).sum(axis=0).max())
    m = min(d for d, theta in _THETA.items() if norm <= theta or d == 13)
    s = math.ceil(math.log2(norm / _THETA[13])) if norm > _THETA[13] else 0
    a, b = a * 2.0**-s, _PADE[m]
    powers = [np.eye(a.shape[0]), a @ a]  # the even powers up to a^(m-1)
    while len(powers) < (m + 1) // 2:
        powers.append(powers[-1] @ powers[1])
    c = np.ones(1) if scales is None else np.asarray(scales, dtype=float)
    even = c[:, None] ** (2 * np.arange(len(powers)))
    coef = np.concatenate([b[0::2] * even, b[1::2] * even])
    v, odd = (coef @ np.reshape(powers, (len(powers), -1))).reshape(2, c.size, *a.shape)
    u = c[:, None, None] * (a @ odd)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r[0] if scales is None else r


def _flat(m: np.ndarray) -> np.ndarray:
    """A contiguous real or complex array as one real vector (a view)."""
    return m.reshape(-1).view(np.float64)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, summed by einsum's own loop: a BLAS
    dot splits long vectors among threads, and its value then depends on
    the thread count."""
    return math.sqrt(np.einsum("i,i->", v, v))


def _rounded(t: float) -> float:
    """A substep size rounded up to two significant digits (Expokit)."""
    s = 10.0 ** (math.floor(math.log10(t)) - 1)
    return math.ceil(t / s) * s


def _check_tol(value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidStateError(f"tol must be finite and > 0, got {value!r}")
    return value


def _hermitized(y: np.ndarray):
    """(y + y†)/2 and the asymmetry max|y - y†| that it removes."""
    yd = y.conj().T
    return 0.5 * (y + yd), float(np.abs(y - yd).max())


@dataclass(frozen=True)
class SolverStats:
    """What the stepper did: substeps taken and rejected, products with the
    generator, the largest Krylov dimension of a substep and the smallest
    active-block size reached."""

    substeps: int
    rejected_substeps: int
    matvecs: int
    max_krylov_dim: int
    min_k_active: int


class _Engine:
    """Krylov exponential stepper on the active block, with hermitization,
    the breach guard, window shrink (ρ₀ included) when the equation is pure
    lowering, and grid states read from the basis of the substep that covers
    them.  The basis is one (KRYLOV_DIM + 2, m, m) array in the block's
    dtype, allocated for each block size: the orthonormal vectors, then
    L v_{m+1}."""

    def __init__(self, me: MasterEquation, rho0: np.ndarray, t0: float, tol: float):
        self.me = me
        self.dim = me.dim
        self.tol = tol
        self.t = float(t0)
        self.windowed = me.is_pure_lowering()

        real = me.generator.dtype == np.float64 and not np.imag(rho0).any()
        y = np.array(np.real(rho0) if real else rho0, dtype=np.float64 if real else complex)
        self.yb, self.last_asym = _hermitized(y)
        self.k_active = self.dim
        if self.windowed:
            self._shrink()
        self._allocate()
        self.h = None
        self.substeps = self.rejected = self.matvecs = self.max_krylov = 0

    def _allocate(self):
        """Block map and Krylov basis for the current k_active."""
        m = self.k_active
        self.rhs = self.me.generator.block(m)
        self.kdim = min(KRYLOV_DIM, _flat(self.yb).size)
        self.v = np.empty((self.kdim + 2, m, m), dtype=self.yb.dtype)
        self.vflat = self.v.reshape(self.kdim + 2, -1).view(np.float64)
        self.parts = [self.vflat[:, i : i + _GS_COLUMNS]
                      for i in range(0, self.vflat.shape[1], _GS_COLUMNS)]

    # -- stepping ---------------------------------------------------------

    def _arnoldi(self):
        """(β, H̄, ‖L v_{m+1}‖) of the current state's Krylov basis, with
        ‖L v_{m+1}‖ None when the basis breaks down.  Each new vector is
        orthogonalized against the basis twice (:meth:`_project_out`)."""
        v, vf = self.v, self.vflat
        beta = _norm(_flat(self.yb))
        np.multiply(self.yb, 1.0 / beta, out=v[0])
        m = self.kdim
        hbar = np.zeros((m + 2, m + 2))
        avnorm = None
        for j in range(m):
            self.rhs(v[j], out=v[j + 1])
            self.matvecs += 1
            w = vf[j + 1]
            if j == 0:
                cut = _BREAKDOWN * _norm(w)
            c = self._project_out(j + 1)
            hbar[: j + 1, j] = c + self._project_out(j + 1)
            s = _norm(w)
            if s <= cut:
                hbar = hbar[: j + 1, : j + 1]
                break
            hbar[j + 1, j] = s
            w /= s
        else:
            self.rhs(v[m], out=v[m + 1])
            self.matvecs += 1
            avnorm = _norm(vf[m + 1])
            hbar[m + 1, m] = 1.0
        self.max_krylov = max(self.max_krylov, j + 1)
        return beta, hbar, avnorm

    def _project_out(self, k: int) -> np.ndarray:
        """One classical Gram–Schmidt pass: subtract from basis vector k its
        components along the orthonormal vectors 0..k-1 and return them.
        One vector is summed by einsum, like :func:`_norm`; more go to BLAS,
        one column slice (``self.parts``) at a time, so that OpenBLAS keeps
        each product on one thread."""
        if k == 1:
            basis, w = self.vflat[:1], self.vflat[1]
            c = np.einsum("ij,j->i", basis, w)
            w -= np.einsum("i,ij->j", c, basis)
            return c
        first = self.parts[0]
        c = first[:k] @ first[k]
        for part in self.parts[1:]:
            c += part[:k] @ part[k]
        for part in self.parts:
            part[k] -= c @ part[:k]
        return c

    def _weights(self, kry, tau: float):
        """β·exp(τH̄)e₁, the weights of the basis vectors after τ, and
        Expokit's local error estimate with its step exponent; a basis that
        broke down (``avnorm`` None) is exact for every τ."""
        beta, hbar, avnorm = kry
        f = beta * _expm(tau * hbar)[:, 0]
        if avnorm is None:
            return f, 0.0, 1.0
        m = hbar.shape[0] - 2
        phi1, phi2 = abs(f[m]), abs(f[m + 1]) * avnorm
        if phi1 > 10.0 * phi2:
            return f[: m + 1], phi2, 1.0 / m
        if phi1 > phi2:
            return f[: m + 1], phi1 * phi2 / (phi1 - phi2), 1.0 / m
        return f[: m + 1], phi1, 1.0 / (m - 1)

    def _grid_states(self, kry, t: float, times: np.ndarray) -> list:
        """Observations at the grid ``times`` inside the substep that began
        at t, read from its basis: exp(c·τH̄) for c = (tg - t)/τ, with
        τ = self.t - t, ``PADE_BATCH`` grid times per Padé call."""
        beta, hbar, avnorm = kry
        size = hbar.shape[0] - (avnorm is not None)  # the basis vectors' weights
        span, seen = self.t - t, []
        for i in range(0, times.size, PADE_BATCH):
            f = _expm(span * hbar, (times[i : i + PADE_BATCH] - t) / span)
            seen += [self.observe(*self._state(w)) for w in beta * f[:, :size, 0]]
        return seen

    def _state(self, w):
        """The hermitized block Σ wᵢvᵢ over the basis and its asymmetry."""
        y = np.einsum("i,ij->j", w, self.vflat[: w.size])
        return _hermitized(y.view(self.yb.dtype).reshape(self.yb.shape))

    def _substep(self, kry, span: float):
        """A substep up to ``span`` whose local error estimate is at most
        δ·τ·tol, and its weights.  From the proposed size, each rejection
        shrinks τ on the same basis, and the next proposal grows from the
        error met, by Expokit's heuristic with δ = 1.2 and γ = 0.9."""
        if kry[2] is None:
            return span, self._weights(kry, span)[0]
        if self.h is None:  # Expokit's first substep, from an estimate of ‖L‖
            anorm, m = max(self.me.decay_scale(self.k_active), 1e-12), self.kdim
            fact = ((m + 1) / math.e) ** (m + 1) * math.sqrt(2.0 * math.pi * (m + 1))
            self.h = _rounded((fact * self.tol / (4.0 * kry[0] * anorm)) ** (1.0 / m) / anorm)
        tau = min(self.h, span)
        while True:
            w, err, xm = self._weights(kry, tau)
            if err <= 1.2 * tau * self.tol:
                break
            self.rejected += 1
            tau = 0.9 * tau * (tau * self.tol / err) ** xm
            if not tau >= 1e-15 * max(1.0, abs(self.t)):  # a NaN estimate too
                raise StepSizeUnderflowError(
                    f"step size underflow at t={self.t:.6g} (h={tau:.3e})"
                )
            tau = _rounded(tau)
        self.h = _rounded(0.9 * tau * (tau * self.tol / max(err, 1e-300)) ** xm)
        return tau, w

    def _shrink(self) -> bool:
        """Drop the top rows of the block while they are below _SHRINK_CUT
        (never below 2×2); True when the block shrank."""
        k = self.k_active
        while k > 2 and np.abs(self.yb[k - 1, :k]).max() < _SHRINK_CUT:
            k -= 1
        if k == self.k_active:
            return False
        self.yb = np.ascontiguousarray(self.yb[:k, :k])
        self.k_active = k
        return True

    def _guard(self):
        if self.k_active < self.dim:
            return
        top = float(self.yb[-1, -1].real)
        if top > BREACH_TOL:
            raise TruncationBreachError(
                f"top Fock level population {top:.3e} exceeds {BREACH_TOL:.0e} "
                f"at t={self.t:.6g}; increase dim"
            )

    def run(self, t_end: float, grid: np.ndarray) -> list:
        """Advance to t_end and observe the state at each time of the
        ascending ``grid`` inside (t, t_end].

        Substeps are clipped only at t_end; the grid times inside a substep
        are read from that substep's basis (:meth:`_grid_states`).  Returns
        the observations (see :meth:`observe`).
        """
        seen = []
        done = 1e-14 * max(1.0, abs(t_end))
        while self.t < t_end - done:
            if self.substeps + self.rejected >= MAX_SUBSTEPS:
                raise SimulationError(f"integration exceeded {MAX_SUBSTEPS} substeps")
            kry = self._arnoldi()
            t = self.t
            tau, w = self._substep(kry, t_end - t)
            self.yb, self.last_asym = self._state(w)
            self.substeps += 1
            self.t = t_end if t + tau >= t_end - done else t + tau
            self._guard()
            stop = int(np.searchsorted(grid, self.t, side="right"))
            at_end = stop > len(seen) and grid[stop - 1] == self.t
            seen += self._grid_states(kry, t, grid[len(seen) : stop - at_end])
            if at_end:
                seen.append(self.observe())
            if self.windowed and self._shrink():
                self._allocate()
        # only a span within round-off of t_end is left without a substep
        seen += [self.observe() for _ in grid[len(seen):]]
        return seen

    # -- observation ------------------------------------------------------

    def observe(self, y: np.ndarray | None = None, asym: float | None = None):
        """(block, diagnostics) of a hermitized block of the current size, the
        current state by default; the diagnostics are the trace error, the
        asymmetry removed by its hermitization, the smallest eigenvalue and
        the top Fock population.  The block is recorded as it is, read-only:
        nothing writes a state in place, and a later write raises."""
        if y is None:
            y, asym = self.yb, self.last_asym
        y.flags.writeable = False
        tr_err = abs(float(np.real(np.trace(y))) - 1.0)
        min_eig = float(np.linalg.eigvalsh(y).min())
        if self.k_active < self.dim:
            min_eig = min(min_eig, 0.0)
        top = float(y[-1, -1].real) if self.k_active == self.dim else 0.0
        return y, (tr_err, asym, min_eig, top)

    def stats(self) -> SolverStats:
        # the window only shrinks, so the current block is the smallest
        return SolverStats(
            self.substeps, self.rejected, self.matvecs, self.max_krylov, self.k_active
        )


def _padded(block: np.ndarray, dim: int) -> np.ndarray:
    """A leading m×m block padded with zeros to a fresh dim×dim complex128
    array."""
    full = np.zeros((dim, dim), dtype=complex)
    m = block.shape[0]
    full[:m, :m] = block
    return full


class _States(Sequence):
    """The recorded states of a trajectory: a read-only sequence over the
    blocks the integrator observed, each item padded by :func:`_padded` when
    it is read."""

    def __init__(self, blocks, dim: int):
        self.blocks = tuple(blocks)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i: int) -> np.ndarray:
        return _padded(self.blocks[i], self.dim)


@dataclass
class Trajectory:
    """Recorded propagation: states, per-point integrity diagnostics, and
    what the stepper did.  ``states`` keeps each state as the active block
    the integrator observed (float64 for a real equation) and returns it
    padded to a fresh complex128 dim×dim array on every read."""

    times: np.ndarray
    states: Sequence
    trace_error: np.ndarray
    herm_error: np.ndarray
    min_eigenvalue: np.ndarray
    top_population: np.ndarray
    stats: SolverStats


def propagate(
    me: MasterEquation,
    rho0: np.ndarray,
    grid,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate dρ/dt = rhs(me, ρ) and record the state on a time grid.

    ``grid`` must be ascending; ``rho0`` is the state at ``grid[0]``.  ``tol``
    bounds the local error per unit time (Frobenius norm), finite and > 0.
    The grid does not clip the substeps: each grid state is read from the
    Krylov basis of the substep that covers it.  The states are
    kept as the integrator's active blocks and padded to complex128
    dim×dim arrays on each read (see :class:`Trajectory`).
    """
    tol = _check_tol(tol)
    rho0 = check_density_matrix(rho0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidStateError("time grid must be a non-empty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidStateError("time grid must be strictly increasing")
    if rho0.shape != (me.dim, me.dim):
        raise InvalidStateError(f"rho0 shape {rho0.shape} != ({me.dim}, {me.dim})")

    eng = _Engine(me, rho0, grid[0], tol)
    states, diags = zip(eng.observe(), *eng.run(float(grid[-1]), grid[1:]))
    tr, he, mi, tp = (np.array(col) for col in zip(*diags))
    return Trajectory(grid.copy(), _States(states, me.dim), tr, he, mi, tp, eng.stats())

