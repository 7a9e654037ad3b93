"""Time propagation of density matrices and convergence to stationarity.

The integrator is an embedded Dormand-Prince 4(5) pair with PI step-size
control, applied directly to the D×D density matrix (no vectorization).
The error is controlled per step: the local error estimate of a step,
h·‖Σ eᵢkᵢ‖, must stay below ``tol``·max(1, ‖ρ‖) (Frobenius norms), and the
PI controller uses the exponents of an error of order h⁵ (Hairer, Nørsett &
Wanner, *Solving ODEs I*, §II.4).  Steps are clipped only at the final time:
a grid time inside an accepted step is read from the pair's free 4th-order
continuous extension over the stage derivatives of that step (§II.6).
After every accepted step, and for every grid state, the state is
re-Hermitized, ρ ← (ρ+ρ†)/2; positivity is monitored but never projected,
so integrator bugs surface in the recorded diagnostics instead of being
masked.

For master equations with no upward coupling (no driving, no thermal
pumping, every channel operator on a single superdiagonal) population only
flows down the ladder.  The integrator then tracks a shrinking active block:
once the top rows of the block fall below 1e-14 they are dropped, which
removes the huge (and empty) decay rates at the cutoff from the stability
constraint.  One rule trims ρ₀ and the state after every accepted step.
This is exact up to the 1e-14 clip and is what makes large-cutoff transient
runs affordable.

The step reads DP45's tableau from the module arrays ``_A``, ``_B``, ``_E``
and ``_P``.  The truncation-breach guard is always on, at ``BREACH_TOL``,
after every accepted step.  The stage derivatives are the rows of
one array, and every stage input, the new state, the error estimate and
every grid state is one tableau row times that array.

The active block is float64 when the generator (see
:class:`~nclsim.liouvillian.Generator`) and ρ₀ are both real, as for every
preset and INI equation, and complex128 otherwise.  A trajectory keeps each
grid state as that block, read-only, and pads it to a complex128 dim×dim
array when it is read.  Norms are summed by numpy, not by a BLAS dot, whose
value changes with the BLAS thread count on long vectors.
:class:`SolverStats` counts accepted and rejected steps, rhs evaluations and
the smallest active block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDecayError,
    InvalidStateError,
    SimulationError,
    StepSizeUnderflowError,
    TruncationBreachError,
)
from .fock import check_density_matrix
from .liouvillian import MasterEquation

DEFAULT_TOL = 1e-12
STEADY_TOL = 1e-10
STEADY_STEP_TOL = 1e-13
BREACH_TOL = 1e-6
_SHRINK_CUT = 1e-14


# Dormand & Prince, J. Comput. Appl. Math. 6 (1980): 5th-order solution, error
# against the embedded 4th-order one; the free 4th-order continuous extension
# is Dormand & Prince's (Hairer, Nørsett & Wanner, Solving ODEs I, §II.6).
# The last stage is evaluated at the new state (first same as last): _A[i]
# weights the stages before stage i, _B gives the new state and _E, over every
# stage and the last one, the local error estimate.  _P is the continuous
# extension over the same rows: the state at t + θh is y + h·Σ bᵢ(θ)kᵢ with
# bᵢ(θ) = Σ_j _P[i, j]·θ^(j+1).
_A = (
    (),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [
        35 / 384 - 5179 / 57600,
        0.0,
        500 / 1113 - 7571 / 16695,
        125 / 192 - 393 / 640,
        -2187 / 6784 + 92097 / 339200,
        11 / 84 - 187 / 2100,
        -1 / 40,
    ]
)
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_STAGES = len(_B)


def _flat(m: np.ndarray) -> np.ndarray:
    """A contiguous real or complex array as one real vector (a view)."""
    return m.reshape(-1).view(np.float64)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, summed by einsum's own loop: a BLAS
    dot splits long vectors among threads, and its value then depends on
    the thread count."""
    return math.sqrt(np.einsum("i,i->", v, v))


def _check_tol(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidStateError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _hermitized(y: np.ndarray):
    """(y + y†)/2 and the asymmetry max|y - y†| that it removes."""
    yd = y.conj().T
    return 0.5 * (y + yd), float(np.abs(y - yd).max())


@dataclass(frozen=True)
class SolverStats:
    """What the stepper did: step attempts accepted and rejected, right-hand
    side evaluations, and the smallest active-block size reached."""

    accepted_steps: int
    rejected_steps: int
    rhs_evaluations: int
    min_k_active: int


class _Engine:
    """Adaptive DP45 stepper on the active block, with hermitization, the
    breach guard (always on), window shrink and grid states from the
    continuous extension of each accepted step.

    The block is float64 when the generator and ρ₀ are both real, and
    complex128 otherwise.  Stage derivatives are the rows of one
    (stages + 1, m, m) array, reallocated only when the window shrinks; row 0
    holds f(y) and the last row f(y_new), which becomes row 0 of the next
    step.  Stage combinations are products of a row of ``_A``, ``_B``,
    ``_E`` or ``_P`` with the real view of those rows.  A windowed run
    starts from the full space and trims ρ₀ by the rule of :meth:`_shrink`.
    """

    def __init__(
        self,
        me: MasterEquation,
        rho0: np.ndarray,
        t0: float,
        tol: float,
        window: bool,
        max_steps: int,
    ):
        self.me = me
        self.dim = me.dim
        self.tol = tol
        self.max_steps = int(max_steps)
        self.t = float(t0)
        self.windowed = bool(window) and me.is_pure_lowering()

        real = me.generator.dtype == np.float64 and not np.imag(rho0).any()
        y = np.array(np.real(rho0) if real else rho0, dtype=np.float64 if real else complex)
        self.yb = 0.5 * (y + y.conj().T)
        self.k_active = self.dim
        if self.windowed:
            self._shrink()
        self._allocate()
        self.h = None
        self.err_prev = 1.0
        self.last_asym = 0.0
        self.accepted = 0
        self.rejected = 0
        self.rhs_evaluations = 0

    def _allocate(self):
        """Block map and stage buffers for the current k_active; row 0 stale."""
        m = self.k_active
        self.rhs = self.me.generator.block(m)
        self.k = np.empty((_STAGES + 1, m, m), dtype=self.yb.dtype)
        self.kflat = self.k.reshape(self.k.shape[0], -1).view(np.float64)
        self.stage = np.empty((m, m), dtype=self.yb.dtype)
        self.k_fresh = False

    def derivative(self) -> np.ndarray:
        """f(y) at the current state (stage row 0)."""
        if not self.k_fresh:
            self.rhs(self.yb, out=self.k[0])
            self.rhs_evaluations += 1
            self.k_fresh = True
        return self.k[0]

    # -- stepping ---------------------------------------------------------

    def _seed_step(self, span: float) -> float:
        scale = max(self.me.decay_scale(self.k_active), 1e-12)
        return min(abs(span), 0.1 / scale)

    def _step(self, h: float):
        """One attempt of size h: the new state, its asymmetry, and the
        local error norm in units of the tolerance."""
        y, k, kflat = self.yb, self.k, self.kflat
        self.derivative()
        stage_flat = _flat(self.stage)
        for i in range(1, _STAGES):
            np.matmul(h * _A[i], kflat[:i], out=stage_flat)
            self.stage += y
            self.rhs(self.stage, out=k[i])
        dy = (h * _B) @ kflat[:_STAGES]
        ynew, asym = _hermitized(y + dy.view(y.dtype).reshape(y.shape))
        self.rhs(ynew, out=k[-1])
        self.rhs_evaluations += _STAGES
        err = h * _norm(_E @ kflat)
        return ynew, asym, err / (self.tol * max(1.0, _norm(_flat(y))))

    def _dense(self, y: np.ndarray, theta: float, h: float):
        """The hermitized state at t + θh inside the step of size h from y,
        y + h·Σ bᵢ(θ)kᵢ over the stage rows of that step, and its asymmetry."""
        w = (h * theta) * (_P @ theta ** np.arange(_P.shape[1]))
        dy = w @ self.kflat
        return _hermitized(y + dy.view(y.dtype).reshape(y.shape))

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
                f"at t={self.t:.6g}; increase dim",
                time=self.t,
            )

    def run(self, t_end: float, grid=(), on_accept=None) -> list:
        """Advance to t_end and observe the state at each time of the
        ascending ``grid`` inside (t, t_end].

        Steps are clipped only at t_end; a grid time inside an accepted step
        is observed from that step's continuous extension.  on_accept(residual)
        may return True to stop, where residual is ||f(y)||_F at the accepted
        state.  Returns the observations (see :meth:`observe`).
        """
        seen = []
        if self.h is None:
            self.h = self._seed_step(t_end - self.t)
        done = 1e-14 * max(1.0, abs(t_end))
        while self.t < t_end - done:
            if self.accepted + self.rejected >= self.max_steps:
                raise SimulationError(
                    f"integration exceeded {self.max_steps} step attempts"
                )
            h = min(self.h, t_end - self.t)
            ynew, asym, en = self._step(h)
            if en <= 1.0:
                y, t = self.yb, self.t
                self.accepted += 1
                self.yb = ynew
                self.t = t_end if t + h >= t_end - done else t + h
                self.last_asym = asym
                self._guard()
                while len(seen) < len(grid) and grid[len(seen)] <= self.t:
                    theta = min(1.0, (grid[len(seen)] - t) / h)
                    seen.append(self.observe(*self._dense(y, theta, h)))
                self.k[0] = self.k[-1]
                if self.windowed and self._shrink():
                    self._allocate()
                # PI control for a local error of order h⁵
                en_c = max(en, 1e-10)
                fac = 0.9 * en_c ** (-0.7 / 5) * max(self.err_prev, 1e-10) ** (0.4 / 5)
                self.h = h * min(10.0, max(0.2, fac))
                self.err_prev = en_c
                if on_accept is not None and on_accept(_norm(_flat(self.derivative()))):
                    return seen
            else:
                self.rejected += 1
                self.h = h * max(0.1, 0.9 * en ** (-1 / 5))
            if self.h < 1e-15 * max(1.0, abs(self.t)):
                raise StepSizeUnderflowError(
                    f"step size underflow at t={self.t:.6g} (h={self.h:.3e})"
                )
        # only a span within round-off of t_end is left without a step
        seen += [self.observe() for _ in grid[len(seen):]]
        return seen

    # -- observation ------------------------------------------------------

    def full_state(self, y: np.ndarray | None = None) -> np.ndarray:
        """A block (the current state by default) padded by :func:`_padded`."""
        return _padded(self.yb if y is None else y, self.dim)

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
        return SolverStats(self.accepted, self.rejected, self.rhs_evaluations, self.k_active)


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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _States(self.blocks[i], self.dim)
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


@dataclass
class SteadyEvolveResult:
    """Outcome of integrating toward stationarity; never silently unconverged."""

    rho: np.ndarray
    converged: bool
    t_final: float
    residual: float


def propagate(
    me: MasterEquation,
    rho0: np.ndarray,
    grid,
    tol: float = DEFAULT_TOL,
    window: bool = True,
) -> Trajectory:
    """Integrate dρ/dt = rhs(me, ρ) and record the state on a time grid.

    ``grid`` must be ascending; ``rho0`` is the state at ``grid[0]``.  ``tol``
    is the local error tolerance per step, relative to max(1, ‖ρ‖), finite
    and > 0.  The grid does not clip the steps: each grid state comes from
    the continuous extension of the step that covers it.  The states are
    kept as the integrator's active blocks and padded to complex128
    dim×dim arrays on each read (see :class:`Trajectory`).
    """
    tol = _check_tol("tol", tol)
    rho0 = check_density_matrix(rho0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidStateError("time grid must be a non-empty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidStateError("time grid must be strictly increasing")
    if rho0.shape != (me.dim, me.dim):
        raise InvalidStateError(f"rho0 shape {rho0.shape} != ({me.dim}, {me.dim})")

    eng = _Engine(me, rho0, grid[0], tol, window, max_steps=2_000_000)
    states, diags = zip(eng.observe(), *eng.run(float(grid[-1]), grid[1:]))
    tr, he, mi, tp = (np.array(col) for col in zip(*diags))
    return Trajectory(grid.copy(), _States(states, me.dim), tr, he, mi, tp, eng.stats())


def evolve_to_steady(
    me: MasterEquation,
    rho0: np.ndarray,
    tol: float = STEADY_TOL,
    t_max: float = 1000.0,
    step_tol: float = STEADY_STEP_TOL,
) -> SteadyEvolveResult:
    """Integrate until ||rhs(ρ)||_F < tol or t_max is reached.

    ``tol`` and the per-step error tolerance ``step_tol`` must be finite and
    > 0.  Every step may leave a local error of about ``step_tol``, so the
    residual cannot fall much below the fastest rate times ``step_tol``;
    tighten both together.  The
    returned result is explicitly tagged converged/unconverged; callers must
    not treat an unconverged state as stationary.
    """
    tol = _check_tol("tol", tol)
    step_tol = _check_tol("step_tol", step_tol)
    rho0 = check_density_matrix(rho0)
    if rho0.shape != (me.dim, me.dim):
        raise InvalidStateError(f"rho0 shape {rho0.shape} != ({me.dim}, {me.dim})")
    eng = _Engine(me, rho0, 0.0, step_tol, window=True, max_steps=5_000_000)
    residual = _norm(_flat(eng.derivative()))
    if residual < tol:
        return SteadyEvolveResult(eng.full_state(), True, 0.0, residual)

    state = {"res": residual}

    def check(res):
        state["res"] = res
        return res < tol

    eng.run(float(t_max), on_accept=check)
    residual = state["res"]
    return SteadyEvolveResult(eng.full_state(), residual < tol, eng.t, residual)


def projector_residuals(traj: Trajectory, gadget) -> np.ndarray:
    """||P ρ(t) P - Tr{Pρ(0)} |0><0| ||_F along a trajectory."""
    p = gadget.projector
    c0 = float(np.real(np.trace(p @ traj.states[0])))
    limit = c0 * np.outer(gadget.complement, gadget.complement.conj())
    return np.array([np.linalg.norm(p @ rho @ p - limit) for rho in traj.states])


def decay_rate_fit(
    traj: Trajectory,
    gadget,
    window: tuple = (1e-8, 1e-2),
) -> float:
    """Exponential rate of the projected residual, by least squares on log ε.

    Only points with ε inside ``window`` enter the fit; outside it the
    residual is either still transient or drowned in integration noise.
    """
    eps = projector_residuals(traj, gadget)
    lo, hi = window
    mask = (eps >= lo) & (eps <= hi)
    if int(mask.sum()) < 3:
        raise InsufficientDecayError(
            f"only {int(mask.sum())} residual points inside [{lo:.0e}, {hi:.0e}]; "
            "extend the trajectory"
        )
    slope = np.polyfit(traj.times[mask], np.log(eps[mask]), 1)[0]
    return float(-slope)
