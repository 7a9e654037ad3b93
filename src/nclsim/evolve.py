"""Time propagation of density matrices and convergence to stationarity.

The integrator is an embedded Dormand-Prince 4(5) pair with PI step-size
control, applied directly to the D×D density matrix (no vectorization).
After every accepted step the state is re-Hermitized, ρ ← (ρ+ρ†)/2;
positivity is monitored but never projected, so integrator bugs surface in
the recorded diagnostics instead of being masked.

For master equations with no upward coupling (no driving, no thermal
pumping, every channel operator on a single superdiagonal) population only
flows down the ladder.  The integrator then tracks a shrinking active block:
once the top rows of the block fall below 1e-14 they are zeroed and dropped,
which removes the huge (and empty) decay rates at the cutoff from the
stability constraint.  This is exact up to the 1e-14 clip and is what makes
large-cutoff transient runs affordable.

``fixed_step`` swaps the adaptive pair for classical RK4 with a fixed step on
the same engine: re-Hermitization, diagnostics, the truncation-breach guard
(checked after every step) and the window shrink are shared.
"""

from __future__ import annotations

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

DEFAULT_TOL = 1e-9
STEADY_TOL = 1e-10
BREACH_TOL = 1e-6
_SHRINK_CUT = 1e-14

# Dormand-Prince 4(5) tableau
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1 = 35 / 384 - 5179 / 57600
_E3 = 500 / 1113 - 7571 / 16695
_E4 = 125 / 192 - 393 / 640
_E5 = -2187 / 6784 + 92097 / 339200
_E6 = 11 / 84 - 187 / 2100
_E7 = -1 / 40


def _frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _hermitized(y: np.ndarray):
    """(y + y†)/2 and the asymmetry max|y - y†| that it removes."""
    yd = y.conj().T
    return 0.5 * (y + yd), float(np.abs(y - yd).max())


class _Engine:
    """Adaptive DP45 stepper, or classical RK4 with a fixed step when
    ``fixed_step`` is given, with hermitization, guards and window shrink."""

    def __init__(
        self,
        me: MasterEquation,
        rho0: np.ndarray,
        t0: float,
        tol: float,
        window: bool,
        breach_guard: bool,
        breach_tol: float,
        max_steps: int,
        fixed_step: float | None = None,
    ):
        self.me = me
        self.fixed_step = fixed_step
        self.dim = me.dim
        self.tol = float(tol)
        self.breach_guard = breach_guard
        self.breach_tol = breach_tol
        self.max_steps = int(max_steps)
        self.t = float(t0)
        self.windowed = bool(window) and me.is_pure_lowering()

        y = np.array(rho0, dtype=complex)
        y = 0.5 * (y + y.conj().T)
        self.k_active = self.dim
        if self.windowed:
            rmax = np.abs(y).max(axis=1)
            nz = np.nonzero(rmax >= _SHRINK_CUT)[0]
            k0 = max(2, int(nz.max()) + 1 if nz.size else 2)
            if k0 < self.dim:
                y[k0:, :] = 0.0
                y[:, k0:] = 0.0
            self.k_active = k0
        self.yb = np.ascontiguousarray(y[: self.k_active, : self.k_active])
        self.rhs = me.generator.block(self.k_active)
        self.h = fixed_step
        self.k1 = None
        self.err_prev = 1.0
        self.last_asym = 0.0
        self.attempts = 0

    # -- stepping ---------------------------------------------------------

    def _seed_step(self, span: float) -> float:
        scale = max(self.me.decay_scale(self.k_active), 1e-12)
        return min(abs(span), 0.1 / scale)

    def _dp_step(self, h: float):
        f, y, k1 = self.rhs, self.yb, self.k1
        k2 = f(y + h * (_A21 * k1))
        k3 = f(y + h * (_A31 * k1 + _A32 * k2))
        k4 = f(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        ynew, asym = _hermitized(y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6))
        k7 = f(ynew)
        err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        return ynew, k7, err, asym

    def _rk4_step(self, h: float):
        f, y, k1 = self.rhs, self.yb, self.k1
        k2 = f(y + (0.5 * h) * k1)
        k3 = f(y + (0.5 * h) * k2)
        k4 = f(y + h * k3)
        ynew, asym = _hermitized(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        return ynew, f(ynew), asym

    def _shrink(self):
        changed = False
        while self.k_active > 2:
            k = self.k_active
            if np.abs(self.yb[k - 1, :]).max() >= _SHRINK_CUT:
                break
            self.yb = np.ascontiguousarray(self.yb[: k - 1, : k - 1])
            self.k_active = k - 1
            changed = True
        if changed:
            self.rhs = self.me.generator.block(self.k_active)
            self.k1 = None

    def _guard(self):
        if not self.breach_guard or self.k_active < self.dim:
            return
        top = float(self.yb[-1, -1].real)
        if top > self.breach_tol:
            raise TruncationBreachError(
                f"top Fock level population {top:.3e} exceeds {self.breach_tol:.0e} "
                f"at t={self.t:.6g}; increase dim",
                time=self.t,
            )

    def step_to(self, t_target: float, on_accept=None):
        """Advance to t_target; on_accept(residual) may return True to stop."""
        if self.h is None:
            self.h = self._seed_step(t_target - self.t)
        while self.t < t_target - 1e-14 * max(1.0, abs(t_target)):
            self.attempts += 1
            if self.attempts > self.max_steps:
                raise SimulationError(
                    f"integration exceeded {self.max_steps} step attempts"
                )
            if self.k1 is None:
                self.k1 = self.rhs(self.yb)
            h = min(self.h, t_target - self.t)
            if self.fixed_step is None:
                ynew, k7, err, asym = self._dp_step(h)
                en = _frob(err) / (self.tol * h * max(1.0, _frob(self.yb)))
            else:
                (ynew, k7, asym), en = self._rk4_step(h), 0.0
            if en <= 1.0:
                self.yb = ynew
                self.t += h
                self.k1 = k7
                self.last_asym = asym
                residual = _frob(k7)
                self._guard()
                if self.windowed:
                    self._shrink()
                if self.fixed_step is None:
                    en_c = max(en, 1e-10)
                    fac = 0.9 * en_c**-0.175 * max(self.err_prev, 1e-10) ** 0.1
                    self.h = h * min(10.0, max(0.2, fac))
                    self.err_prev = en_c
                if on_accept is not None and on_accept(residual):
                    return
            else:
                self.h = h * max(0.1, 0.9 * en ** (-1 / 4))
            if self.h < 1e-15 * max(1.0, abs(self.t)):
                raise StepSizeUnderflowError(
                    f"step size underflow at t={self.t:.6g} (h={self.h:.3e})"
                )

    # -- observation ------------------------------------------------------

    def full_state(self) -> np.ndarray:
        if self.k_active == self.dim:
            return self.yb.copy()
        full = np.zeros((self.dim, self.dim), dtype=complex)
        full[: self.k_active, : self.k_active] = self.yb
        return full

    def diagnostics(self):
        tr_err = abs(float(np.real(np.trace(self.yb))) - 1.0)
        w = np.linalg.eigvalsh(self.yb)
        min_eig = float(w.min())
        if self.k_active < self.dim:
            min_eig = min(min_eig, 0.0)
        top = float(self.yb[-1, -1].real) if self.k_active == self.dim else 0.0
        return tr_err, self.last_asym, min_eig, top


@dataclass
class Trajectory:
    """Recorded propagation: states and per-point integrity diagnostics."""

    times: np.ndarray
    states: list
    trace_error: np.ndarray
    herm_error: np.ndarray
    min_eigenvalue: np.ndarray
    top_population: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1 or (t.size > 1 and not np.all(np.diff(t) > 0)):
            raise InvalidStateError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)


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
    breach_guard: bool = True,
    breach_tol: float = BREACH_TOL,
    window: bool = True,
    fixed_step: float | None = None,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate dρ/dt = rhs(me, ρ) and record the state on a time grid.

    ``grid`` must be ascending; ``rho0`` is the state at ``grid[0]``.  ``tol``
    is the local error tolerance per unit time.  ``fixed_step`` selects the
    classical fixed-step RK4 fallback instead of the adaptive pair.
    """
    rho0 = check_density_matrix(rho0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidStateError("time grid must be a non-empty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidStateError("time grid must be strictly increasing")
    if rho0.shape != (me.dim, me.dim):
        raise InvalidStateError(f"rho0 shape {rho0.shape} != ({me.dim}, {me.dim})")

    eng = _Engine(
        me, rho0, grid[0], tol, window, breach_guard, breach_tol, max_steps, fixed_step
    )
    states = [eng.full_state()]
    diags = [eng.diagnostics()]
    for t_next in grid[1:]:
        eng.step_to(float(t_next))
        states.append(eng.full_state())
        diags.append(eng.diagnostics())
    tr, he, mi, tp = (np.array(col) for col in zip(*diags))
    return Trajectory(grid.copy(), states, tr, he, mi, tp)


def evolve_to_steady(
    me: MasterEquation,
    rho0: np.ndarray,
    tol: float = STEADY_TOL,
    t_max: float = 1000.0,
    step_tol: float = DEFAULT_TOL,
    breach_guard: bool = True,
    breach_tol: float = BREACH_TOL,
    window: bool = True,
    max_steps: int = 5_000_000,
) -> SteadyEvolveResult:
    """Integrate until ||rhs(ρ)||_F < tol or t_max is reached.

    The returned result is explicitly tagged converged/unconverged; callers
    must not treat an unconverged state as stationary.
    """
    rho0 = check_density_matrix(rho0)
    if rho0.shape != (me.dim, me.dim):
        raise InvalidStateError(f"rho0 shape {rho0.shape} != ({me.dim}, {me.dim})")
    eng = _Engine(me, rho0, 0.0, step_tol, window, breach_guard, breach_tol, max_steps)
    eng.k1 = eng.rhs(eng.yb)
    residual = _frob(eng.k1)
    if residual < tol:
        return SteadyEvolveResult(eng.full_state(), True, 0.0, residual)

    state = {"res": residual}

    def check(res):
        state["res"] = res
        return res < tol

    eng.step_to(float(t_max), on_accept=check)
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
