"""Closed-form references for the tests: the paper's analytic side.

None of these is run by a config, preset or subcommand; the tests check the
numerics of ``nclsim`` against them.

* Projector gadget A = |φ><y| a^k: the effective transfer rate γ_eff, the
  long-time target population, the linear-to-engineered jump-rate ratio,
  and the projected residual along a trajectory with its exponential decay
  rate.
* Driven NCL stationary diagonal, p_n = p_{n-1} · α₀² / (n (f(n)² + ε)²)
  (``nclsim.steady.ncl_recurrence``): the peak condition
      n₀(f(n₀)²+ε)² ≈ α₀² ,
  the Gaussian profile around the peak
      p_{n₀+δn}/p_{n₀} ≈ exp{-(|δn|(|δn|+1)/2n₀) w} ,
      w = 1 + 4n₀ḟ(n₀)f(n₀)/(f(n₀)²+ε) ,
  and the variance estimate
      Δ²n ≈ n₀ / w ,
  whose ratio Δ²n/n₀ - 1 estimates Mandel Q (→ -4k/(4k+1) for f(n)=n^k).
* Thermal ladder: the photon number where (γ/Γ) f(n) reaches n̄+1.
* Coherent state |α>: the smallest cutoff whose discarded Poisson weight
  P(N ≥ dim), N ~ Poisson(|α|²), is below a threshold, by scipy's pdtrc.
* Truncated (driven-frame) equation: the residual of the eigen-relation
  Bρ = α₀ρ of its stationary state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nclsim.errors import DimensionMismatchError, InvalidStateError, SimulationError
from nclsim.evolve import Trajectory
from nclsim.fock import check_state_vector
from nclsim.gadgets import NonlinearFunction, ProjectorGadget
from nclsim.liouvillian import MasterEquation
from nclsim.steady import _b_operator


class InsufficientDecayError(SimulationError):
    """Trajectory never entered the residual window needed for a rate fit."""


class PeakWindowError(SimulationError):
    """Peak search hit the top of the window; increase dim."""


class UndefinedRatioError(SimulationError):
    """Jump-rate ratio has a vanishing denominator."""


# ---------------------------------------------------------------------------
# coherent states


def coherent_min_dim(alpha: complex, threshold: float) -> int:
    """Smallest dim >= 2 with P(N ≥ dim) < threshold for N ~ Poisson(|α|²),
    walked up from 2 on scipy's pdtrc (pdtrc(k, μ) = P(N > k))."""
    from scipy.special import pdtrc

    d = 2
    while pdtrc(d - 1, abs(alpha) ** 2) >= threshold:
        d += 1
    return d


# ---------------------------------------------------------------------------
# projector gadget


def gamma_eff(gadget: ProjectorGadget, gamma: float) -> float:
    """Effective transfer rate min{1, 2(1-|<φ|Ψ>|²)} · N · γ."""
    ov2 = abs(gadget.overlap) ** 2
    return min(1.0, 2.0 * (1.0 - ov2)) * gadget.norm_factor * float(gamma)


def steady_fidelity_prediction(gadget: ProjectorGadget, rho0: np.ndarray) -> float:
    """Closed-form long-time target population (1-|<φ|Ψ>|²) · Tr{P ρ(0)}."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (gadget.dim, gadget.dim):
        raise DimensionMismatchError(
            f"rho0 shape {rho0.shape} incompatible with gadget dim {gadget.dim}"
        )
    weight = float(np.real(np.trace(gadget.projector @ rho0)))
    return (1.0 - abs(gadget.overlap) ** 2) * weight


def jump_rate_ratio(me, psi: np.ndarray) -> float:
    """Linear-to-engineered jump-rate ratio on a state |Ψ>.

    r = Γ(n̄+1) <Ψ|a†a|Ψ> / (γ <Ψ|A†A|Ψ>); r << 1 means linear loss is
    negligible during target-state generation.
    """
    psi = check_state_vector(np.asarray(psi, dtype=complex))
    if me.gamma_nonlinear <= 0 or me.nonlinear_op is None:
        raise UndefinedRatioError("master equation carries no engineered channel")
    if psi.shape[0] != me.dim:
        raise DimensionMismatchError(f"state dim {psi.shape[0]} != system dim {me.dim}")
    jumped = me.nonlinear_op @ psi
    den = me.gamma_nonlinear * float(np.real(np.vdot(jumped, jumped)))
    if den == 0.0:
        raise UndefinedRatioError("engineered jump rate vanishes on this state")
    n_mean = float(np.sum(np.arange(me.dim) * np.abs(psi) ** 2))
    return me.gamma_linear * (me.nbar + 1.0) * n_mean / den


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


# ---------------------------------------------------------------------------
# stationary diagonal


@dataclass(frozen=True)
class PeakEstimate:
    """Peak location, width estimate and the implied Mandel Q."""

    n0: int
    variance: float
    q_estimate: float


def thermal_truncation_number(f, nbar: float, gamma_over_gamma_linear: float, dim: int) -> int:
    """Smallest n with (γ/Γ) f(n) >= n̄+1: where the thermal ladder is cut off."""
    for n in range(1, dim):
        if gamma_over_gamma_linear * float(f(n)) >= nbar + 1.0:
            return n
    raise InvalidStateError("distribution is not truncated within this dim")


def _width_factor(f: NonlinearFunction, n0: int, epsilon: float) -> float:
    fv = float(f(n0))
    den = fv * fv + epsilon
    num = 4.0 * n0 * f.derivative(n0) * fv
    if den == 0.0:
        return 1.0
    return 1.0 + num / den


def peak_condition(f: NonlinearFunction, alpha0: float, epsilon: float, dim: int) -> PeakEstimate:
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


def gaussian_profile(f: NonlinearFunction, n0: int, epsilon: float, delta_n: int) -> float:
    """Predicted ratio p_{n₀+δn}/p_{n₀} from the log-curvature of the
    recurrence: exp{-(|δn|(|δn|+1)/2n₀)(1 + 4n₀ḟ(n₀)f(n₀)/(f(n₀)²+ε))}."""
    if n0 < 1:
        raise InvalidStateError("profile needs n0 >= 1")
    d = abs(int(delta_n))
    return float(np.exp(-(d * (d + 1) / (2.0 * n0)) * _width_factor(f, n0, epsilon)))


def b_eigen_residual(me: MasterEquation, f, rho: np.ndarray) -> float:
    """||Bρ - α₀ρ||_F with the signed amplitude α₀ = -Ω/γ (see
    ``steady._approximate_generator``), the eigen-relation residual of a
    candidate steady state."""
    b = _b_operator(f, me.epsilon, me.dim)
    return float(np.linalg.norm(b @ rho + me.alpha0 * rho))
