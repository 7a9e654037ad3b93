import numpy as np
import pytest

from conftest import trace_distance
from nclsim import evolve, fock, gadgets, liouvillian as lv, steady
from nclsim.errors import (
    InsufficientDecayError,
    InvalidStateError,
    TruncationBreachError,
)


def _ncl_me(dim, **kw):
    f = gadgets.NonlinearFunction.from_name("x-1")
    return lv.MasterEquation(dim, nonlinear_op=gadgets.ncl_lindblad(f, dim), **kw)


def test_frozen_state_without_generator():
    me = lv.MasterEquation(14)
    rho0 = fock.pure_density(fock.coherent_state(1.0, 14))
    traj = evolve.propagate(me, rho0, np.linspace(0, 5, 6))
    for state in traj.states:
        assert np.abs(state - rho0).max() <= 1e-12


def test_two_level_decay_closed_form():
    gamma = 0.7
    me = lv.MasterEquation(4, gamma_linear=gamma)
    rho0 = fock.pure_density(fock.fock_state(1, 4))
    grid = np.linspace(0, 2, 21)
    traj = evolve.propagate(me, rho0, grid)
    for t, state in zip(traj.times, traj.states):
        assert abs(np.real(state[1, 1]) - np.exp(-2 * gamma * t)) <= 1e-6


def test_propagate_diagnostics_bounds():
    me = _ncl_me(24, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(2.0, 24))
    traj = evolve.propagate(me, rho0, np.concatenate([[0], np.geomspace(1e-4, 1.0, 40)]))
    assert traj.trace_error.max() <= 1e-8
    assert traj.herm_error.max() <= 1e-10
    assert traj.min_eigenvalue.min() >= -1e-8
    assert traj.top_population.max() <= 1e-6


def test_window_matches_full_integration():
    me = _ncl_me(24, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(1.5, 24))
    grid = np.linspace(0, 0.5, 6)
    t_win = evolve.propagate(me, rho0, grid, window=True)
    t_full = evolve.propagate(me, rho0, grid, window=False)
    for a, b in zip(t_win.states, t_full.states):
        assert np.abs(a - b).max() <= 1e-9


def test_fixed_step_fallback():
    me = lv.MasterEquation(6, gamma_linear=0.5)
    rho0 = fock.pure_density(fock.fock_state(2, 6))
    grid = np.linspace(0, 1, 5)
    adaptive = evolve.propagate(me, rho0, grid)
    fixed = evolve.propagate(me, rho0, grid, fixed_step=1e-3)
    for a, b in zip(adaptive.states, fixed.states):
        assert np.abs(a - b).max() <= 1e-6


def test_step_tolerance_control():
    me = _ncl_me(16, gamma_linear=0.5, gamma_nonlinear=0.3)
    rho0 = fock.pure_density(fock.coherent_state(1.0, 16))
    grid = np.array([0.0, 1.5])
    base = evolve.propagate(me, rho0, grid, tol=1e-8).states[-1]
    tight = evolve.propagate(me, rho0, grid, tol=5e-9).states[-1]
    assert trace_distance(base, tight) < 10 * 1e-8


@pytest.mark.parametrize("fixed_step", [None, 1e-3])
def test_truncation_breach_guard(fixed_step):
    me = lv.MasterEquation(5, omega=4.0)  # hard coherent drive, tiny space
    rho0 = fock.pure_density(fock.fock_state(0, 5))
    with pytest.raises(TruncationBreachError) as err:
        evolve.propagate(me, rho0, np.linspace(0, 2.0, 10), fixed_step=fixed_step)
    assert err.value.time is not None
    traj = evolve.propagate(
        me, rho0, np.linspace(0, 0.2, 3), breach_guard=False, fixed_step=fixed_step
    )
    assert len(traj.states) == 3


def test_grid_validation():
    me = lv.MasterEquation(4, gamma_linear=1.0)
    rho0 = fock.pure_density(fock.fock_state(0, 4))
    with pytest.raises(InvalidStateError):
        evolve.propagate(me, rho0, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(InvalidStateError):
        evolve.propagate(me, rho0, np.array([]))


def test_evolve_to_steady_pure_loss():
    me = lv.MasterEquation(18, gamma_linear=1.0)
    rho0 = fock.pure_density(fock.coherent_state(1.2, 18))
    res = evolve.evolve_to_steady(me, rho0, tol=1e-10, t_max=50.0)
    assert res.converged
    vac = fock.pure_density(fock.fock_state(0, 18))
    assert np.abs(res.rho - vac).max() <= 1e-8


def test_evolve_to_steady_thermal_detailed_balance():
    nbar = 0.4
    me = lv.MasterEquation(24, gamma_linear=1.0, nbar=nbar)
    rho0 = fock.pure_density(fock.fock_state(0, 24))
    # the steady tolerance must sit above the integrator's local-error noise
    # floor (~||L|| * step_tol * h); 1e-9 is comfortably reachable
    res = evolve.evolve_to_steady(me, rho0, tol=1e-9, t_max=50.0)
    assert res.converged
    p = np.real(np.diag(res.rho))
    r = nbar / (nbar + 1.0)
    expected = (1 - r) * r ** np.arange(24)
    assert np.abs(p - expected / expected.sum()).max() <= 1e-6


def test_evolve_to_steady_unconverged_flag():
    me = lv.MasterEquation(6, gamma_linear=1.0)
    rho0 = fock.pure_density(fock.fock_state(3, 6))
    res = evolve.evolve_to_steady(me, rho0, tol=1e-12, t_max=1e-3)
    assert not res.converged
    assert res.residual > 1e-12


def test_cross_solver_agreement():
    # driven NCL: long-time integration against the null-space solution
    dim = 20
    me = _ncl_me(dim, gamma_linear=0.2, gamma_nonlinear=1.0, omega=3.0)
    rho_ns = steady.steady_state_nullspace(me)
    res = evolve.evolve_to_steady(
        me, fock.pure_density(fock.fock_state(0, dim)), tol=1e-9, t_max=60.0
    )
    assert res.converged
    assert trace_distance(res.rho, rho_ns) <= 1e-7


# -- projector-gadget decay fitting -----------------------------------------


@pytest.fixture(scope="module")
def gadget_trajectory():
    dim = 48
    src = fock.coherent_state(2.5, dim)
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), src, 2)
    op = gadgets.projector_lindblad(g, dim)
    me = lv.MasterEquation(dim, gamma_nonlinear=1.0, nonlinear_op=op)
    traj = evolve.propagate(me, fock.pure_density(src), np.linspace(0.0, 0.5, 260))
    return traj, g


def test_decay_rate_within_factor_two(gadget_trajectory):
    traj, g = gadget_trajectory
    rate = evolve.decay_rate_fit(traj, g)
    ge = gadgets.gamma_eff(g, 1.0)
    assert 0.5 <= rate / ge <= 2.0


def test_residual_at_time_zero_definition(gadget_trajectory):
    traj, g = gadget_trajectory
    eps = evolve.projector_residuals(traj, g)
    p = g.projector
    c0 = float(np.real(np.trace(p @ traj.states[0])))
    direct = np.linalg.norm(
        p @ traj.states[0] @ p - c0 * np.outer(g.complement, g.complement.conj())
    )
    assert eps[0] == pytest.approx(direct, rel=1e-12)


def test_residual_monotone_after_transient(gadget_trajectory):
    traj, g = gadget_trajectory
    eps = evolve.projector_residuals(traj, g)
    tail = eps[5:]
    tail = tail[tail > 1e-12]  # below that, integrator noise dominates
    assert np.all(np.diff(tail) <= tail[:-1] * 1e-6 + 1e-12)


def test_decay_fit_needs_window(gadget_trajectory):
    traj, g = gadget_trajectory
    with pytest.raises(InsufficientDecayError):
        evolve.decay_rate_fit(traj, g, window=(1e-30, 1e-28))
