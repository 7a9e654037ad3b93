import numpy as np
import pytest

from nclsim import evolve, fock, gadgets, liouvillian as lv, steady


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def driven_ncl_steady():
    """Driven dim-20 NCL (f = x-1): its null-space steady state, and the state
    that a propagation from vacuum reaches at t = 10 with its residual
    ‖Lρ‖_F, shared by the cross-solver checks."""
    dim = 20
    f = gadgets.NonlinearFunction.from_name("x-1")
    me = lv.MasterEquation(
        dim,
        gamma_linear=0.2,
        gamma_nonlinear=1.0,
        omega=3.0,
        nonlinear_op=gadgets.ncl_lindblad(f, dim),
    )
    rho_ns = steady.steady_state_nullspace(me)
    rho0 = fock.pure_density(fock.fock_state(0, dim))
    rho = evolve.propagate(me, rho0, [0.0, 10.0]).states[-1]
    return rho_ns, rho, generator_residual(me, rho)


def generator_residual(me, rho):
    """‖Lρ‖_F: how far ρ is from stationary."""
    return float(np.linalg.norm(me.generator.apply(rho)))


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def trace_distance(rho1, rho2):
    w = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.abs(w).sum())
