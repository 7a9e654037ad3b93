import functools
from collections import Counter

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


class KindDraws:
    """The kinds of example a Hypothesis strategy generates.  The strategy
    passes each generated example through :meth:`drew`; :meth:`each_drawn`
    wraps a property (above its ``@settings``) so that a run of it fails,
    naming every kind of which the property body ran no generated example.
    An example counts once the body has returned on it, so examples that
    Hypothesis discards (an ``assume`` or filter that rejects them) do not
    count, nor do the ``@example`` pins, which do not go through the
    strategy."""

    def __init__(self, kinds):
        self.kinds = kinds
        self.drawn = {}  # id -> (example, kind); holding the example keeps its id unique
        self.counts = Counter()

    def drew(self, kind, example):
        self.drawn[id(example)] = example, kind
        return example

    def each_drawn(self, test):
        body = test.hypothesis.inner_test  # Hypothesis's hook for wrapping the body

        @functools.wraps(body)
        def counted(*args, **kwargs):
            body(*args, **kwargs)
            for arg in (*args, *kwargs.values()):
                example, kind = self.drawn.get(id(arg), (None, None))
                if example is arg:
                    self.counts[kind] += 1

        test.hypothesis.inner_test = counted

        @functools.wraps(test)
        def run(*args, **kwargs):
            self.counts.clear()
            try:
                test(*args, **kwargs)
            finally:
                self.drawn.clear()
            missing = [kind for kind in self.kinds if not self.counts[kind]]
            assert not missing, f"{test.__name__} generated no example of kind {missing}"

        return run
