import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_density
from nclsim import fock, observables as obs
from nclsim.errors import (
    CorruptedStateError,
    DimensionMismatchError,
    InvalidStateError,
    UndefinedQError,
)


def test_mandel_q_coherent():
    rho = fock.pure_density(fock.coherent_state(2.0, 30))
    assert obs.photon_distribution(rho).mandel_q() == pytest.approx(0.0, abs=1e-8)


def test_mandel_q_fock():
    rho = fock.pure_density(fock.fock_state(5, 10))
    assert obs.photon_distribution(rho).mandel_q() == pytest.approx(-1.0, abs=1e-12)


def test_mandel_q_thermal():
    rho = fock.thermal_density(2.0, 70)
    assert obs.photon_distribution(rho).mandel_q() == pytest.approx(2.0, abs=1e-8)


def test_mandel_q_vacuum_undefined():
    with pytest.raises(UndefinedQError):
        obs.photon_distribution(fock.pure_density(fock.fock_state(0, 5))).mandel_q()


def test_mandel_q_phase_invariance(rng):
    dim = 12
    rho = random_density(dim, rng)
    theta = 0.7321
    u = np.diag(np.exp(1j * theta * np.arange(dim)))
    rotated = u @ rho @ u.conj().T
    q = obs.photon_distribution(rho).mandel_q()
    assert obs.photon_distribution(rotated).mandel_q() == pytest.approx(q, abs=1e-10)


def test_fidelity_examples():
    dim = 8
    phi = fock.fock_state(2, dim)
    assert obs.fidelity_to_pure(fock.pure_density(phi), phi) == pytest.approx(1.0)
    vac = fock.pure_density(fock.fock_state(0, dim))
    assert obs.fidelity_to_pure(vac, phi) == pytest.approx(0.0)
    with pytest.raises(DimensionMismatchError):
        obs.fidelity_to_pure(vac, fock.fock_state(0, dim + 1))


def test_fidelity_bounds(rng):
    dim = 10
    phi = fock.fock_state(3, dim)
    for _ in range(20):
        f = obs.fidelity_to_pure(random_density(dim, rng), phi)
        assert -1e-12 <= f <= 1.0 + 1e-12


def test_photon_distribution_fock_and_coherent():
    d = obs.photon_distribution(fock.pure_density(fock.fock_state(2, 6)))
    assert np.array_equal(d.probabilities, np.eye(6)[2])
    dim = 30
    d2 = obs.photon_distribution(fock.pure_density(fock.coherent_state(1.5, dim)))
    pois = obs.poisson_distribution(1.5**2, dim)
    assert np.abs(d2.probabilities - pois.probabilities).max() <= 1e-8


def test_photon_distribution_clipping():
    rho = np.diag([0.6, 0.4, -5e-11]).astype(complex)
    d = obs.photon_distribution(rho)
    assert d.probabilities[2] == 0.0
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(CorruptedStateError):
        obs.photon_distribution(np.diag([0.6, 0.3, -0.1]).astype(complex))


def test_purity():
    assert obs.purity(fock.pure_density(fock.coherent_state(1.0, 15))) == pytest.approx(
        1.0, abs=1e-10
    )
    assert obs.purity(np.eye(4, dtype=complex) / 4) == pytest.approx(0.25)


PURITY_SCRIPT = """
import numpy as np
from nclsim import observables
for seed in (0, 1, 2):
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    print(float.hex(observables.purity(rho)))
"""


def test_purity_does_not_depend_on_blas_threads():
    # 40000 complex entries: long enough for OpenBLAS to split a dot among threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(obs.__file__)))
    digits = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", PURITY_SCRIPT],
            capture_output=True, check=True, env=env, text=True,
        )
        digits.append(run.stdout.split())
    assert len(digits[0]) == 3
    assert digits[0] == digits[1]


def test_purity_equals_trace_of_square(rng):
    for dim in (2, 9, 40):
        rho = random_density(dim, rng)
        assert obs.purity(rho) == pytest.approx(float(np.real(np.trace(rho @ rho))), rel=1e-13)


def test_moments_match_operator_expectations(rng):
    dim = 14
    rho = random_density(dim, rng)
    d = obs.photon_distribution(rho)
    n_op = fock.diagonal_function_operator(float, dim)
    mean_op = float(np.real(np.trace(n_op @ rho)))
    second_op = float(np.real(np.trace(n_op @ n_op @ rho)))
    assert d.mean() == pytest.approx(mean_op, abs=1e-10)
    assert d.variance() == pytest.approx(second_op - mean_op**2, abs=1e-10)


def test_distribution_invariants():
    with pytest.raises(InvalidStateError):
        obs.DiagonalDistribution(np.array([0.5, 0.6]))
    with pytest.raises(InvalidStateError):
        obs.DiagonalDistribution(np.array([1.1, -0.1]))


@pytest.mark.parametrize(
    "dist",
    [
        obs.poisson_distribution(2.3, 20),
        obs.poisson_distribution(0.0, 6),
        obs.photon_distribution(fock.pure_density(fock.coherent_state(1.7, 25))),
        obs.photon_distribution(random_density(12, np.random.default_rng(7))),
        obs.DiagonalDistribution(np.eye(5)[3]),
    ],
    ids=["poisson", "vacuum", "coherent", "random", "fock"],
)
def test_cached_moments_are_the_sums(dist):
    # the moments are computed once, at construction, by these same sums
    p = dist.probabilities
    n = np.arange(p.size)
    m = float(np.sum(n * p))
    assert dist.mean() == m
    assert dist.variance() == float(np.sum((n - m) ** 2 * p))
    if m > 0:
        assert dist.mandel_q() == dist.variance() / dist.mean() - 1.0
    else:
        with pytest.raises(UndefinedQError):
            dist.mandel_q()


def test_report_builder():
    rho = fock.pure_density(fock.coherent_state(1.2, 20))
    rep = obs.observable_report(rho, target=fock.fock_state(1, 20))
    assert rep.mean_n == pytest.approx(1.44, abs=1e-8)
    assert rep.purity == pytest.approx(1.0, abs=1e-10)
    assert rep.fidelity is not None and 0 < rep.fidelity < 1
    vac_rep = obs.observable_report(fock.pure_density(fock.fock_state(0, 5)))
    assert np.isnan(vac_rep.mandel_q)
