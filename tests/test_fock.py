import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclsim import fock
from nclsim.errors import (
    FockIndexError,
    InvalidDimensionError,
    InvalidStateError,
    TruncationLeakageError,
)


def test_annihilation_dim2():
    assert np.array_equal(fock.annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_entries():
    a = fock.annihilation(3)
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_number_operator_eigenvalue():
    n = fock.creation(8) @ fock.annihilation(8)
    v = fock.fock_state(5, 8)
    assert np.allclose(n @ v, 5.0 * v)


@pytest.mark.parametrize("dim", [0, 1, -3])
def test_invalid_dimension(dim):
    with pytest.raises(InvalidDimensionError):
        fock.annihilation(dim)


def test_creation_is_exact_adjoint():
    a = fock.annihilation(17)
    assert np.array_equal(fock.creation(17), a.conj().T)


def test_commutator_on_subspace():
    dim = 12
    a = fock.annihilation(dim)
    comm = a @ fock.creation(dim) - fock.creation(dim) @ a
    dev = np.abs(comm - np.eye(dim))[: dim - 1, : dim - 1].max()
    assert dev < 1e-12


def test_fock_state_basics():
    assert np.array_equal(fock.fock_state(2, 5), np.eye(5, dtype=complex)[2])
    assert np.array_equal(fock.fock_state(0, 2), np.eye(2, dtype=complex)[0])
    assert np.vdot(fock.fock_state(2, 5), fock.fock_state(2, 5)) == pytest.approx(1.0)
    with pytest.raises(FockIndexError):
        fock.fock_state(5, 5)


def test_coherent_vacuum():
    assert np.array_equal(fock.coherent_state(0.0, 6), fock.fock_state(0, 6))


def test_coherent_moments():
    v = fock.coherent_state(2.0, 30)
    p = np.abs(v) ** 2
    n = np.arange(30)
    mean = (n * p).sum()
    second = (n * n * p).sum()
    assert mean == pytest.approx(4.0, abs=1e-8)
    q = (second - mean**2) / mean - 1.0
    assert q == pytest.approx(0.0, abs=1e-8)


def test_negative_real_coherent_amplitude_flips_odd_signs_exactly():
    plus, minus = fock.coherent_state(2.0, 30), fock.coherent_state(-2.0, 30)
    assert not minus.imag.any()
    assert np.array_equal(minus, (-1.0) ** np.arange(30) * plus)


def test_coherent_truncation_guard():
    with pytest.raises(TruncationLeakageError) as err:
        fock.coherent_state(5.0, 60)
    assert err.value.min_dim is not None and err.value.min_dim > 60
    # guard names a dim that actually passes
    fock.coherent_state(5.0, err.value.min_dim)
    # and the guard can be disabled explicitly
    v = fock.coherent_state(5.0, 60, guard=False)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_poisson_guard_values_match_scipy_stats_bitwise():
    from scipy.stats import poisson

    for mu in [0.0, 1e-8, 0.25, 1.0, 4.0, 6.25, 25.0, 64.0, 100.0, 400.0, 1e4]:
        for k in [0, 1, 2, 5, 10, 23, 60, 129, 300, 1000]:
            assert fock._poisson_sf(k, mu) == float(poisson.sf(k, mu))
        if mu == 0.0:
            continue
        for q in [1e-14, 1e-12, 1e-10, 1e-6, 0.5]:
            assert fock._poisson_isf(q, mu) == poisson.isf(q, mu)


def test_cli_import_skips_scipy_stats():
    code = "import sys, nclsim.cli; print(any(m.startswith('scipy.stats') for m in sys.modules))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


_LIST_SCIPY_AFTER_RUN = """
import json, sys
from nclsim import cli
status = cli.main(sys.argv[1:])
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""

_SYSTEM = """
[system]
dim = {dim}
gamma_linear = 1.0
gamma_nonlinear = 0.2

[gadget]
kind = ncl
f = x-1

[output]
directory = {outdir}
basename = run
"""

_SOLVER = {
    "evolve": """
[initial]
state = coherent:1.2

[solver]
method = propagate
t_grid = log:1e-3:0.5:20

[sweep]
parameter = alpha
values = 1.0,1.2
""",
    "recurrence": """
[solver]
method = recurrence_ncl

[sweep]
parameter = alpha0
values = 1.0,2.0
""",
    "steady": """
[solver]
method = steady

[sweep]
parameter = alpha0
values = 1.0,2.0
""",
}


def _scipy_modules_after(tmp_path, command):
    """scipy modules loaded in an interpreter that ran ``nclsim <command>`` on
    a two-point sweep with two workers."""
    dim = {"evolve": 20, "recurrence": 30, "steady": 12}[command]
    ini = tmp_path / "run.ini"
    ini.write_text(
        _SYSTEM.format(dim=dim, outdir=tmp_path / "out") + _SOLVER[command], encoding="utf-8"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    env = dict(os.environ, PYTHONPATH=src, NCLSIM_WORKERS="2")
    out = subprocess.run(
        [sys.executable, "-c", _LIST_SCIPY_AFTER_RUN, command, str(ini)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    status, modules = json.loads(out.stdout.splitlines()[-1])
    assert status == 0
    return modules


@pytest.mark.parametrize("command", ["evolve", "recurrence"])
def test_propagate_and_recurrence_runs_import_no_scipy(tmp_path, command):
    assert _scipy_modules_after(tmp_path, command) == []


def test_pooled_steady_sweep_imports_scipy_before_the_fork(tmp_path):
    # the workers solve every point, so only the import before the fork loads
    # scipy.sparse.linalg in the parent
    assert "scipy.sparse.linalg" in _scipy_modules_after(tmp_path, "steady")


@st.composite
def _poisson_tails(draw):
    """(k, μ) with μ in [1e-6, 5e3] and k in [0, μ + 20√μ + 60], dense
    around the mean where the tail crosses the guard's threshold."""
    mu = 10.0 ** draw(st.floats(-6.0, np.log10(5e3)))
    k = int(mu + draw(st.floats(-1.0, 20.0)) * np.sqrt(mu)) + draw(st.integers(0, 60))
    return max(k, 0), mu


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_poisson_tails())
def test_scipy_free_tail_bound_says_below_only_where_scipy_does(tail):
    from scipy.stats import poisson

    k, mu = tail
    if fock._tail_below(k, mu, fock.COHERENT_TAIL_THRESHOLD):
        assert poisson.sf(k, mu) < fock.COHERENT_TAIL_THRESHOLD


def test_coherent_guard_decides_as_the_scipy_tail_does():
    # amplitudes of the figure presets (2-5 at dim 90, 2-8 at dim 130), the
    # benchmark workloads and the tests' states, at every dim up to 140
    alphas = (0.0, 0.5, 1.0, 1.2, 1.5, 2.0, 2.5, 2.98, 3.0, 4.0, 5.0, 6.0, 8.0, -2.0, 1.0 + 1.0j)
    for alpha in alphas:
        for dim in range(2, 141):
            leaks = fock._poisson_sf(dim - 1, abs(alpha) ** 2) >= fock.COHERENT_TAIL_THRESHOLD
            try:
                fock.coherent_state(alpha, dim)
            except TruncationLeakageError as exc:
                assert leaks and exc.min_dim == fock.coherent_min_dim(alpha)
            else:
                assert not leaks
    # the presets' states pass without asking scipy
    for alpha, dim in ((2.0, 90), (5.0, 90), (2.0, 130), (8.0, 130)):
        assert fock._tail_below(dim - 1, alpha**2, fock.COHERENT_TAIL_THRESHOLD)


def test_coherent_min_dim_below_double_resolution():
    # the 1e-20 weight behind the projector's 1e-10 amplitude guard
    from scipy.special import pdtrc

    for alpha in (0.3, 1.0, 2.0):
        d = fock.coherent_min_dim(alpha, threshold=1e-20)
        assert pdtrc(d - 1, alpha**2) < 1e-20 <= pdtrc(d - 2, alpha**2)
    assert fock.coherent_min_dim(1.0, threshold=1e-20) + 2 == 23


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0, -2.0, 1.0 + 1.0j])
def test_coherent_approximate_eigenvector(alpha):
    # a bit below the guard threshold: the 1e-6 eigen-residual needs the
    # cutoff amplitude itself (not just the tail weight) to be ~1e-7
    dim = fock.coherent_min_dim(alpha, threshold=1e-14)
    v = fock.coherent_state(alpha, dim)
    a = fock.annihilation(dim)
    assert np.linalg.norm(a @ v - alpha * v) <= 1e-6


def test_diagonal_function_operator_values():
    d = fock.diagonal_function_operator(lambda x: x - 1, 3)
    assert np.allclose(np.diag(d), [-1, 0, 1])
    d2 = fock.diagonal_function_operator(lambda x: (x - 1) ** 2, 3)
    assert np.allclose(np.diag(d2), [1, 0, 1])


def test_diagonal_function_kills_dark_state():
    dim = 5
    op = fock.annihilation(dim) @ fock.diagonal_function_operator(lambda x: x - 1, dim)
    assert np.linalg.norm(op @ fock.fock_state(1, dim)) == 0.0
    assert np.allclose(op @ fock.fock_state(2, dim), np.sqrt(2) * fock.fock_state(1, dim))


def test_diagonal_function_commutes_with_number():
    dim = 9
    d = fock.diagonal_function_operator(lambda x: (x - 2.5) ** 3, dim)
    n = fock.diagonal_function_operator(float, dim)
    assert np.array_equal(d @ n, n @ d)


def test_normal_order_norm_vacuum_k2():
    assert fock.normal_order_norm(fock.fock_state(0, 5), 2) == pytest.approx(2.0)


def test_normal_order_norm_one_photon_k1():
    assert fock.normal_order_norm(fock.fock_state(1, 4), 1) == pytest.approx(2.0)


def test_normal_order_norm_coherent():
    # brute-force oracle: <y| a^k (a†)^k |y> = sum_n p_n (n+1)(n+2) for k=2
    dim = 40
    v = fock.coherent_state(2.0, dim)
    p = np.abs(v) ** 2
    n = np.arange(dim)
    oracle = float((p * (n + 1) * (n + 2)).sum())
    val = fock.normal_order_norm(v, 2)
    assert val == pytest.approx(oracle, abs=1e-10)
    assert val == pytest.approx(34.0, abs=1e-8)  # |α|⁴ + 4|α|² + 2 at α=2


def test_normal_order_norm_spill_guard():
    with pytest.raises(TruncationLeakageError):
        fock.normal_order_norm(fock.fock_state(1, 2), 1)


def test_thermal_density():
    rho = fock.thermal_density(0.5, 40)
    p = np.real(np.diag(rho))
    assert (np.arange(40) * p).sum() == pytest.approx(0.5, abs=1e-10)
    ratio = p[1:6] / p[:5]
    assert np.allclose(ratio, 0.5 / 1.5, atol=1e-12)
    with pytest.raises(TruncationLeakageError):
        fock.thermal_density(5.0, 20)


def test_state_checks():
    with pytest.raises(InvalidStateError):
        fock.check_state_vector(np.array([1.0, 1.0]))
    with pytest.raises(InvalidStateError):
        fock.check_density_matrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        fock.check_density_matrix(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
    with pytest.raises(InvalidStateError):
        fock.check_density_matrix(np.diag([1.2, -0.2]).astype(complex))  # negative
    rho = fock.pure_density(fock.coherent_state(1.0, 16))
    assert fock.check_density_matrix(rho) is rho
