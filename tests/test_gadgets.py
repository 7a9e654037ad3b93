from types import SimpleNamespace

import numpy as np
import pytest

import theory
from nclsim import fock, gadgets, liouvillian, steady
from nclsim.errors import (
    DimensionMismatchError,
    InvalidStateError,
    TruncationLeakageError,
)
from theory import UndefinedRatioError


# -- NonlinearFunction -------------------------------------------------------


def test_preset_values():
    f = gadgets.NonlinearFunction.from_name("x-1")
    assert [f(n) for n in range(4)] == [-1, 0, 1, 2]
    assert f.derivative(3) == 1.0
    f2 = gadgets.NonlinearFunction.from_name("(x-1)^2")
    assert [f2(n) for n in range(4)] == [1, 0, 1, 4]
    assert f2.derivative(3) == 4.0
    f3 = gadgets.NonlinearFunction.from_name("(x-1)^3")
    assert f3(4) == 27 and f3.derivative(4) == 27.0
    fk = gadgets.NonlinearFunction.from_name("x^k", power=2)
    assert fk(3) == 9 and fk.derivative(3) == 6.0


def test_preset_errors():
    with pytest.raises(InvalidStateError):
        gadgets.NonlinearFunction.from_name("x^k")  # missing power
    with pytest.raises(InvalidStateError):
        gadgets.NonlinearFunction.from_name("sin(x)")


def test_polynomial():
    f = gadgets.NonlinearFunction([1.0, 0.0, 2.0], 1.0)  # 1 + 2(x-1)²
    assert f(3) == 9.0
    assert f.derivative(3) == 8.0


# -- ProjectorGadget ---------------------------------------------------------


def test_gadget_geometry():
    dim = 40
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.coherent_state(2.0, dim), 2)
    assert np.linalg.norm(g.psi) == pytest.approx(1.0, abs=1e-10)
    assert g.norm_factor == pytest.approx(34.0, abs=1e-8)
    assert abs(np.vdot(g.complement, g.psi)) <= 1e-10
    p = g.projector
    assert np.abs(p - p.conj().T).max() <= 1e-12
    assert np.abs(p @ p - p).max() <= 1e-10
    # rank 2: exactly two singular values near 1
    s = np.linalg.svd(p, compute_uv=False)
    assert np.sum(s > 1e-10) == 2
    # fixes both |φ> and |Ψ>
    assert np.linalg.norm(p @ g.target - g.target) <= 1e-10
    assert np.linalg.norm(p @ g.psi - g.psi) <= 1e-10


def test_gadget_parallel_failure():
    dim = 10
    # (a†)²|0> ∝ |2>, so target |2> is parallel to |Ψ>
    with pytest.raises(InvalidStateError):
        gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.fock_state(0, dim), 2)


def test_gadget_k1_flagged():
    dim = 26
    with pytest.warns(UserWarning):
        gadgets.ProjectorGadget(fock.fock_state(3, dim), fock.coherent_state(1.0, dim), 1)


def test_gadget_guard_failure():
    with pytest.raises(TruncationLeakageError, match="top-2 amplitudes"):
        gadgets.ProjectorGadget(fock.fock_state(2, 40), fock.fock_state(39, 40), 2)


def test_norm_factor_vacuum_k2():
    g = gadgets.ProjectorGadget(fock.fock_state(1, 5), fock.fock_state(0, 5), 2)
    assert g.norm_factor == pytest.approx(2.0)


def test_norm_factor_one_photon_k1():
    with pytest.warns(UserWarning):
        g = gadgets.ProjectorGadget(fock.fock_state(0, 4), fock.fock_state(1, 4), 1)
    assert g.norm_factor == pytest.approx(2.0)


def test_norm_factor_coherent():
    # brute-force oracle: <y| a^k (a†)^k |y> = sum_n p_n (n+1)(n+2) for k=2
    dim = 40
    v = fock.coherent_state(2.0, dim)
    p = np.abs(v) ** 2
    n = np.arange(dim)
    oracle = float((p * (n + 1) * (n + 2)).sum())
    val = gadgets.ProjectorGadget(fock.fock_state(2, dim), v, 2).norm_factor
    assert val == pytest.approx(oracle, abs=1e-10)
    assert val == pytest.approx(34.0, abs=1e-8)  # |α|⁴ + 4|α|² + 2 at α=2


def test_norm_factor_spill_guard():
    with pytest.warns(UserWarning), pytest.raises(TruncationLeakageError):
        gadgets.ProjectorGadget(fock.fock_state(0, 2), fock.fock_state(1, 2), 1)


def test_projector_operator_single_element():
    dim = 8
    with pytest.warns(UserWarning):
        g = gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.fock_state(0, dim), 1)
    assert np.allclose(g.operator @ fock.fock_state(1, dim), fock.fock_state(2, dim))


def test_projector_operator_kernel_and_rank():
    dim = 40
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.coherent_state(2.0, dim), 2)
    op = g.operator
    s = np.linalg.svd(op, compute_uv=False)
    assert np.sum(s > 1e-10) == 1  # rank one
    # annihilates anything orthogonal to (a†)²|y>
    probe = fock.fock_state(1, dim) - np.vdot(g.psi, fock.fock_state(1, dim)) * g.psi
    probe /= np.linalg.norm(probe)
    assert np.linalg.norm(op @ probe) <= 1e-10
    # op == sqrt(N) |φ><Ψ|
    ref = np.sqrt(g.norm_factor) * np.outer(g.target, g.psi.conj())
    assert np.abs(op - ref).max() <= 1e-10


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0])
def test_fig1_operator_family(alpha):
    dim = 90
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.coherent_state(alpha, dim), 2)
    op = g.operator
    expected_n = abs(alpha) ** 4 + 4 * abs(alpha) ** 2 + 2
    assert g.norm_factor == pytest.approx(expected_n, rel=1e-10)
    assert np.linalg.norm(op, ord=2) == pytest.approx(np.sqrt(expected_n), rel=1e-8)


def test_ncl_lindblad_matches_product():
    dim = 12
    f = gadgets.NonlinearFunction.from_name("x-1")
    op = gadgets.ncl_lindblad(f, dim)
    ref = fock.annihilation(dim) @ fock.diagonal_function_operator(f, dim)
    assert np.array_equal(op, ref)
    assert np.linalg.norm(op @ fock.fock_state(1, dim)) == 0.0
    assert np.allclose(op @ fock.fock_state(2, dim), np.sqrt(2) * fock.fock_state(1, dim))


# adversarial values of f: zeros, a negative whose square underflows, a huge entry
_TABLE = [-2.0, 0.0, -0.5, 3.0, 0.0, -1e-300, 7.0, 1e150]


@pytest.mark.parametrize(
    "f",
    [gadgets.NonlinearFunction.from_name(n) for n in ("x-1", "(x-1)^2", "(x-1)^3")]
    + [lambda n: _TABLE[int(n)]],
    ids=["x-1", "(x-1)^2", "(x-1)^3", "table"],
)
@pytest.mark.parametrize("dim", [2, 8, 64, 130])
def test_ncl_and_b_operators_bitwise_equal_dense_product(f, dim):
    if not isinstance(f, gadgets.NonlinearFunction):
        dim = min(dim, len(_TABLE))
    a = fock.annihilation(dim)
    ref = a @ fock.diagonal_function_operator(f, dim)
    assert gadgets.ncl_lindblad(f, dim).tobytes() == ref.tobytes()
    g = fock.diagonal_function_operator(lambda n: float(f(n)) ** 2 + 0.5, dim)
    assert steady._b_operator(f, 0.5, dim).tobytes() == (a @ g).tobytes()


# -- diagnostics -------------------------------------------------------------


def test_gamma_eff_arithmetic():
    orthogonal = SimpleNamespace(overlap=0.0, norm_factor=7.0)
    assert theory.gamma_eff(orthogonal, 2.0) == pytest.approx(14.0)
    strong = SimpleNamespace(overlap=np.sqrt(0.9), norm_factor=10.0)
    assert theory.gamma_eff(strong, 1.0) == pytest.approx(0.2 * 10.0, rel=1e-10)


def test_gamma_eff_monotone_in_norm_factor():
    vals = [
        theory.gamma_eff(SimpleNamespace(overlap=0.5, norm_factor=nf), 1.0)
        for nf in (1.0, 5.0, 25.0)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_gamma_eff_on_real_gadget():
    dim = 40
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.coherent_state(2.0, dim), 2)
    expected = min(1.0, 2.0 * (1.0 - abs(g.overlap) ** 2)) * g.norm_factor * 0.3
    assert theory.gamma_eff(g, 0.3) == pytest.approx(expected, rel=1e-12)


def test_steady_fidelity_prediction_limits():
    dim = 12
    # orthogonal case: y=|0>, k=2 gives Ψ=|2>; target |3> ⟂ Ψ
    g = gadgets.ProjectorGadget(fock.fock_state(3, dim), fock.fock_state(0, dim), 2)
    rho_in = fock.pure_density(g.psi)
    assert theory.steady_fidelity_prediction(g, rho_in) == pytest.approx(1.0, abs=1e-12)
    rho_out = fock.pure_density(fock.fock_state(7, dim))
    assert theory.steady_fidelity_prediction(g, rho_out) == pytest.approx(0.0, abs=1e-12)
    # orthogonal case reduces to Tr{Pρ0} exactly
    rho_half = 0.5 * rho_in + 0.5 * rho_out
    weight = float(np.real(np.trace(g.projector @ rho_half)))
    assert theory.steady_fidelity_prediction(g, rho_half) == pytest.approx(weight, abs=1e-12)


def test_jump_rate_ratio():
    dim = 90
    f = gadgets.NonlinearFunction.from_name("x-1")
    op = gadgets.ncl_lindblad(f, dim)
    me0 = liouvillian.MasterEquation(dim, gamma_linear=0.0, gamma_nonlinear=1.0, nonlinear_op=op)
    psi = fock.coherent_state(3.0, dim)
    assert theory.jump_rate_ratio(me0, psi) == 0.0

    me = liouvillian.MasterEquation(dim, gamma_linear=0.5, gamma_nonlinear=1.0, nonlinear_op=op)
    with pytest.raises(UndefinedRatioError):
        theory.jump_rate_ratio(me, fock.fock_state(1, dim))  # f(1)=0 kills the jump

    # projector gadget: r = Γ(n̄+1) <Ψ|n̂|Ψ> / (γ N), by independent sums
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), fock.coherent_state(5.0, dim), 2)
    me2 = liouvillian.MasterEquation(
        dim, gamma_linear=1.0, gamma_nonlinear=0.2, nbar=0.5, nonlinear_op=g.operator
    )
    r = theory.jump_rate_ratio(me2, g.psi)
    mean_psi = float(np.sum(np.arange(dim) * np.abs(g.psi) ** 2))
    expected = 1.0 * 1.5 * mean_psi / (0.2 * g.norm_factor)
    assert r == pytest.approx(expected, rel=1e-10)
    assert r < 1.0  # jump-rate dominance regime at alpha=5

    with pytest.raises(DimensionMismatchError):
        theory.jump_rate_ratio(me2, fock.fock_state(0, dim + 1))
