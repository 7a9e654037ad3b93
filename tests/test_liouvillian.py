import numpy as np
import pytest

import oracles
from conftest import random_density
from nclsim import fock, gadgets, liouvillian as lv, scenarios
from nclsim.errors import DimensionCapError, DimensionMismatchError, InvalidStateError


def _ncl_me(dim, **kw):
    f = gadgets.NonlinearFunction.from_name("x-1")
    return lv.MasterEquation(dim, nonlinear_op=gadgets.ncl_lindblad(f, dim), **kw)


def test_dissipator_vacuum_dark():
    dim = 5
    a = fock.annihilation(dim)
    out = oracles.dissipator(a, fock.pure_density(fock.fock_state(0, dim)))
    assert np.abs(out).max() == 0.0


def test_dissipator_one_photon():
    dim = 5
    a = fock.annihilation(dim)
    out = oracles.dissipator(a, fock.pure_density(fock.fock_state(1, dim)))
    expected = 2.0 * fock.pure_density(fock.fock_state(0, dim)) - 2.0 * fock.pure_density(
        fock.fock_state(1, dim)
    )
    assert np.abs(out - expected).max() <= 1e-14


def test_dissipator_traceless(rng):
    dim = 8
    for _ in range(10):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out = oracles.dissipator(x, random_density(dim, rng))
        assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.linalg.norm(out))


def test_dissipator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        oracles.dissipator(fock.annihilation(4), np.eye(5, dtype=complex) / 5)


def test_master_equation_channels():
    me = _ncl_me(6, gamma_linear=2.0, gamma_nonlinear=0.5, nbar=0.3)
    rates = [ch.rate for ch in me.channels]
    assert rates == [2.0 * 1.3, 2.0 * 0.3, 0.5]
    assert np.array_equal(me.channels[0].op, fock.annihilation(6))
    assert np.array_equal(me.channels[1].op, fock.creation(6))
    assert me.epsilon == pytest.approx(4.0)
    me2 = lv.MasterEquation(6, gamma_nonlinear=1.0, omega=3.0, nonlinear_op=fock.annihilation(6))
    assert me2.alpha0 == pytest.approx(3.0)
    with pytest.raises(InvalidStateError):
        lv.MasterEquation(6, gamma_linear=-1.0)
    with pytest.raises(InvalidStateError):
        lv.MasterEquation(6, gamma_nonlinear=1.0)  # engineered channel without operator


@pytest.mark.parametrize(
    "kw",
    [
        {"gamma_linear": float("nan")},
        {"gamma_nonlinear": float("inf")},
        {"nbar": float("nan")},
        {"omega": float("-inf")},
        {"nonlinear_op": np.diag(np.full(5, np.nan), 1)},
    ],
)
def test_master_equation_rejects_non_finite_input(kw):
    kw = {"gamma_nonlinear": 1.0, "nonlinear_op": fock.annihilation(6), **kw}
    with pytest.raises(InvalidStateError, match="finite"):
        lv.MasterEquation(6, **kw)


def test_projector_channel_compiles_to_rank_one_factors():
    config = scenarios.expand_preset("fig1a")[0][1]
    me, _, _ = scenarios.build_system(scenarios.resolve_point(config, config.sweep.values[0]))
    products = me.generator.products
    assert len(products) == 3  # -γA†Aρ, -γρA†A and 2γAρA†; H and the ladder stay banded
    for _, left, right in products:
        for factors in (left, right):
            assert factors is None or all(f.shape == (me.dim, 1) for f in factors)


def test_projector_channel_takes_one_svd_per_distinct_operator(monkeypatch):
    # A and A†A are factored once each: A† reuses A's factors, and A†A
    # appears on both sides of ρ
    config = scenarios.expand_preset("fig1a")[0][1]
    me, _, _ = scenarios.build_system(scenarios.resolve_point(config, config.sweep.values[0]))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    products = me.generator.products
    assert len(calls) == 2
    (_, xdx_left, _), (_, _, xdx_right), (_, x, xd) = products
    assert all(a is b for a, b in zip(xdx_left, xdx_right))
    assert np.allclose(xd[0] @ xd[1].T, (x[0] @ x[1].T).conj().T, rtol=0, atol=1e-15)


def test_rhs_zero_generator(rng):
    me = lv.MasterEquation(7)
    rho = random_density(7, rng)
    assert np.abs(lv.rhs(me, rho)).max() == 0.0


def test_rhs_trace_and_hermiticity_preservation(rng):
    me = _ncl_me(10, gamma_linear=0.8, gamma_nonlinear=0.4, nbar=0.2, omega=1.3)
    for _ in range(10):
        rho = random_density(10, rng)
        out = lv.rhs(me, rho)
        assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.linalg.norm(out))
        assert np.abs(out - out.conj().T).max() <= 1e-12


def test_rhs_linearity(rng):
    me = _ncl_me(8, gamma_linear=0.5, gamma_nonlinear=1.0, omega=0.7)
    r1, r2 = random_density(8, rng), random_density(8, rng)
    al, be = 0.3, -1.2
    lhs = lv.rhs(me, al * r1 + be * r2)
    rhs_ = al * lv.rhs(me, r1) + be * lv.rhs(me, r2)
    assert np.abs(lhs - rhs_).max() <= 1e-12


def test_rhs_driving_ehrenfest():
    # H = iΩ(a - a†) drives d<a+a†>/dt = -2Ω from the vacuum and leaves
    # d<a†a>/dt = 0 there (direct expansion: rhs = -Ω(|1><0| + |0><1|)).
    dim = 5
    me = lv.MasterEquation(dim, omega=1.0)
    rho = fock.pure_density(fock.fock_state(0, dim))
    out = lv.rhs(me, rho)
    n_op = fock.diagonal_function_operator(float, dim)
    quad = fock.annihilation(dim) + fock.creation(dim)
    assert np.trace(n_op @ out) == pytest.approx(0.0, abs=1e-12)
    assert np.real(np.trace(quad @ out)) == pytest.approx(-2.0, abs=1e-12)


def test_rhs_dimension_mismatch(rng):
    me = _ncl_me(6, gamma_nonlinear=1.0)
    with pytest.raises(DimensionMismatchError):
        lv.rhs(me, random_density(7, rng))


def test_block_rhs_agrees_with_reference(rng):
    me = _ncl_me(9, gamma_linear=0.7, gamma_nonlinear=0.9, nbar=0.25, omega=2.0)
    block = me.generator.block(9)
    for _ in range(5):
        rho = random_density(9, rng)
        assert np.abs(block(rho) - lv.rhs(me, rho)).max() <= 1e-12


def test_superoperator_matches_rhs(rng):
    me = _ncl_me(6, gamma_linear=0.6, gamma_nonlinear=1.1, nbar=0.4, omega=0.9)
    mat = oracles.superoperator_matrix(me.generator)
    for _ in range(20):
        rho = random_density(6, rng)
        assert np.abs(mat @ oracles.vec(rho) - oracles.vec(lv.rhs(me, rho))).max() <= 1e-12


def test_superoperator_pure_loss_null_vector():
    me = lv.MasterEquation(6, gamma_linear=1.0)
    mat = oracles.superoperator_matrix(me.generator)
    vac = oracles.vec(fock.pure_density(fock.fock_state(0, 6)))
    assert np.abs(mat @ vac).max() <= 1e-14


def test_superoperator_left_null_is_identity():
    me = _ncl_me(6, gamma_linear=0.5, gamma_nonlinear=0.8, nbar=0.1, omega=1.0)
    mat = oracles.superoperator_matrix(me.generator)
    left = oracles.vec(np.eye(6, dtype=complex)).conj() @ mat
    assert np.abs(left).max() <= 1e-12


def test_superoperator_cap():
    with pytest.raises(DimensionCapError):
        oracles.superoperator_matrix(lv.MasterEquation(65, gamma_linear=1.0).generator)


def test_vec_column_stacking():
    rho = np.arange(9, dtype=complex).reshape(3, 3)
    v = oracles.vec(rho)
    for i in range(3):
        for j in range(3):
            assert v[i + 3 * j] == rho[i, j]
    assert np.array_equal(oracles.unvec(v, 3), rho)
