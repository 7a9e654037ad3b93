"""Differential properties of the compiled generator.

The fused band terms, the matrix terms, the block restriction and the sparse
superoperator are checked against the dense reference -i[H, ρ] + Σ r·L(x)ρ
on randomly drawn equations: dim 2-12, random rates, drive and thermal
occupation, and an NCL, projector or no engineered channel.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_density
from nclsim import fock, gadgets, liouvillian as lv, steady

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
RTOL = 1e-12

rates = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
coeffs = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)


def _engineered(draw, kind, dim, rng):
    if kind == "ncl":
        f = gadgets.NonlinearFunction.from_polynomial(draw(coeffs), shift=draw(st.floats(0, 2)))
        return gadgets.ncl_lindblad(f, dim)
    if kind == "projector":  # |φ><y| a^k with generic complex φ, y
        phi, y = (rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2))
        ak = np.linalg.matrix_power(fock.annihilation(dim), draw(st.integers(1, 2)))
        return np.outer(phi, y.conj() @ ak)
    return None


@st.composite
def equations(draw, lowering=False):
    """(MasterEquation, random number generator) over all equation shapes; with
    ``lowering`` only pure-lowering ones (no drive, no pumping, no projector)."""
    dim = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["ncl", "none"] if lowering else ["ncl", "projector", "none"]
    op = _engineered(draw, draw(st.sampled_from(kinds)), dim, rng)
    me = lv.MasterEquation(
        dim,
        gamma_linear=draw(rates),
        gamma_nonlinear=0.0 if op is None else draw(st.floats(0.05, 3.0)),
        nbar=0.0 if lowering else draw(rates),
        omega=0.0 if lowering else draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0))),
        nonlinear_op=op,
    )
    return me, rng


def _reference(me, rho):
    h = me.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for ch in me.channels:
        out = out + ch.rate * lv.dissipator(ch.op, rho)
    return out


def _close(a, b, scale):
    return np.abs(a - b).max() <= RTOL * max(1.0, scale)


@SETTINGS
@given(equations())
def test_rhs_matches_dense_reference(drawn):
    me, rng = drawn
    rho = random_density(me.dim, rng)
    ref = _reference(me, rho)
    out = lv.rhs(me, rho)
    scale = np.abs(ref).max()
    assert _close(out, ref, scale)
    assert abs(np.trace(out)) <= RTOL * max(1.0, scale)
    assert _close(out, out.conj().T, scale)


@SETTINGS
@given(equations())
def test_superoperator_matches_rhs(drawn):
    me, rng = drawn
    rho = random_density(me.dim, rng)
    out = lv.vec(lv.rhs(me, rho))
    assert _close(lv.superoperator_sparse(me) @ lv.vec(rho), out, np.abs(out).max())


@SETTINGS
@given(st.one_of(equations(), equations(lowering=True)), st.data())
def test_block_reader_matches_padded_rhs(drawn, data):
    me, rng = drawn
    m = data.draw(st.integers(1, me.dim))
    padded = np.zeros((me.dim, me.dim), dtype=complex)
    padded[:m, :m] = random_density(m, rng)
    full = lv.rhs(me, padded)
    scale = np.abs(full).max()
    assert _close(me.generator.block(m)(padded[:m, :m]), full[:m, :m], scale)
    if me.is_pure_lowering():  # nothing flows out: the block is the whole motion
        assert np.abs(full[m:, :]).max(initial=0.0) == 0.0
        assert np.abs(full[:, m:]).max(initial=0.0) == 0.0


@SETTINGS
@given(
    st.integers(2, 12),
    coeffs,
    rates,
    st.floats(0.05, 3.0),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_truncated_equation_matches_written_form(dim, cs, gl, gnl, omega, seed):
    f = gadgets.NonlinearFunction.from_polynomial(cs)
    op = gadgets.ncl_lindblad(f, dim)
    me = lv.MasterEquation(dim, gamma_linear=gl, gamma_nonlinear=gnl, omega=omega, nonlinear_op=op)
    rho = random_density(dim, np.random.default_rng(seed))
    a = fock.annihilation(dim)
    ad = a.conj().T
    g = fock.diagonal_function_operator(lambda n: float(f(n)) ** 2 + me.epsilon, dim)
    bm = a @ g + (me.omega / gnl) * np.eye(dim)  # B - α₀ with the signed α₀ = -Ω/γ
    bdm = bm.conj().T
    ref = gnl * (a @ rho @ bdm + bm @ rho @ ad - ad @ bm @ rho - rho @ bdm @ a)
    scale = np.abs(ref).max()
    assert _close(steady.approximate_rhs(me, f, rho), ref, scale)
    lop = steady.approximate_superoperator(me, f)
    assert _close(lop @ lv.vec(rho), lv.vec(ref), scale)
