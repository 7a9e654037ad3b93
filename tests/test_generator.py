"""Differential properties of the compiled generator.

The fused band terms, the factored terms, the block restriction, the sparse
superoperator and the Hermitian-basis map are checked against the dense
reference -i[H, ρ] + Σ r·L(x)ρ on randomly drawn equations: dim 2-12, random
rates, drive and thermal occupation, and an NCL, projector, random low-rank or
no engineered channel.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import random_density
from nclsim import fock, gadgets, liouvillian as lv, scenarios, steady

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
    if kind == "lowrank":  # generic complex operator of drawn rank 1..dim
        us, vs = (
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)
        )
        return sum(np.outer(us[i], vs[i]) for i in range(draw(st.integers(1, dim))))
    return None


@st.composite
def equations(draw, lowering=False):
    """(MasterEquation, random number generator) over all equation shapes; with
    ``lowering`` only pure-lowering ones (no drive, no pumping, no projector)."""
    dim = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["ncl", "none"] if lowering else ["ncl", "projector", "lowrank", "none"]
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


def _sparse_gram(x):
    x = sp.csr_matrix(x)
    return (x.conj().T @ x).toarray()


@SETTINGS
@given(equations(), st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
def test_gram_is_bitwise_the_sparse_product(drawn, offsets):
    me, rng = drawn
    dim = me.dim
    # the equation's channels and a complex operator on up to three diagonals
    banded = np.zeros((dim, dim), dtype=complex)
    for s in (s for s in offsets if abs(s) < dim):
        banded += np.diag(rng.normal(size=dim - abs(s)) + 1j * rng.normal(size=dim - abs(s)), s)
    for x in [ch.op for ch in me.channels] + [banded]:
        assert lv._gram(x).tobytes() == _sparse_gram(x).tobytes()


def test_gram_of_every_preset_channel_is_bitwise_the_sparse_product():
    # ladder operators, NCL x-1, (x-1)^2, (x-1)^3 and the fig1a/fig1b projector
    ops = {}
    for name in scenarios.PRESET_NAMES:
        for _, config in scenarios.expand_preset(name):
            for value in config.sweep.values:
                me, _, _ = scenarios.build_system(scenarios.resolve_point(config, value))
                ops.update((ch.op.tobytes(), ch.op) for ch in me.channels)
    for op in ops.values():
        assert lv._gram(op).tobytes() == _sparse_gram(op).tobytes()


@SETTINGS
@given(equations())
def test_superoperator_matches_rhs(drawn):
    me, rng = drawn
    rho = random_density(me.dim, rng)
    out = lv.vec(lv.rhs(me, rho))
    assert _close(lv.superoperator_sparse(me) @ lv.vec(rho), out, np.abs(out).max())


def _vech(m, k=0):
    """Entries of ``m`` on and below its k-th subdiagonal, stacked by columns."""
    return np.concatenate([m[j + k :, j] for j in range(m.shape[0])])


def _check_hermitian_map(me, rng):
    """The map sends (vech S, strict-vech A) of a random Hermitian ρ = S + iA
    to the same coordinates of rhs(ρ); returns its number of entries between
    S and A."""
    rho = random_density(me.dim, rng)
    x = np.concatenate([_vech(rho.real), _vech(rho.imag, 1)])
    rows, cols, vals = me.generator.hermitian_map()
    assert vals.dtype == np.float64 and vals.all()
    n = me.dim * me.dim
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    out = lv.rhs(me, rho)
    assert _close(m @ x, np.concatenate([_vech(out.real), _vech(out.imag, 1)]), np.abs(out).max())
    ns = me.dim * (me.dim + 1) // 2
    return np.count_nonzero((rows < ns) != (cols < ns))


@SETTINGS
@given(equations())
def test_hermitian_blocks_match_rhs(drawn):
    me, rng = drawn
    coupling = _check_hermitian_map(me, rng)
    if me.generator.dtype == np.float64:  # a real equation keeps S and A apart
        assert coupling == 0


def test_complex_generator_couples_the_hermitian_blocks():
    dim = 10
    f = gadgets.NonlinearFunction.from_name("x-1")
    op = np.exp(0.7j) * gadgets.ncl_lindblad(f, dim)
    me = lv.MasterEquation(dim, gamma_linear=0.5, gamma_nonlinear=1.0, omega=3.0, nonlinear_op=op)
    assert me.generator.dtype == np.complex128
    assert _check_hermitian_map(me, np.random.default_rng(7))


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
