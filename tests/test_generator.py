"""Differential properties of the compiled generator.

The fused band terms, the factored terms, the block restriction, the
triplets (through the sparse superoperator that ``oracles.superoperator``
builds from them) and the Hermitian-basis map are checked against the dense
reference -i[H, ρ] + Σ r·L(x)ρ (``oracles.dissipator``) on randomly drawn
equations: dim 2-12, random rates, drive and thermal occupation, and an NCL,
projector, random low-rank or no engineered channel.  The references live in
``tests/oracles.py``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import oracles
from conftest import KindDraws, random_density
from nclsim import fock, gadgets, liouvillian as lv, scenarios, steady

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
RTOL = 1e-12

rates = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
coeffs = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
KINDS = KindDraws(("ncl", "projector", "lowrank", "none"))


def _equation(kind, dim, seed, shape, gamma_linear, gamma_nonlinear, nbar, omega):
    """(MasterEquation, random number generator seeded with ``seed``) with an
    engineered channel of ``kind``, whose ``shape`` is (coefficients, shift)
    of f for ncl, the power k of a projector |φ><y| a^k with generic complex
    φ, y, the rank of a generic complex lowrank operator, and None for none."""
    rng = np.random.default_rng(seed)
    op = None
    if kind == "ncl":
        op = gadgets.ncl_lindblad(gadgets.NonlinearFunction(*shape), dim)
    elif kind == "projector":
        phi, y = (rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2))
        op = np.outer(phi, y.conj() @ np.linalg.matrix_power(fock.annihilation(dim), shape))
    elif kind == "lowrank":
        us, vs = (
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)
        )
        op = sum(np.outer(us[i], vs[i]) for i in range(shape))
    me = lv.MasterEquation(
        dim,
        gamma_linear=gamma_linear,
        gamma_nonlinear=gamma_nonlinear,
        nbar=nbar,
        omega=omega,
        nonlinear_op=op,
    )
    return me, rng


@st.composite
def equations(draw, lowering=False):
    """(MasterEquation, random number generator) over all equation shapes; with
    ``lowering`` only pure-lowering ones (no drive, no pumping, no projector)."""
    dim = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("ncl", "none") if lowering else KINDS.kinds))
    shapes = {
        "ncl": st.tuples(coeffs, st.floats(0, 2)),
        "projector": st.integers(1, 2),
        "lowrank": st.integers(1, dim),
        "none": st.none(),
    }
    drawn = _equation(
        kind,
        dim,
        seed,
        draw(shapes[kind]),
        draw(rates),
        0.0 if kind == "none" else draw(st.floats(0.05, 3.0)),
        0.0 if lowering else draw(rates),
        0.0 if lowering else draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0))),
    )
    return KINDS.drew(kind, drawn)


# one equation of each kind, whatever the derandomized draws are
PINS = [
    ("ncl", 12, 1, ([0.5, -1.0, 2.0], 1.5), 3.0, 3.0, 3.0, -3.0),
    ("projector", 9, 2, 2, 0.05, 0.05, 0.0, 2.5),
    ("lowrank", 12, 3, 12, 0.0, 1.7, 0.4, 0.0),
    ("none", 2, 4, None, 1.0, 0.0, 0.0, 3.0),
]


def _pinned(test):
    """``test`` with an explicit example of each pin in ``PINS``, each a
    fresh equation and generator."""
    for pin in PINS:
        test = example(_equation(*pin))(test)
    return test


def _reference(me, rho):
    h = me.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for ch in me.channels:
        out = out + ch.rate * oracles.dissipator(ch.op, rho)
    return out


def _close(a, b, scale):
    return np.abs(a - b).max() <= RTOL * max(1.0, scale)


@KINDS.each_drawn
@SETTINGS
@_pinned
@given(equations())
def test_rhs_matches_dense_reference(drawn):
    me, rng = drawn
    assert np.array_equal(me.hamiltonian, me.hamiltonian.conj().T)
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


@KINDS.each_drawn
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


def test_kind_draws_counts_only_examples_the_body_ran():
    # every "discarded" draw is rejected inside the strategy, after drew():
    # the body never runs one, so the run must fail naming that kind
    kinds = KindDraws(("kept", "discarded"))

    @st.composite
    def cases(draw):
        kind = draw(st.sampled_from(kinds.kinds))
        case = kinds.drew(kind, [kind])
        assume(kind == "kept")
        return case

    @kinds.each_drawn
    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(cases())
    def body_runs(case):
        assert case == ["kept"]

    with pytest.raises(AssertionError, match=r"no example of kind \['discarded'\]"):
        body_runs()
    assert kinds.counts["kept"] >= 1 and kinds.counts["discarded"] == 0


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


@KINDS.each_drawn
@SETTINGS
@_pinned
@given(equations())
def test_superoperator_matches_rhs(drawn):
    me, rng = drawn
    rho = random_density(me.dim, rng)
    out = oracles.vec(lv.rhs(me, rho))
    assert _close(oracles.superoperator(me.generator) @ oracles.vec(rho), out, np.abs(out).max())


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


@KINDS.each_drawn
@SETTINGS
@_pinned
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


@KINDS.each_drawn
@SETTINGS
@given(st.booleans().flatmap(lambda lowering: equations(lowering=lowering)), st.data())
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
    f = gadgets.NonlinearFunction(cs)
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
    truncated = steady._approximate_generator(me, f)
    assert _close(truncated.apply(rho), ref, scale)
    assert _close(oracles.superoperator(truncated) @ oracles.vec(rho), oracles.vec(ref), scale)
