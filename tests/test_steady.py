from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st

import oracles
import theory
from conftest import random_density
from nclsim import fock, gadgets, liouvillian as lv, observables, scenarios as sc, steady
from nclsim.errors import (
    BlockedRecurrenceError,
    DimensionCapError,
    InvalidStateError,
    NonUniqueSteadyStateError,
    TailGuardError,
)
from theory import PeakWindowError


def _ncl_me(dim, f=None, **kw):
    f = f or gadgets.NonlinearFunction.from_name("x-1")
    return lv.MasterEquation(dim, nonlinear_op=gadgets.ncl_lindblad(f, dim), **kw)


# -- null-space solving ------------------------------------------------------


def test_pure_loss_steady_state():
    me = lv.MasterEquation(8, gamma_linear=1.0)
    rho = steady.steady_state_nullspace(me)
    assert np.abs(rho - fock.pure_density(fock.fock_state(0, 8))).max() <= 1e-10


def test_thermal_steady_detailed_balance():
    nbar = 0.8
    me = lv.MasterEquation(30, gamma_linear=1.0, nbar=nbar)
    rho = steady.steady_state_nullspace(me)
    p = np.real(np.diag(rho))
    r = nbar / (nbar + 1.0)
    expected = (1 - r) * r ** np.arange(30)
    assert np.abs(p - expected / expected.sum()).max() <= 1e-10


def _projector_me(dim, alpha=0.5, **rates):
    gadget = gadgets.ProjectorGadget(
        fock.fock_state(2, dim), fock.coherent_state(alpha, dim), 2
    )
    return lv.MasterEquation(dim, nonlinear_op=gadget.operator, **rates)


@pytest.mark.parametrize(
    "me",
    [
        _ncl_me(12, gamma_linear=0.4, gamma_nonlinear=1.0, omega=2.0),
        _ncl_me(20, gamma_linear=0.2, gamma_nonlinear=1.0, omega=12.0),
        _projector_me(20, gamma_linear=0.3, gamma_nonlinear=1.0, omega=0.8),
        # complex entries and a state with an imaginary part
        _projector_me(20, alpha=0.5j, gamma_linear=0.3, gamma_nonlinear=1.0, omega=0.8),
    ],
    ids=["ncl-12", "driven-ncl-20", "projector-20", "complex-projector-20"],
)
def test_svd_and_direct_routes_agree(me):
    rho_svd = oracles.steady_state_svd(me)
    rho_dir = steady.steady_state_nullspace(me)
    assert np.abs(rho_svd - rho_dir).max() <= 1e-9
    if me.generator.dtype == np.float64:
        # a real equation's system has no entries between S and A, so the A
        # part of the solution, the state's imaginary part, is exactly 0
        assert not rho_dir.imag.any()
    else:
        assert np.abs(rho_dir.imag).max() > 1e-3


@pytest.mark.parametrize("name", sc.PRESET_NAMES)
def test_preset_superoperators_are_real(name):
    # every equation a preset states has real operators and -iH = Ω(a - a†)
    for _, config in sc.expand_preset(name):
        for value in (config.sweep.values[0], config.sweep.values[-1]):
            me, f, _ = sc.build_system(sc.resolve_point(config, value))
            assert oracles.superoperator(me.generator).dtype == np.float64
            if config.solver.method == "steady_approx":
                gen = steady._approximate_generator(me, f)
                assert oracles.superoperator(gen).dtype == np.float64


@pytest.mark.parametrize(
    "solve", [steady.steady_state_nullspace, oracles.steady_state_svd], ids=["direct", "svd"]
)
def test_phase_rotated_channel_gives_the_same_state(solve):
    # e^{iθ}·a·f(a†a) is the same channel, but its superoperator is complex
    dim = 16
    f = gadgets.NonlinearFunction.from_name("x-1")
    rates = dict(gamma_linear=0.5, gamma_nonlinear=1.0, omega=3.0)
    real = _ncl_me(dim, f, **rates)
    op = np.exp(0.7j) * gadgets.ncl_lindblad(f, dim)
    rotated = lv.MasterEquation(dim, nonlinear_op=op, **rates)
    assert oracles.superoperator(real.generator).dtype == np.float64
    assert oracles.superoperator(rotated.generator).dtype == np.complex128
    expected = solve(real)
    rho = solve(rotated)
    assert expected.dtype == rho.dtype == np.complex128
    assert np.abs(rho - steady.steady_state_nullspace(real)).max() <= 1e-10
    assert np.abs(rho - expected).max() <= 1e-10


@pytest.mark.parametrize(
    "solve", [oracles.steady_state_svd, steady.steady_state_nullspace], ids=["svd", "direct"]
)
def test_degenerate_null_space_detected(solve):
    # no loss, no driving: f = x-1 leaves both |0> and |1> dark
    me = _ncl_me(10, gamma_nonlinear=1.0)
    with pytest.raises(NonUniqueSteadyStateError):
        solve(me)


@pytest.mark.parametrize(
    "dim, omega", [(5, 1.3), (7, 2.0), (9, 1.3), (13, 2.0), (17, 1.3), (21, 0.4), (25, 1.3)]
)
def test_hamiltonian_only_null_space_is_singular(dim, omega):
    # every function of H is stationary, so the trace-row system is singular,
    # exactly or to working precision
    with pytest.raises(NonUniqueSteadyStateError, match="singular"):
        steady.steady_state_nullspace(lv.MasterEquation(dim, omega=omega))


@pytest.mark.parametrize("omega", [0.05, 1.3, 20.0])
def test_degeneracy_only_in_the_antisymmetric_block_is_detected(omega):
    # at dim 2 the trace row removes the symmetric null vector; the second
    # stationary element, H = iΩ(a - a†) itself, is i times a real
    # antisymmetric matrix
    with pytest.raises(NonUniqueSteadyStateError, match="singular"):
        steady.steady_state_nullspace(lv.MasterEquation(2, omega=omega))


def _parity_me(dim):
    op = np.diag(np.arange(dim) % 2.0)
    return lv.MasterEquation(dim, omega=1.3, gamma_nonlinear=1.0, nonlinear_op=op)


@pytest.mark.parametrize("dim", [7, 8, 40])
def test_parity_channel_null_space_is_singular(dim):
    # a driven diag(n mod 2) channel has a degenerate null space above dim 2
    with pytest.raises(NonUniqueSteadyStateError, match="singular"):
        steady.steady_state_nullspace(_parity_me(dim))


def test_parity_channel_at_dim_2_has_a_unique_state():
    rho = steady.steady_state_nullspace(_parity_me(2))
    assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12


def test_stationary_guard_trips_on_a_truncated_driven_ladder():
    # driven NCL f = x-1 at dim 20, Γ = 5, γ = 1, α₀ = 1e6: both routes put
    # 5 % of the population on the top level, a truncation artefact
    me = _ncl_me(20, gamma_linear=5.0, gamma_nonlinear=1.0, omega=1e6)
    assert me.pumps_a_ladder()
    with pytest.raises(TailGuardError, match=r"p\[19\] = 5\.000e-02"):
        steady.steady_state_nullspace(me)
    with pytest.raises(TailGuardError, match=r"p\[19\] = 5\.000e-02"):
        steady.approximate_steady_state(me, gadgets.NonlinearFunction.from_name("x-1"))
    # the projector and parity channels are not ladders, so their driven
    # states may fill the top level (see the two tests above)
    assert not _projector_me(20, gamma_linear=0.3, gamma_nonlinear=1.0, omega=0.8).pumps_a_ladder()
    assert not _parity_me(2).pumps_a_ladder()


def _dephasing_me(dim):
    # a Hermitian jump operator x = a + a† leaves every function of x stationary
    a = fock.annihilation(dim)
    return lv.MasterEquation(dim, gamma_nonlinear=1.0, nonlinear_op=a + a.T)


@pytest.mark.parametrize(
    "me, match",
    [
        # no perfect matching: rejected before SuperLU sees it
        (lv.MasterEquation(17, omega=7.0), "structurally singular"),
        # SuperLU meets an exact zero pivot
        (_dephasing_me(3), "exactly singular"),
        # the system factors, but its condition estimate shows that it is singular
        (_dephasing_me(8), "singular to working precision"),
    ],
    ids=["hamiltonian-only", "dephasing-3", "dephasing-8"],
)
def test_singular_trace_row_system_reported_as_degenerate(me, match):
    with pytest.raises(NonUniqueSteadyStateError, match=match):
        steady.steady_state_nullspace(me)


def _driven_ncl(dim, alpha0, epsilon):
    f = gadgets.NonlinearFunction.from_name("x-1")
    return _ncl_me(dim, f, gamma_linear=epsilon, gamma_nonlinear=1.0, omega=alpha0), f


def _record(monkeypatch, module, name):
    """Calls of ``module.name`` from now on, as (args, result) pairs."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
def test_one_factorization_per_point(monkeypatch, approx):
    me, f = _driven_ncl(32, 12.0, 1.0)
    # steady imports splu inside the solve, so it reads the patched name
    calls = _record(monkeypatch, scipy.sparse.linalg, "splu")
    stats = steady.LUStats()
    if approx:
        steady.approximate_steady_state(me, f, stats=stats)
    else:
        steady.steady_state_nullspace(me, stats=stats)
    # one factorization of the whole trace-row system
    assert len(calls) == stats.lu_factorizations == 1
    # the first solve, at most three refinement steps, and at least three
    # solves for the condition estimate; 5 (exact and approx) here
    assert 4 <= stats.lu_solves <= 8


@pytest.mark.parametrize(
    "preset, method", [("fig2b", "recurrence_ncl"), ("fig2d", "recurrence_thermal")]
)
def test_logsumexp_is_bitwise_scipy_on_preset_recurrences(monkeypatch, preset, method):
    from scipy.special import logsumexp

    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    calls = _record(monkeypatch, steady, "_logsumexp")
    config = sc.expand_preset(preset)[0][1]
    config = replace(config, solver=replace(config.solver, method=method))
    assert all(p.error is None for p in sc.run_sweep(config).points)
    assert len(calls) == len(config.sweep.values)
    ties = np.array([-np.inf, 0.0, -3.0, 0.0, -700.0])
    for logp, norm in calls + [((ties,), steady._logsumexp(ties))]:
        assert np.float64(norm).tobytes() == np.float64(logsumexp(logp[0])).tobytes()


@pytest.mark.parametrize(
    "solve, dim",
    [
        pytest.param(steady.steady_state_nullspace, steady.SPARSE_DIM_CAP + 1, id="direct"),
        pytest.param(oracles.steady_state_svd, 80, id="svd"),
    ],
)
def test_dimension_cap(solve, dim):
    with pytest.raises(DimensionCapError):
        solve(lv.MasterEquation(dim, gamma_linear=1.0))


THERMAL_F = [gadgets.NonlinearFunction.from_name(n) for n in ("x-1", "(x-1)^2", "(x-1)^3")] + [
    gadgets.NonlinearFunction.from_name("x^k", power=k) for k in (1, 2)
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(2, 40),
    st.sampled_from(THERMAL_F),
    st.floats(-12.0, 0.5).map(lambda e: 10.0**e),
    st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
)
def test_thermal_nullspace_diagonal_matches_recurrence(dim, f, nbar, ratio):
    # n̄ and γ/Γ span decades so that small dims also pass the tail guard
    try:
        expected = steady.thermal_recurrence(f, nbar, ratio, dim)
    except TailGuardError:
        assume(False)
    me = _ncl_me(dim, f, gamma_linear=1.0, gamma_nonlinear=ratio, nbar=nbar)
    rho = steady.steady_state_nullspace(me)
    assert np.abs(np.real(np.diag(rho)) - expected.probabilities).max() <= 1e-10


# -- driven recurrence -------------------------------------------------------


def test_ncl_recurrence_poisson_limit():
    f1 = gadgets.NonlinearFunction([1.0])  # f ≡ 1
    alpha0 = 2.0
    dist = steady.ncl_recurrence(f1, alpha0, 0.0, 40)
    assert abs(dist.mandel_q()) <= 1e-10
    n = np.arange(40)
    logp = n * np.log(alpha0**2) - np.cumsum(np.log(np.maximum(n, 1)))
    expected = np.exp(logp - logp.max())
    expected /= expected.sum()
    assert np.abs(dist.probabilities - expected).max() <= 1e-12


def test_ncl_recurrence_blocked_at_zero_of_f():
    f = gadgets.NonlinearFunction.from_name("x-1")
    with pytest.raises(BlockedRecurrenceError) as err:
        steady.ncl_recurrence(f, 10.0, 0.0, 30)
    assert err.value.n == 1
    dist = steady.ncl_recurrence(f, 10.0, 0.0, 30, start=1)
    assert dist.probabilities[0] == 0.0
    assert dist.probabilities[1] > 0.0


def test_ncl_recurrence_asymptotic_q():
    f = gadgets.NonlinearFunction.from_name("x-1")
    dist = steady.ncl_recurrence(f, 1e4, 0.0, 120, start=1)
    assert -0.85 <= dist.mandel_q() <= -0.75


def test_ncl_recurrence_tail_guard():
    f = gadgets.NonlinearFunction.from_name("x-1")
    with pytest.raises(TailGuardError):
        steady.ncl_recurrence(f, 1e4, 0.0, 30, start=1)  # peak ≈ 40 does not fit


def test_ncl_recurrence_approximates_full_solver_at_strong_driving():
    # the recurrence is exact for the truncated equation; against the full
    # steady state it is an approximation that tightens with driving
    # (measured at alpha0=150, eps=0.2: max deviation 0.035, Q gap 0.044)
    f = gadgets.NonlinearFunction.from_name("x-1")
    me = _ncl_me(64, gamma_linear=0.2, gamma_nonlinear=1.0, omega=150.0)
    rho = steady.steady_state_nullspace(me)
    d_exact = np.real(np.diag(rho))
    rec = steady.ncl_recurrence(f, 150.0, 0.2, 64)
    assert np.abs(d_exact - rec.probabilities).max() <= 0.05
    assert abs(int(np.argmax(d_exact)) - int(np.argmax(rec.probabilities))) <= 1
    assert abs(observables.photon_distribution(rho).mandel_q() - rec.mandel_q()) <= 0.1


# -- thermal recurrence ------------------------------------------------------


def test_thermal_recurrence_bose_einstein():
    f0 = gadgets.NonlinearFunction([0.0])  # f ≡ 0
    nbar = 1.7
    dist = steady.thermal_recurrence(f0, nbar, 0.3, 220)
    assert dist.mandel_q() == pytest.approx(nbar, abs=1e-10)


def test_thermal_recurrence_truncation():
    f3 = gadgets.NonlinearFunction.from_name("(x-1)^3")
    nbar, ratio, dim = 2.0, 0.2, 40
    dist = steady.thermal_recurrence(f3, nbar, ratio, dim)
    nt = theory.thermal_truncation_number(f3, nbar, ratio, dim)
    assert dist.probabilities[nt + 2 :].sum() <= 1e-3
    assert dist.probabilities[: nt + 1].sum() >= 0.9


def test_thermal_recurrence_matches_nullspace_diagonal():
    # with no driving the exact steady state is diagonal and given by the
    # detailed-balance recurrence, for any nonlinearity
    f2 = gadgets.NonlinearFunction.from_name("(x-1)^2")
    me = _ncl_me(30, f=f2, gamma_linear=1.0, gamma_nonlinear=0.35, nbar=1.2)
    rho = steady.steady_state_nullspace(me)
    d_rec = steady.thermal_recurrence(f2, 1.2, 0.35, 30).probabilities
    assert np.abs(np.real(np.diag(rho)) - d_rec).max() <= 1e-8


def test_thermal_rescue_interior_minimum():
    f3 = gadgets.NonlinearFunction.from_name("(x-1)^3")
    nbars = np.arange(0.5, 10.01, 0.5)
    qs = np.array([steady.thermal_recurrence(f3, nb, 0.2, 48).mandel_q() for nb in nbars])
    i = int(np.argmin(qs))
    assert qs[i] < 0.0
    assert 0 < i < len(nbars) - 1


def test_nonclassicality_ratio_criterion():
    # ratio p_n/p_{n-1} decaying faster than 1/n implies sub-Poissonian stats
    f3 = gadgets.NonlinearFunction.from_name("(x-1)^3")
    dist = steady.thermal_recurrence(f3, 2.0, 0.2, 30)
    p = dist.probabilities
    live = p > 1e-290
    ratios = np.array(
        [n * p[n] / p[n - 1] for n in range(1, 12) if live[n] and live[n - 1]]
    )
    assert np.all(np.diff(ratios[2:]) < 0)
    assert ratios[-1] < 0.1
    assert dist.mandel_q() < 0.0


# -- peak analysis -----------------------------------------------------------


def test_peak_condition_power_law_location():
    f = gadgets.NonlinearFunction.from_name("x-1")
    alpha0 = 1e4
    est = theory.peak_condition(f, alpha0, 0.0, 200)
    assert est.n0 == pytest.approx(alpha0 ** (2.0 / 5.0), rel=0.1)


@pytest.mark.parametrize("k,expected", [(1, -0.8), (2, -8.0 / 9.0), (3, -12.0 / 13.0)])
def test_peak_condition_power_law_q(k, expected):
    fk = gadgets.NonlinearFunction.from_name("x^k", power=k)
    est = theory.peak_condition(fk, 1e6, 0.0, 400)
    assert est.q_estimate == pytest.approx(expected, abs=0.02)


def test_peak_condition_x_minus_one_limit():
    f = gadgets.NonlinearFunction.from_name("x-1")
    qs = [theory.peak_condition(f, a0, 0.0, 600).q_estimate for a0 in (1e2, 1e4, 1e6)]
    assert abs(qs[-1] - (-0.8)) < abs(qs[0] - (-0.8))
    assert qs[-1] == pytest.approx(-0.8, abs=0.01)


def test_peak_condition_tie_breaks_down():
    f1 = gadgets.NonlinearFunction([1.0])  # mismatch |n - α₀²|
    est = theory.peak_condition(f1, np.sqrt(1.5), 0.0, 10)
    assert est.n0 == 1


def test_peak_condition_window_error():
    f = gadgets.NonlinearFunction.from_name("x-1")
    with pytest.raises(PeakWindowError):
        theory.peak_condition(f, 1e4, 0.0, 20)


def test_q_estimate_converges_to_recurrence_q():
    # gap between the width-estimate Q and the exact recurrence Q shrinks
    # monotonically over a decade of driving for a monotone nonlinearity
    fk = gadgets.NonlinearFunction.from_name("x^k", power=1)
    gaps = []
    for alpha0, dim in ((1e3, 160), (1e4, 400), (1e5, 1500)):
        q_rec = steady.ncl_recurrence(fk, alpha0, 0.0, dim).mandel_q()
        q_est = theory.peak_condition(fk, alpha0, 0.0, dim).q_estimate
        gaps.append(abs(q_rec - q_est))
    assert gaps[0] > gaps[1] > gaps[2]


def test_gaussian_profile_basics():
    f = gadgets.NonlinearFunction.from_name("x-1")
    assert theory.gaussian_profile(f, 40, 0.0, 0) == 1.0
    assert theory.gaussian_profile(f, 40, 0.0, 3) == theory.gaussian_profile(f, 40, 0.0, -3)


def test_gaussian_profile_against_recurrence():
    f = gadgets.NonlinearFunction.from_name("x-1")
    # wide peak: the curvature profile matches the recurrence on both sides
    n0 = 300
    alpha0 = float(np.sqrt(n0 * (n0 - 1) ** 4))  # drives the peak to n0
    p = steady.ncl_recurrence(f, alpha0, 0.0, 450, start=1).probabilities
    for dn in (3, -3):
        exact = p[n0 + dn] / p[n0]
        assert abs(theory.gaussian_profile(f, n0, 0.0, dn) - exact) / exact <= 0.25

    # narrow peak: accurate above the peak; the |δn|(|δn|+1) symmetrization
    # overestimates the decay of the lower shoulder (measured 31% at n0=40)
    n0 = 40
    alpha0 = float(np.sqrt(n0 * (n0 - 1) ** 4))
    p = steady.ncl_recurrence(f, alpha0, 0.0, 120, start=1).probabilities
    up = p[n0 + 3] / p[n0]
    assert abs(theory.gaussian_profile(f, n0, 0.0, 3) - up) / up <= 0.25
    down = p[n0 - 3] / p[n0]
    assert 1.0 / 1.5 <= theory.gaussian_profile(f, n0, 0.0, -3) / down <= 1.5


# -- truncated equation ------------------------------------------------------


def test_approximate_rhs_identity(rng):
    dim = 8
    f = gadgets.NonlinearFunction.from_name("x-1")
    me = _ncl_me(dim, gamma_linear=0.25, gamma_nonlinear=1.25, omega=2.0)
    a = fock.annihilation(dim)
    fd = fock.diagonal_function_operator(f, dim)
    truncated = steady._approximate_generator(me, f)
    for _ in range(20):
        rho = random_density(dim, rng)
        full = lv.rhs(me, rho)
        approx = truncated.apply(rho)
        inner = rho @ fd - fd @ rho
        outer = inner @ fd - fd @ inner
        correction = me.gamma_nonlinear * (a @ outer @ a.conj().T)
        assert np.abs(full - (approx - correction)).max() <= 1e-10


def test_approximate_rhs_preconditions():
    f = gadgets.NonlinearFunction.from_name("x-1")
    me_thermal = _ncl_me(8, gamma_nonlinear=1.0, nbar=0.5, gamma_linear=0.2)
    with pytest.raises(InvalidStateError):
        steady._approximate_generator(me_thermal, f)
    f2 = gadgets.NonlinearFunction.from_name("(x-1)^2")
    me = _ncl_me(8, gamma_nonlinear=1.0)
    with pytest.raises(InvalidStateError):
        steady._approximate_generator(me, f2)  # operator mismatch


def test_approximate_superoperator_consistency(rng):
    dim = 7
    f = gadgets.NonlinearFunction.from_name("x-1")
    me = _ncl_me(dim, gamma_linear=0.3, gamma_nonlinear=0.9, omega=1.7)
    truncated = steady._approximate_generator(me, f)
    lop = oracles.superoperator(truncated).toarray()
    for _ in range(10):
        rho = random_density(dim, rng)
        out = truncated.apply(rho)
        assert np.abs(lop @ oracles.vec(rho) - oracles.vec(out)).max() <= 1e-12


def test_approximate_steady_state_matches_recurrence():
    f = gadgets.NonlinearFunction.from_name("x-1")
    me = _ncl_me(30, gamma_linear=0.2, gamma_nonlinear=1.0, omega=5.0)
    rho = steady.approximate_steady_state(me, f)
    assert rho.dtype == np.complex128
    d_rec = steady.ncl_recurrence(f, 5.0, 0.2, 30).probabilities
    assert np.abs(np.real(np.diag(rho)) - d_rec).max() <= 1e-8
    assert theory.b_eigen_residual(me, f, rho) <= 1e-8


def test_approximate_steady_state_by_evolution():
    # the truncated equation can also be integrated in time; both routes agree
    import scipy.linalg as sla

    dim = 16
    f = gadgets.NonlinearFunction.from_name("x-1")
    me = _ncl_me(dim, gamma_linear=0.2, gamma_nonlinear=1.0, omega=2.0)
    rho_null = steady.approximate_steady_state(me, f)

    lop = oracles.superoperator(steady._approximate_generator(me, f)).toarray()
    v = sla.expm(lop * 40.0) @ oracles.vec(fock.pure_density(fock.fock_state(0, dim)))
    rho = oracles.unvec(v, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))
    assert np.abs(rho - rho_null).max() <= 1e-6
