"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Heavy sweeps (the two transient figure presets) are
computed once in module-scoped fixtures and shared between the ordering
criteria and the invariant suite.
"""

import time

import numpy as np
import pytest

import theory
from conftest import generator_residual, trace_distance
from nclsim import evolve, fock, gadgets, liouvillian as lv, observables as obs
from nclsim import scenarios as sc
from nclsim import steady


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _ncl_me(dim, f, **kw):
    return lv.MasterEquation(dim, nonlinear_op=gadgets.ncl_lindblad(f, dim), **kw)


def _run_serial(preset):
    """The preset's one family run in this process, and its wall time."""
    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NCLSIM_WORKERS", "1")
        res = sc.run_preset(preset)["main"]
    return res, time.time() - t0


@pytest.fixture(scope="module")
def fig1a_result():
    return _run_serial("fig1a")


@pytest.fixture(scope="module")
def fig1c_result():
    return _run_serial("fig1c")


@pytest.fixture(scope="module")
def gadget_run():
    # target |2>, source |alpha=3>, k=2, no linear loss
    dim = 56
    src = fock.coherent_state(3.0, dim)
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), src, 2)
    me = lv.MasterEquation(dim, gamma_nonlinear=1.0, nonlinear_op=g.operator)
    rho0 = fock.pure_density(src)

    t0 = time.time()
    rho_steady = evolve.propagate(me, rho0, [0.0, 10.0]).states[-1]
    t_steady = time.time() - t0

    t0 = time.time()
    traj = evolve.propagate(me, rho0, np.linspace(0.0, 0.2, 240))
    t_traj = time.time() - t0
    return {
        "gadget": g,
        "me": me,
        "rho0": rho0,
        "steady": rho_steady,
        "residual": generator_residual(me, rho_steady),
        "t_steady": t_steady,
        "traj": traj,
        "t_traj": t_traj,
        "dim": dim,
    }


def test_criterion_1_thermal_recurrence_exactness():
    f3 = gadgets.NonlinearFunction.from_name("(x-1)^3")
    t0 = time.time()
    me = _ncl_me(40, f3, gamma_linear=1.0, gamma_nonlinear=0.2, nbar=2.0)
    rho = steady.steady_state_nullspace(me)
    diag = np.real(np.diag(rho))
    rec = steady.thermal_recurrence(f3, 2.0, 0.2, 40).probabilities
    dt = time.time() - t0
    dev = float(np.abs(diag - rec).max())
    _report(1, dev <= 1e-8 and dt < 5.0, f"max |diag - recurrence| = {dev:.2e}, {dt:.2f}s")


def test_criterion_2_asymptotic_q_x_minus_one():
    f = gadgets.NonlinearFunction.from_name("x-1")
    t0 = time.time()
    q = steady.ncl_recurrence(f, 1e4, 0.0, 120, start=1).mandel_q()
    dt = time.time() - t0
    _report(2, -0.85 <= q <= -0.75 and dt < 1.0, f"Q = {q:.4f} (target -0.8), {dt:.2f}s")


def test_criterion_3_power_law_asymptotics():
    t0 = time.time()
    qs = {}
    for k, dim in ((1, 340), (2, 80)):
        fk = gadgets.NonlinearFunction.from_name("x^k", power=k)
        qs[k] = steady.ncl_recurrence(fk, 1e6, 0.0, dim).mandel_q()
    dt = time.time() - t0
    ok = all(abs(qs[k] - (-4 * k / (4 * k + 1.0))) <= 0.1 for k in (1, 2)) and dt < 1.0
    _report(3, ok, f"Q(k=1) = {qs[1]:.4f} vs -0.8, Q(k=2) = {qs[2]:.4f} vs -8/9, {dt:.2f}s")


def test_criterion_4_steady_fidelity_closed_form(gadget_run):
    g, residual = gadget_run["gadget"], gadget_run["residual"]
    pred = theory.steady_fidelity_prediction(g, gadget_run["rho0"])
    fid = obs.fidelity_to_pure(gadget_run["steady"], g.target)
    diff = abs(fid - pred)
    ok = residual < 1e-10 and diff <= 1e-4 and gadget_run["t_steady"] < 30.0
    _report(
        4,
        ok,
        f"fidelity {fid:.6f} vs prediction {pred:.6f} (diff {diff:.2e}), "
        f"residual {residual:.1e}, {gadget_run['t_steady']:.2f}s",
    )


def test_criterion_5_transfer_decay_rate(gadget_run):
    g, traj = gadget_run["gadget"], gadget_run["traj"]
    rate = theory.decay_rate_fit(traj, g)
    ge = theory.gamma_eff(g, 1.0)
    eps = theory.projector_residuals(traj, g)
    i10 = int(np.argmin(np.abs(traj.times - 10.0 / ge)))
    resid = float(eps[i10])
    ok = 0.5 <= rate / ge <= 2.0 and resid < 1e-3 and gadget_run["t_traj"] < 60.0
    _report(
        5,
        ok,
        f"fitted rate {rate:.1f} vs gamma_eff {ge:.1f} (ratio {rate / ge:.3f}), "
        f"residual at gamma_eff*t=10: {resid:.2e}, {gadget_run['t_traj']:.2f}s",
    )


def test_criterion_6_fig1a_ordering(fig1a_result):
    res, dt = fig1a_result
    maxima, argtimes = [], []
    for point in res.points:
        assert point.error is None, point.error
        fids = np.array([r.fidelity for r in point.reports])
        i = int(np.argmax(fids))
        maxima.append(float(fids[i]))
        argtimes.append(float(point.times[i]))
    increasing = all(a < b for a, b in zip(maxima, maxima[1:]))
    decreasing = all(a > b for a, b in zip(argtimes, argtimes[1:]))
    ok = increasing and decreasing and dt < 120.0
    _report(
        6,
        ok,
        f"maxima {[round(m, 4) for m in maxima]} increasing={increasing}, "
        f"times {[round(t, 4) for t in argtimes]} decreasing={decreasing}, {dt:.1f}s",
    )


def test_criterion_7_fig1c_sub_poissonian(fig1c_result):
    res, dt = fig1c_result
    min_qs = []
    for point in res.points:
        assert point.error is None, point.error
        qs = np.array([r.mandel_q for r in point.reports])
        min_qs.append(float(np.nanmin(qs)))
    negative = all(q < 0 for q in min_qs)
    decreasing = all(a > b for a, b in zip(min_qs, min_qs[1:]))
    ok = negative and decreasing and dt < 300.0
    _report(
        7,
        ok,
        f"min Q per alpha {[round(q, 4) for q in min_qs]} "
        f"negative={negative} decreasing={decreasing}, {dt:.1f}s",
    )


def test_criterion_8_loss_robustness():
    f = gadgets.NonlinearFunction.from_name("x-1")
    t0 = time.time()
    q = {}
    for a0 in (5.0, 150.0):
        for eps in (1.0, 5.0, 10.0):
            me = _ncl_me(64, f, gamma_linear=eps, gamma_nonlinear=1.0, omega=a0)
            q[(a0, eps)] = obs.photon_distribution(steady.steady_state_nullspace(me)).mandel_q()
    dt = time.time() - t0
    q150 = [q[(150.0, e)] for e in (1.0, 5.0, 10.0)]
    q5 = [q[(5.0, e)] for e in (1.0, 5.0, 10.0)]
    spread150 = max(q150) - min(q150)
    spread5 = max(q5) - min(q5)
    ok = all(v <= -0.5 for v in q150) and spread150 < spread5 and dt < 300.0
    _report(
        8,
        ok,
        f"Q at alpha0=150: {[round(v, 4) for v in q150]} (all <= -0.5), "
        f"spread {spread150:.4f} < {spread5:.4f} at alpha0=5, {dt:.1f}s",
    )


def test_criterion_9_truncated_equation_consistency(rng):
    f = gadgets.NonlinearFunction.from_name("x-1")
    t0 = time.time()
    dim = 8
    me = _ncl_me(dim, f, gamma_linear=0.25, gamma_nonlinear=1.25, omega=2.0)
    a = fock.annihilation(dim)
    fd = fock.diagonal_function_operator(f, dim)
    truncated = steady._approximate_generator(me, f)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x @ x.conj().T
        rho /= np.real(np.trace(rho))
        full = lv.rhs(me, rho)
        approx = truncated.apply(rho)
        inner = rho @ fd - fd @ rho
        corr = me.gamma_nonlinear * (a @ (inner @ fd - fd @ inner) @ a.conj().T)
        worst = max(worst, float(np.abs(full - (approx - corr)).max()))

    me_b = _ncl_me(30, f, gamma_linear=0.2, gamma_nonlinear=1.0, omega=5.0)
    rho_ap = steady.approximate_steady_state(me_b, f)
    rec = steady.ncl_recurrence(f, 5.0, 0.2, 30).probabilities
    diag_dev = float(np.abs(np.real(np.diag(rho_ap)) - rec).max())
    dt = time.time() - t0
    ok = worst <= 1e-10 and diag_dev <= 1e-8 and dt < 10.0
    _report(
        9,
        ok,
        f"identity residual {worst:.2e} (50 random inputs), "
        f"steady diagonal vs recurrence {diag_dev:.2e}, {dt:.2f}s",
    )


def test_criterion_10_thermal_rescue():
    f3 = gadgets.NonlinearFunction.from_name("(x-1)^3")
    t0 = time.time()
    nbars = np.arange(1, 41) * 0.25
    qs = np.array([steady.thermal_recurrence(f3, nb, 0.2, 48).mandel_q() for nb in nbars])
    i = int(np.argmin(qs))
    me = _ncl_me(40, f3, gamma_linear=1.0, gamma_nonlinear=0.2, nbar=2.0)
    q_cross = obs.photon_distribution(steady.steady_state_nullspace(me)).mandel_q()
    q_rec = steady.thermal_recurrence(f3, 2.0, 0.2, 40).mandel_q()
    cross_dev = abs(q_cross - q_rec)
    dt = time.time() - t0
    ok = qs[i] < 0 and 0 < i < len(nbars) - 1 and cross_dev <= 1e-6 and dt < 30.0
    _report(
        10,
        ok,
        f"min Q {qs[i]:.4f} at nbar={nbars[i]:.2f} (interior), "
        f"nullspace cross-check dev {cross_dev:.2e}, {dt:.1f}s",
    )


def test_criterion_11_invariant_suite(fig1a_result, fig1c_result, gadget_run, driven_ncl_steady):
    worst = {"trace": 0.0, "herm": 0.0, "mineig": 0.0, "top": 0.0}
    for res, _ in (fig1a_result, fig1c_result):
        for point in res.points:
            worst["trace"] = max(worst["trace"], float(point.trace_error.max()))
            worst["herm"] = max(worst["herm"], float(point.herm_error.max()))
            worst["mineig"] = min(worst["mineig"], float(point.min_eigenvalue.min()))
            worst["top"] = max(worst["top"], float(point.top_population.max()))
    traj = gadget_run["traj"]
    worst["trace"] = max(worst["trace"], float(traj.trace_error.max()))
    worst["herm"] = max(worst["herm"], float(traj.herm_error.max()))
    worst["mineig"] = min(worst["mineig"], float(traj.min_eigenvalue.min()))
    worst["top"] = max(worst["top"], float(traj.top_population.max()))

    # cross-solver agreement where both solvers apply
    rho_ns, rho, residual = driven_ncl_steady
    dist = trace_distance(rho, rho_ns)

    ok = (
        worst["trace"] <= 1e-8
        and worst["herm"] <= 1e-10
        and worst["mineig"] >= -1e-8
        and worst["top"] <= 1e-6
        and residual < 1e-9
        and dist <= 1e-7
    )
    _report(
        11,
        ok,
        f"trace err {worst['trace']:.1e}, herm {worst['herm']:.1e}, "
        f"min eig {worst['mineig']:.1e}, top pop {worst['top']:.1e}, "
        f"cross-solver trace distance {dist:.1e} (residual {residual:.1e})",
    )
