import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import theory
from conftest import KindDraws, generator_residual, trace_distance
from nclsim import evolve, fock, gadgets, liouvillian as lv, scenarios
from nclsim.errors import (
    InvalidStateError,
    StepSizeUnderflowError,
    TruncationBreachError,
)
from theory import InsufficientDecayError


def _ncl_me(dim, **kw):
    f = gadgets.NonlinearFunction.from_name("x-1")
    return lv.MasterEquation(dim, nonlinear_op=gadgets.ncl_lindblad(f, dim), **kw)


def test_frozen_state_without_generator():
    me = lv.MasterEquation(14)
    rho0 = fock.pure_density(fock.coherent_state(1.0, 14))
    traj = evolve.propagate(me, rho0, np.linspace(0, 5, 6))
    for state in traj.states:
        assert np.abs(state - rho0).max() <= 1e-12


def test_two_level_decay_closed_form():
    gamma = 0.7
    me = lv.MasterEquation(4, gamma_linear=gamma)
    rho0 = fock.pure_density(fock.fock_state(1, 4))
    grid = np.linspace(0, 2, 21)
    traj = evolve.propagate(me, rho0, grid)
    for t, state in zip(traj.times, traj.states):
        assert abs(np.real(state[1, 1]) - np.exp(-2 * gamma * t)) <= 1e-6


def test_propagate_diagnostics_bounds():
    me = _ncl_me(24, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(2.0, 24))
    traj = evolve.propagate(me, rho0, np.concatenate([[0], np.geomspace(1e-4, 1.0, 40)]))
    assert traj.trace_error.max() <= 1e-8
    assert traj.herm_error.max() <= 1e-10
    assert traj.min_eigenvalue.min() >= -1e-8
    assert traj.top_population.max() <= 1e-6


def test_window_matches_full_integration():
    # the windowed run against scipy's truncated Taylor action of the sparse
    # superoperator on the full space
    from scipy.sparse.linalg import expm_multiply

    me = _ncl_me(24, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(1.5, 24))
    grid = np.linspace(0, 3.0, 7)
    traj = evolve.propagate(me, rho0, grid)
    assert traj.stats.min_k_active < 24
    want = expm_multiply(
        oracles.superoperator(me.generator).tocsc(), oracles.vec(rho0),
        start=grid[0], stop=grid[-1], num=grid.size, endpoint=True,
    )
    for state, v in zip(traj.states, want):
        assert np.abs(state - oracles.unvec(v, me.dim)).max() <= 1e-9


def test_first_herm_error_is_the_asymmetry_removed_from_rho0():
    dim = 16
    me = _ncl_me(dim, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(1.0, dim))
    rho0[0, 1] += 1e-12
    traj = evolve.propagate(me, rho0, np.linspace(0.0, 0.5, 6))
    assert traj.herm_error[0] == np.abs(rho0 - rho0.conj().T).max() > 0.9e-12
    assert traj.herm_error[1:].max() <= 1e-10


def test_trajectory_states_are_recorded_blocks_padded_on_read():
    dim = 24
    me = _ncl_me(dim, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(1.5, dim))
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 12)])
    traj = evolve.propagate(me, rho0, grid)
    blocks = traj.states.blocks
    sizes = [b.shape[0] for b in blocks]
    assert sizes[-1] < sizes[0]  # the window shrank during the run
    assert len(traj.states) == len(blocks) == grid.size
    for i, state in enumerate(traj.states):
        m = sizes[i]
        assert state.dtype == np.complex128 and state.shape == (dim, dim)
        assert not state[m:].any() and not state[:, m:].any()
        assert np.array_equal(state, evolve._padded(blocks[i], dim))
        assert np.array_equal(state, traj.states[i - grid.size])
    last = traj.states[-1]
    assert last.dtype == np.complex128 and last.shape == (dim, dim)
    assert not last[sizes[-1]:].any() and not last[:, sizes[-1]:].any()
    with pytest.raises(IndexError):
        traj.states[grid.size]
    for block in blocks:
        assert block.dtype == np.float64 and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 2.0
    # every read is a fresh array, so writing to one leaves the record as it was
    traj.states[0][0, 0] = 2.0
    assert traj.states[0][0, 0] == evolve._padded(blocks[0], dim)[0, 0] != 2.0


def test_transient_point_memory_stays_far_below_padded_states():
    # The bench's transient_ncl equation (NCL f = x-1, dim 130, Γ = 1, γ = 0.2,
    # log grid 1e-5..1 with 200 points) at α = 4.  Its 201 states padded to
    # complex dim×dim would take 54 MB; kept as active blocks (3.5 MB) and
    # padded one at a time for the reports, the point peaks near 7 MB.
    config = scenarios.expand_preset("fig1c")[0][1]
    assert (config.dim, config.gamma_linear, config.gamma_nonlinear) == (130, 1.0, 0.2)
    assert config.solver.t_grid == ("log", 1e-5, 1.0, 200)
    tracemalloc.start()
    try:
        point = scenarios.run_point(config, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(point.reports) == 201
    assert peak < 16e6


def test_step_tolerance_control():
    me = _ncl_me(16, gamma_linear=0.5, gamma_nonlinear=0.3)
    rho0 = fock.pure_density(fock.coherent_state(1.0, 16))
    grid = np.array([0.0, 1.5])
    base = evolve.propagate(me, rho0, grid, tol=1e-8).states[-1]
    tight = evolve.propagate(me, rho0, grid, tol=5e-9).states[-1]
    assert trace_distance(base, tight) < 10 * 1e-8


def test_grid_points_cost_no_steps():
    # steps are clipped only at the final time, so a 200-point grid takes the
    # same steps as a 10-point one over the same span
    me = _ncl_me(40, gamma_linear=1.0, gamma_nonlinear=0.2)
    rho0 = fock.pure_density(fock.coherent_state(2.0, 40))
    coarse, fine = (
        evolve.propagate(me, rho0, np.concatenate([[0.0], np.geomspace(1e-5, 1.0, n)]))
        for n in (10, 200)
    )
    assert coarse.stats == fine.stats
    assert coarse.stats.min_k_active < 40  # the window shrank
    assert np.abs(coarse.states[-1] - fine.states[-1]).max() <= 1e-15


def test_dense_output_inside_the_first_step_and_at_the_end():
    # ten grid points inside the first step and the last one on the final
    # time, all read from the continuous extension of the step that covers them
    me = _ncl_me(24, gamma_linear=1.0, gamma_nonlinear=0.2, omega=0.5)
    rho0 = fock.pure_density(fock.coherent_state(2.0, 24))
    grid = np.concatenate([[0.0], np.linspace(1e-9, 1e-8, 10), [0.05, 0.1]])
    traj = evolve.propagate(me, rho0, grid)
    ends = evolve.propagate(me, rho0, grid[[0, -1]])
    tight = evolve.propagate(me, rho0, grid, tol=evolve.DEFAULT_TOL / 100)
    assert traj.stats == ends.stats  # the grid points took no step of their own
    for a, b in zip(traj.states, tight.states):
        assert np.abs(a - b).max() <= 1e-10
    assert traj.trace_error.max() <= 1e-8 and traj.herm_error.max() <= 1e-10


def _projector_me(dim, target, alpha, k, gamma_linear):
    g = gadgets.ProjectorGadget(fock.fock_state(target, dim), fock.coherent_state(alpha, dim), k)
    op = g.operator
    return lv.MasterEquation(dim, gamma_linear=gamma_linear, gamma_nonlinear=1.0, nonlinear_op=op)


@pytest.mark.parametrize(
    "make, alpha",
    [
        pytest.param(lambda: _ncl_me(14, gamma_linear=1.0, gamma_nonlinear=0.2), 1.0, id="ncl14"),
        pytest.param(
            lambda: _ncl_me(24, gamma_linear=0.5, gamma_nonlinear=0.2, omega=1.0), 2.0,
            id="ncl24-driven",
        ),
        pytest.param(lambda: _ncl_me(40, gamma_linear=1.0, gamma_nonlinear=0.2), 3.0, id="ncl40"),
        pytest.param(lambda: _projector_me(24, 2, 1.0, 2, 0.0), 1.0, id="projector24"),
        pytest.param(lambda: _projector_me(40, 2, 2.0, 2, 0.2), 2.0, id="projector40"),
    ],
)
def test_default_tolerance_is_within_1e_10_of_a_tighter_run(make, alpha):
    me = make()
    rho0 = fock.pure_density(fock.coherent_state(alpha, me.dim))
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 30)])
    default = evolve.propagate(me, rho0, grid)
    tight = evolve.propagate(me, rho0, grid, tol=evolve.DEFAULT_TOL / 100)
    assert max(np.abs(a - b).max() for a, b in zip(default.states, tight.states)) <= 1e-10


def test_truncation_breach_guard():
    me = lv.MasterEquation(5, omega=4.0)  # hard coherent drive, tiny space
    rho0 = fock.pure_density(fock.fock_state(0, 5))
    with pytest.raises(TruncationBreachError, match=r"at t=\d"):
        evolve.propagate(me, rho0, np.linspace(0, 2.0, 10))


def test_unusable_error_estimate_stops_by_name():
    # a NaN error estimate is rejected, and the shrunken substep size must
    # end the run with the integrator's own error, not fail in its rounding
    me = lv.MasterEquation(6, gamma_linear=1.0, omega=0.3)
    eng = evolve._Engine(me, fock.pure_density(fock.fock_state(0, 6)), 0.0, 1e-12)
    beta, hbar, avnorm = eng._arnoldi()
    with pytest.raises(StepSizeUnderflowError, match="h=nan"):
        eng._substep((beta, hbar * np.nan, avnorm), 1.0)


def test_invariant_krylov_space_takes_one_exact_substep():
    # pure loss from |1⟩⟨1| stays in span{|1⟩⟨1|, |0⟩⟨0|}: Arnoldi breaks down
    # after two products, and the exponential in that space is exact for any τ
    me = lv.MasterEquation(4, gamma_linear=1.0)
    grid = np.linspace(0.0, 2.0, 5)
    traj = evolve.propagate(me, fock.pure_density(fock.fock_state(1, 4)), grid)
    assert (traj.stats.substeps, traj.stats.matvecs, traj.stats.max_krylov_dim) == (1, 2, 2)
    p1 = np.array([np.real(state[1, 1]) for state in traj.states])
    assert np.abs(p1 - np.exp(-2.0 * grid)).max() <= 1e-15


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.inf, np.nan])
def test_tolerance_validation(tol):
    me = lv.MasterEquation(4, gamma_linear=1.0)
    rho0 = fock.pure_density(fock.fock_state(1, 4))
    with pytest.raises(InvalidStateError, match="tol"):
        evolve.propagate(me, rho0, np.array([0.0, 0.5]), tol=tol)


def test_negative_real_amplitude_propagates_as_the_sign_flipped_state():
    # P = diag((-1)^n) takes a to -a, so the NCL equation maps P ρ P to
    # P L(ρ) P: the state from -α is P ρ₊ P, in real arithmetic as from +α
    dim = 30
    me = _ncl_me(dim, gamma_linear=1.0, gamma_nonlinear=0.2)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 8)])
    plus = evolve.propagate(me, fock.pure_density(fock.coherent_state(2.0, dim)), grid)
    minus = evolve.propagate(me, fock.pure_density(fock.coherent_state(-2.0, dim)), grid)
    assert all(block.dtype == np.float64 for block in minus.states.blocks)
    sign = (-1.0) ** np.arange(dim)
    for x, y in zip(plus.states, minus.states):
        assert np.abs(sign[:, None] * x * sign - y).max() <= 1e-15


def test_complex_path_matches_real_path():
    # e^{0.7i}·a·f(a†a) is the same channel; its rounding-level imaginary
    # parts make the generator complex128, so the stepper runs in complex
    dim = 20
    op = gadgets.ncl_lindblad(gadgets.NonlinearFunction.from_name("x-1"), dim)
    real_me = lv.MasterEquation(dim, gamma_linear=1.0, gamma_nonlinear=0.3, nonlinear_op=op)
    rotated = lv.MasterEquation(
        dim, gamma_linear=1.0, gamma_nonlinear=0.3, nonlinear_op=np.exp(0.7j) * op
    )
    assert real_me.generator.dtype == np.float64
    assert rotated.generator.dtype == np.complex128
    rho0 = fock.pure_density(fock.coherent_state(1.5, dim))
    grid = np.linspace(0.0, 0.5, 11)
    a = evolve.propagate(real_me, rho0, grid)
    b = evolve.propagate(rotated, rho0, grid)
    for x, y in zip(a.states, b.states):
        assert x.dtype == y.dtype == np.complex128
        assert np.abs(x - y).max() <= 1e-10


@pytest.mark.parametrize("preset", ["fig1a", "fig1b", "fig1c", "fig1d"])
def test_preset_propagation_runs_in_real_arithmetic(preset):
    config = scenarios.expand_preset(preset)[0][1]
    cfg = scenarios.resolve_point(config, config.sweep.values[0])
    me, _, _ = scenarios.build_system(cfg)
    rho0 = scenarios._parse_state(cfg.initial, cfg.dim)
    eng = evolve._Engine(me, rho0, 0.0, cfg.solver.tol)
    assert eng.yb.dtype == eng.v.dtype == np.float64
    traj = evolve.propagate(me, rho0, np.linspace(0.0, 0.05, 3), tol=cfg.solver.tol)
    assert all(block.dtype == np.float64 for block in traj.states.blocks)


@pytest.mark.parametrize("spec", ["coherent:2", "fock:3", "vacuum"])
def test_initial_window_drops_the_empty_top_rows(spec):
    config = scenarios.expand_preset("fig1c")[0][1]  # NCL at dim 130, pure-lowering
    me, _, _ = scenarios.build_system(config)
    rho0 = scenarios._parse_state(spec, config.dim)
    want = next(k for k in range(2, config.dim + 1) if (np.abs(rho0[k:]) < 1e-14).all())
    eng = evolve._Engine(me, rho0, 0.0, config.solver.tol)
    assert eng.k_active == want < config.dim
    state = evolve._padded(eng.yb, config.dim)
    assert np.array_equal(state[:want, :want], rho0[:want, :want])
    assert np.abs(state - rho0).max() < 1e-14


def test_solver_stats_count_the_work():
    me = _ncl_me(16, gamma_linear=0.5, gamma_nonlinear=0.3)
    rho0 = fock.pure_density(fock.coherent_state(1.0, 16))
    grid = np.linspace(0.0, 1.0, 5)
    stats = evolve.propagate(me, rho0, grid).stats
    # a full basis costs KRYLOV_DIM products and ‖L v_{m+1}‖ one more; a
    # rejected substep retries on the same basis and costs none
    assert stats.max_krylov_dim == evolve.KRYLOV_DIM
    assert stats.substeps >= 4 and stats.rejected_substeps >= 0
    assert stats.matvecs == stats.substeps * (evolve.KRYLOV_DIM + 1)
    assert 2 <= stats.min_k_active < 16


def test_grid_validation():
    me = lv.MasterEquation(4, gamma_linear=1.0)
    rho0 = fock.pure_density(fock.fock_state(0, 4))
    with pytest.raises(InvalidStateError):
        evolve.propagate(me, rho0, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(InvalidStateError):
        evolve.propagate(me, rho0, np.array([]))


def test_long_propagation_reaches_vacuum_under_pure_loss():
    me = lv.MasterEquation(18, gamma_linear=1.0)
    rho0 = fock.pure_density(fock.coherent_state(1.2, 18))
    rho = evolve.propagate(me, rho0, [0.0, 50.0]).states[-1]
    assert generator_residual(me, rho) < 1e-10
    vac = fock.pure_density(fock.fock_state(0, 18))
    assert np.abs(rho - vac).max() <= 1e-8


def test_long_propagation_reaches_thermal_detailed_balance():
    nbar = 0.4
    me = lv.MasterEquation(24, gamma_linear=1.0, nbar=nbar)
    rho0 = fock.pure_density(fock.fock_state(0, 24))
    rho = evolve.propagate(me, rho0, [0.0, 50.0]).states[-1]
    # the residual cannot fall far below the integrator's local-error floor
    # (~||L|| * tol); 1e-9 is comfortably reachable
    assert generator_residual(me, rho) < 1e-9
    p = np.real(np.diag(rho))
    r = nbar / (nbar + 1.0)
    expected = (1 - r) * r ** np.arange(24)
    assert np.abs(p - expected / expected.sum()).max() <= 1e-6


def test_cross_solver_agreement(driven_ncl_steady):
    # driven NCL: long-time integration against the null-space solution
    rho_ns, rho, residual = driven_ncl_steady
    assert residual < 1e-9
    assert trace_distance(rho, rho_ns) <= 1e-7


BLAS_INI = """
[system]
dim = 48
gamma_linear = 1.0
nbar = 0.5
omega = 1.5

[initial]
state = coherent:1.5

[solver]
method = propagate
t_grid = log:1e-3:1.0:20

[output]
directory = {outdir}
basename = blas
svg = false
"""


def test_results_do_not_depend_on_blas_threads(tmp_path):
    # not pure-lowering, so the block stays 48×48 and each stage product is a
    # 7×2304 matrix-vector product, large enough for BLAS to split it
    src = os.path.dirname(os.path.dirname(os.path.abspath(evolve.__file__)))
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads{threads}"
        path = tmp_path / f"blas{threads}.ini"
        path.write_text(BLAS_INI.format(outdir=outdir), encoding="utf-8")
        env = dict(
            os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, NCLSIM_WORKERS="1"
        )
        subprocess.run(
            [sys.executable, "-m", "nclsim.cli", "evolve", str(path)],
            capture_output=True, check=True, env=env,
        )
        outputs.append(sorted(outdir.glob("*.csv")))
    assert [p.name for p in outputs[0]] == [p.name for p in outputs[1]] != []
    for a, b in zip(*outputs):
        assert a.read_bytes() == b.read_bytes()


WINDOWED_NCL_INI = """
[system]
dim = 130
gamma_linear = 1.0
gamma_nonlinear = 0.2

[gadget]
kind = ncl
f = x-1

[initial]
state = coherent:4.0

[solver]
method = propagate
t_grid = log:1e-4:0.3:12

[output]
directory = {outdir}
basename = blas
svg = false
"""

PROJECTOR_INI = """
[system]
dim = 160
gamma_linear = 1.0
gamma_nonlinear = 0.2

[gadget]
kind = projector
target = fock:2
source = coherent:2.0
k = 2

[initial]
state = coherent:2.0

[solver]
method = propagate
t_grid = log:1e-3:1.0:12

[output]
directory = {outdir}
basename = blas
svg = false
"""


@pytest.mark.parametrize(
    "ini",
    [
        # the transient workload's equation at dim 130: ρ₀'s window is 77×77
        # and shrinks, and Gram–Schmidt takes its products with 2-20 rows to BLAS
        pytest.param(WINDOWED_NCL_INI, id="windowed-ncl-130"),
        # no window: the block stays 160×160, long enough that Gram–Schmidt
        # splits its BLAS products into column slices
        pytest.param(PROJECTOR_INI, id="projector-160"),
    ],
)
def test_propagation_does_not_depend_on_blas_threads(tmp_path, ini):
    src = os.path.dirname(os.path.dirname(os.path.abspath(evolve.__file__)))
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads{threads}"
        path = tmp_path / f"blas{threads}.ini"
        path.write_text(ini.format(outdir=outdir), encoding="utf-8")
        env = dict(
            os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, NCLSIM_WORKERS="1"
        )
        subprocess.run(
            [sys.executable, "-m", "nclsim.cli", "evolve", str(path)],
            capture_output=True, check=True, env=env,
        )
        outputs.append(sorted(outdir.glob("*.csv")))
    assert [p.name for p in outputs[0]] == [p.name for p in outputs[1]] != []
    for a, b in zip(*outputs):
        assert a.read_bytes() == b.read_bytes()


# -- projector-gadget decay fitting -----------------------------------------


@pytest.fixture(scope="module")
def gadget_trajectory():
    dim = 48
    src = fock.coherent_state(2.5, dim)
    g = gadgets.ProjectorGadget(fock.fock_state(2, dim), src, 2)
    op = g.operator
    me = lv.MasterEquation(dim, gamma_nonlinear=1.0, nonlinear_op=op)
    traj = evolve.propagate(me, fock.pure_density(src), np.linspace(0.0, 0.5, 260))
    return traj, g


def test_decay_rate_within_factor_two(gadget_trajectory):
    traj, g = gadget_trajectory
    rate = theory.decay_rate_fit(traj, g)
    ge = theory.gamma_eff(g, 1.0)
    assert 0.5 <= rate / ge <= 2.0


def test_residual_at_time_zero_definition(gadget_trajectory):
    traj, g = gadget_trajectory
    eps = theory.projector_residuals(traj, g)
    p = g.projector
    c0 = float(np.real(np.trace(p @ traj.states[0])))
    direct = np.linalg.norm(
        p @ traj.states[0] @ p - c0 * np.outer(g.complement, g.complement.conj())
    )
    assert eps[0] == pytest.approx(direct, rel=1e-12)


def test_residual_monotone_after_transient(gadget_trajectory):
    traj, g = gadget_trajectory
    eps = theory.projector_residuals(traj, g)
    tail = eps[5:]
    tail = tail[tail > 1e-12]  # below that, integrator noise dominates
    assert np.all(np.diff(tail) <= tail[:-1] * 1e-6 + 1e-12)


def test_decay_fit_needs_window(gadget_trajectory):
    traj, g = gadget_trajectory
    with pytest.raises(InsufficientDecayError):
        theory.decay_rate_fit(traj, g, window=(1e-30, 1e-28))


# -- the Krylov stepper's parts against scipy --------------------------------


def _arnoldi_hessenberg():
    # the augmented Hessenberg matrix of one substep of a dim-24 NCL equation
    me = _ncl_me(24, gamma_linear=1.0, gamma_nonlinear=0.2, omega=0.5)
    rho0 = fock.pure_density(fock.coherent_state(2.0, 24))
    eng = evolve._Engine(me, rho0, 0.0, evolve.DEFAULT_TOL)
    _, hbar, _ = eng._arnoldi()
    return hbar


# (‖A‖₁, the Padé degree it takes): one inside the range of each degree, and
# two above θ₁₃, where A is scaled by 2⁻ˢ and the result squared s times
PADE_CASES = ((0.01, 3), (0.2, 5), (0.9, 7), (2.0, 9), (5.0, 13), (40.0, 13), (700.0, 13))


@pytest.mark.parametrize("kind", ["real", "complex", "arnoldi"])
@pytest.mark.parametrize("norm, degree", PADE_CASES)
def test_pade_exponential_matches_scipy(kind, norm, degree):
    from scipy.linalg import expm

    theta = evolve._THETA
    assert degree == min(m for m in theta if norm <= theta[m] or m == 13)
    squared = norm > theta[13]
    rng = np.random.default_rng(int(norm * 100))
    if kind == "arnoldi":
        a = _arnoldi_hessenberg()
    else:
        a = rng.normal(size=(22, 22))
        if kind == "complex":
            a = a + 1j * rng.normal(size=(22, 22))
        a = np.triu(a, -1)
    a = a * (norm / np.abs(a).sum(axis=0).max())
    want = expm(a)
    # squaring multiplies the rounding of the scaled exponential by up to ‖e^A‖
    bound = 1e-11 if squared else 1e-14
    assert np.abs(evolve._expm(a) - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("norm", [norm for norm, _ in PADE_CASES])
def test_batched_pade_exponential_matches_scipy(norm):
    # the grid times of a substep: exp(c·a) for scales c in (0, 1], with the
    # degree and scaling of exp(a), in a batch larger than one call takes
    from scipy.linalg import expm

    a = _arnoldi_hessenberg()
    a = a * (norm / np.abs(a).sum(axis=0).max())
    rng = np.random.default_rng(int(norm * 100))
    scales = np.concatenate([[1e-9, 1e-3, 1.0], rng.uniform(1e-6, 1.0, evolve.PADE_BATCH)])
    got = evolve._expm(a, scales)
    assert got.shape == (scales.size, *a.shape)
    bound = 1e-11 if norm > evolve._THETA[13] else 1e-14
    for c, r in zip(scales, got):
        want = expm(c * a)
        assert np.abs(r - want).max() <= bound * np.abs(want).max()


def _propagation_case(kind, dim, gamma_linear, gamma_nonlinear, param, alpha, t_end):
    """(equation, ρ₀, grid) of one kind: ``param`` is n̄ (thermal), the
    source amplitude of the gadget (projector) or Ω (driven), and unused
    otherwise; ρ₀ is the coherent state of amplitude ``alpha``."""
    if kind == "thermal":
        me = lv.MasterEquation(dim, gamma_linear=gamma_linear, nbar=param)
    elif kind == "projector":
        me = _projector_me(dim, 2, param, 2, gamma_linear)
    else:
        op = gadgets.ncl_lindblad(gadgets.NonlinearFunction.from_name("x-1"), dim)
        me = lv.MasterEquation(
            dim,
            gamma_linear=gamma_linear,
            gamma_nonlinear=gamma_nonlinear,
            omega=param if kind == "driven" else 0.0,
            nonlinear_op=np.exp(0.7j) * op if kind == "rotated" else op,
        )
    rho0 = fock.pure_density(fock.coherent_state(alpha, dim))
    return me, rho0, np.linspace(0.0, t_end, 4)


# per dim, the largest projector source amplitude on a 0.005 grid in [0.3, 1]
# that the gadget's cutoff guard accepts: it needs the top k = 2 amplitudes
# below 1e-10, which a Poisson weight below 1e-20 from n = dim - 2 up ensures
_SOURCE_MAX = {
    dim: max(a for a in np.linspace(0.3, 1.0, 141) if theory.coherent_min_dim(a, 1e-20) <= dim - 2)
    for dim in range(16, 31)
}

_CASE_PARAMS = {
    "thermal": lambda dim: st.floats(0.01, 0.3),
    "projector": lambda dim: st.floats(0.3, _SOURCE_MAX[dim]),
    "driven": lambda dim: st.floats(-1.0, 1.0),
}


@st.composite
def _propagation_cases(draw, kind):
    """(equation, ρ₀, grid) of one kind at dim 16-30: NCL (pure-lowering, so
    windowed), driven NCL, thermal, projector or phase-rotated NCL (a complex
    generator), from a coherent state whose amplitude may be complex (a
    complex ρ₀)."""
    dim = draw(st.integers(16, 30))
    gamma_linear = draw(st.floats(0.1, 2.0))
    gamma_nonlinear = draw(st.floats(0.02, 0.2))
    param = draw(_CASE_PARAMS[kind](dim)) if kind in _CASE_PARAMS else 0.0
    alpha = draw(st.floats(0.2, 1.0)) * np.exp(1j * draw(st.sampled_from([0.0, 0.9])))
    return _propagation_case(
        kind, dim, gamma_linear, gamma_nonlinear, param, alpha, draw(st.floats(0.05, 0.3))
    )


# one pinned case of each kind, whatever the derandomized draws are
_PINNED_CASES = {
    "ncl": (30, 2.0, 0.2, 0.0, 1.0, 0.3),
    "driven": (20, 0.1, 0.02, -1.0, 0.9 * np.exp(0.9j), 0.3),
    "thermal": (16, 2.0, 0.0, 0.3, 1.0, 0.3),
    "projector": (24, 0.1, 0.0, 1.0, 0.2 * np.exp(0.9j), 0.05),
    "rotated": (18, 0.5, 0.2, 0.0, np.exp(0.9j), 0.3),
}


@pytest.mark.parametrize("kind", _PINNED_CASES)
def test_propagation_matches_expm_multiply_on_the_superoperator(kind):
    # an independent path: Al-Mohy & Higham's truncated Taylor action of the
    # sparse column-stacked superoperator (scipy), on the full space; six
    # generated examples of each kind, and the run fails if the body ran none
    from scipy.sparse.linalg import expm_multiply

    draws = KindDraws((kind,))

    @draws.each_drawn
    @settings(max_examples=6, deadline=None, derandomize=True)
    @example(_propagation_case(kind, *_PINNED_CASES[kind]))
    @given(_propagation_cases(kind).map(lambda case: draws.drew(kind, case)))
    def matches(case):
        me, rho0, grid = case
        traj = evolve.propagate(me, rho0, grid)
        want = expm_multiply(
            oracles.superoperator(me.generator).tocsc(), oracles.vec(rho0),
            start=grid[0], stop=grid[-1], num=grid.size, endpoint=True,
        )
        for state, v in zip(traj.states, want):
            # the local error bound, 1.2·tol per unit time over at most 0.3, and rounding
            assert np.abs(state - oracles.unvec(v, me.dim)).max() <= 1e-12

    matches()


def test_broken_down_substep_reads_a_long_grid_in_capped_batches(monkeypatch):
    # at dim 4 the real block has 16 entries, so the basis spans the whole
    # space and breaks down: one substep covers every grid time, more of
    # them than one Padé call takes
    from scipy.sparse.linalg import expm_multiply

    batches, expm = [], evolve._expm

    def counted(a, scales=None):
        batches.append(None if scales is None else len(scales))
        return expm(a, scales)

    monkeypatch.setattr(evolve, "_expm", counted)
    me = _ncl_me(4, gamma_linear=1.0, gamma_nonlinear=0.3)
    rho0 = fock.pure_density(np.full(4, 0.5))
    grid = np.linspace(0.0, 3.0, 3 * evolve.PADE_BATCH + 6)
    traj = evolve.propagate(me, rho0, grid)
    assert traj.stats.substeps == 1
    # the whole substep, then the grid times inside it, at most PADE_BATCH at once
    assert batches == [None] + [evolve.PADE_BATCH] * 3 + [4]
    want = expm_multiply(
        oracles.superoperator(me.generator).tocsc(), oracles.vec(rho0),
        start=grid[0], stop=grid[-1], num=grid.size, endpoint=True,
    )
    for state, v in zip(traj.states, want):
        assert np.abs(state - oracles.unvec(v, me.dim)).max() <= 1e-12
