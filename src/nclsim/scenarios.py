"""Named experiment presets, generic sweeps, and solver orchestration.

A ScenarioConfig is a complete declarative description of one experiment:
system rates, the engineered-dissipation gadget, the initial state, the
solver, an optional one-parameter sweep, and what to record.  Presets are
pure data: running a preset is exactly running :func:`run_sweep` on its
expanded configs (one per curve family), so everything a preset does can be
reproduced from a config file.

Sweep points are independent and may execute in parallel (worker count from
the NCLSIM_WORKERS environment variable); results are assembled by index, so
the output is deterministic regardless of completion order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .errors import ConfigError, SimulationError
from .evolve import evolve_to_steady, propagate
from .fock import coherent_state, fock_state, pure_density, thermal_density
from .gadgets import NonlinearFunction, ProjectorGadget, ncl_lindblad, projector_lindblad
from .liouvillian import SUPEROPERATOR_DIM_CAP, MasterEquation
from .observables import (
    DiagonalDistribution,
    ObservableReport,
    observable_report,
    poisson_distribution,
)
from .steady import (
    approximate_steady_state,
    ncl_recurrence,
    steady_state_nullspace,
    thermal_recurrence,
)

# relative tolerance for matching distribution_at = value:<x> to a sweep value
VALUE_MATCH_RTOL = 1e-9

SWEEPABLE = (
    "alpha",
    "alpha0",
    "omega",
    "nbar",
    "epsilon",
    "gamma_linear",
    "gamma_nonlinear",
)


@dataclass(frozen=True)
class GadgetSpec:
    kind: str = "none"  # "ncl" | "projector" | "none"
    f_name: str | None = None
    f_coeffs: tuple = ()
    f_shift: float = 0.0
    f_power: int | None = None
    target: str | None = None
    source: str | None = None
    k: int = 2

    def nonlinear_function(self) -> NonlinearFunction | None:
        if self.kind != "ncl":
            return None
        if self.f_name is not None:
            return NonlinearFunction.from_name(self.f_name, power=self.f_power)
        if self.f_coeffs:
            return NonlinearFunction.from_polynomial(list(self.f_coeffs), shift=self.f_shift)
        raise ConfigError("ncl gadget needs either a preset name or polynomial coefficients")


@dataclass(frozen=True)
class SolverSpec:
    method: str = "propagate"
    t_grid: tuple = ("log", 1e-3, 1.0, 100)  # expanded with a leading t=0
    tol: float = 1e-9
    steady_tol: float = 1e-10
    t_max: float = 1000.0
    recurrence_start: int = 0


@dataclass(frozen=True)
class SweepSpec:
    parameter: str = "none"
    values: tuple = ()


@dataclass(frozen=True)
class OutputSpec:
    timeseries: bool = True
    distribution_at: str | None = None  # "max_fidelity"|"min_q"|"final"|"steady"|"value:<x>"
    poisson_reference: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dim: int
    gamma_linear: float = 0.0
    gamma_nonlinear: float = 0.0
    nbar: float = 0.0
    omega: float = 0.0
    gadget: GadgetSpec = field(default_factory=GadgetSpec)
    initial: str = "vacuum"
    solver: SolverSpec = field(default_factory=SolverSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def validate(self) -> None:
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        for name in ("gamma_linear", "gamma_nonlinear", "nbar"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.gadget.kind not in ("ncl", "projector", "none"):
            raise ConfigError(f"unknown gadget kind {self.gadget.kind!r}")
        if self.sweep.parameter != "none":
            if self.sweep.parameter not in SWEEPABLE:
                raise ConfigError(f"unknown sweep parameter {self.sweep.parameter!r}")
            if not self.sweep.values:
                raise ConfigError("sweep requested but no values given")
            if not all(np.isfinite(v) for v in self.sweep.values):
                raise ConfigError("sweep values must be finite")
        if self.solver.method not in (
            "propagate",
            "steady",
            "steady_approx",
            "recurrence_ncl",
            "recurrence_thermal",
        ):
            raise ConfigError(f"unknown solver method {self.solver.method!r}")
        how = self.output.distribution_at
        if how is not None and how.startswith("value:"):
            x = _value_target(how)
            values = self.sweep.values if self.sweep.parameter != "none" else ()
            if not any(_value_matches(x, v) for v in values):
                raise ConfigError(f"distribution_at {how!r} matches no sweep value")


def _value_target(how: str) -> float:
    try:
        return float(how.partition(":")[2])
    except ValueError as exc:
        raise ConfigError(f"distribution_at {how!r}: expected value:<number>") from exc


def _value_matches(x: float, value: float) -> bool:
    return abs(x - value) <= VALUE_MATCH_RTOL * max(abs(x), abs(value))


@dataclass
class PointResult:
    sweep_value: float
    kind: str  # "timeseries" | "steady"
    error: str | None = None
    times: np.ndarray | None = None
    reports: list | None = None
    trace_error: np.ndarray | None = None
    herm_error: np.ndarray | None = None
    min_eigenvalue: np.ndarray | None = None
    top_population: np.ndarray | None = None
    steady_report: ObservableReport | None = None
    converged: bool | None = None
    distribution: DiagonalDistribution | None = None
    distribution_label: str | None = None
    poisson_reference: DiagonalDistribution | None = None


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    points: list
    provenance: dict


# ---------------------------------------------------------------------------
# state and sweep resolution


def _parse_state(spec: str, dim: int, guard: bool = True) -> np.ndarray:
    """State spec -> density matrix: coherent:a | fock:n | thermal:n | vacuum."""
    spec = spec.strip()
    if spec == "vacuum":
        return pure_density(fock_state(0, dim))
    if ":" not in spec:
        raise ConfigError(f"malformed state spec {spec!r}")
    kind, _, arg = spec.partition(":")
    try:
        value = float(arg)
    except ValueError as exc:
        raise ConfigError(f"malformed state spec {spec!r}") from exc
    if kind == "coherent":
        return pure_density(coherent_state(value, dim, guard=guard))
    if kind == "fock":
        return pure_density(fock_state(int(value), dim))
    if kind == "thermal":
        return thermal_density(value, dim, guard=guard)
    raise ConfigError(f"unknown state kind {kind!r}")


def _parse_pure_state(spec: str, dim: int) -> np.ndarray:
    spec = spec.strip()
    if spec == "vacuum":
        return fock_state(0, dim)
    kind, _, arg = spec.partition(":")
    if kind == "fock":
        return fock_state(int(float(arg)), dim)
    if kind == "coherent":
        return coherent_state(float(arg), dim)
    raise ConfigError(f"gadget states must be pure (fock/coherent/vacuum), got {spec!r}")


def _with_amplitude(spec: str | None, value: float) -> str | None:
    if spec is None:
        return None
    if spec.startswith("coherent:"):
        return f"coherent:{value!r}"
    return spec


def resolve_point(config: ScenarioConfig, value: float) -> ScenarioConfig:
    """Apply one sweep value to the base config."""
    param = config.sweep.parameter
    if param == "none" or not np.isfinite(value):
        return config
    if param == "alpha":
        gadget = replace(config.gadget, source=_with_amplitude(config.gadget.source, value))
        return replace(config, initial=_with_amplitude(config.initial, value), gadget=gadget)
    if param == "alpha0":
        return replace(config, omega=value * config.gamma_nonlinear)
    if param == "epsilon":
        return replace(config, gamma_linear=value * config.gamma_nonlinear)
    if param in ("omega", "nbar", "gamma_linear", "gamma_nonlinear"):
        return replace(config, **{param: value})
    raise ConfigError(f"unknown sweep parameter {param!r}")


def build_system(config: ScenarioConfig):
    """MasterEquation, nonlinearity and fidelity target implied by a config."""
    dim = config.dim
    f = config.gadget.nonlinear_function()
    target = None
    if config.gadget.kind == "ncl":
        op = ncl_lindblad(f, dim)
    elif config.gadget.kind == "projector":
        if config.gadget.target is None or config.gadget.source is None:
            raise ConfigError("projector gadget needs target and source states")
        gadget = ProjectorGadget(
            _parse_pure_state(config.gadget.target, dim),
            _parse_pure_state(config.gadget.source, dim),
            config.gadget.k,
        )
        op = projector_lindblad(gadget, dim)
        target = gadget.target
    else:
        op = None
    me = MasterEquation(
        dim,
        gamma_linear=config.gamma_linear,
        gamma_nonlinear=config.gamma_nonlinear if op is not None else 0.0,
        nbar=config.nbar,
        omega=config.omega,
        nonlinear_op=op,
    )
    return me, f, target


def expand_grid(t_grid: tuple) -> np.ndarray:
    kind = t_grid[0]
    if kind == "log":
        _, lo, hi, n = t_grid
        if lo <= 0 or hi <= lo or int(n) < 2:
            raise ConfigError(f"bad log grid {t_grid!r}")
        return np.concatenate([[0.0], np.geomspace(float(lo), float(hi), int(n))])
    if kind == "lin":
        _, lo, hi, n = t_grid
        if hi <= lo or int(n) < 2:
            raise ConfigError(f"bad linear grid {t_grid!r}")
        return np.linspace(float(lo), float(hi), int(n))
    raise ConfigError(f"unknown grid kind {t_grid[0]!r}")


# ---------------------------------------------------------------------------
# single-point execution


def _select_distribution(out: OutputSpec, reports, times, sweep_value):
    how = out.distribution_at
    if how is None:
        return None, None
    if how == "max_fidelity":
        fids = [(-1.0 if r.fidelity is None else r.fidelity) for r in reports]
        i = int(np.argmax(fids))
        return reports[i].distribution, f"t={float(times[i])!r}"
    if how == "min_q":
        qs = [r.mandel_q if np.isfinite(r.mandel_q) else np.inf for r in reports]
        i = int(np.argmin(qs))
        return reports[i].distribution, f"t={float(times[i])!r}"
    if how == "final":
        return reports[-1].distribution, f"t={float(times[-1])!r}"
    raise ConfigError(f"distribution_at {how!r} not valid for time series")


def _steady_distribution_wanted(out: OutputSpec, sweep_value: float) -> bool:
    how = out.distribution_at
    if how is None:
        return False
    if how == "steady":
        return True
    if how.startswith("value:"):
        return _value_matches(_value_target(how), sweep_value)
    raise ConfigError(f"distribution_at {how!r} not valid for steady solves")


def run_point(config: ScenarioConfig, value: float) -> PointResult:
    """Execute one resolved sweep point (no error isolation here)."""
    cfg = resolve_point(config, value)
    method = cfg.solver.method

    if method == "propagate":
        me, _, target = build_system(cfg)
        rho0 = _parse_state(cfg.initial, cfg.dim)
        grid = expand_grid(cfg.solver.t_grid)
        traj = propagate(me, rho0, grid, tol=cfg.solver.tol)
        reports = [observable_report(s, target=target) for s in traj.states]
        dist, label = _select_distribution(cfg.output, reports, traj.times, value)
        pois = None
        if dist is not None and cfg.output.poisson_reference:
            pois = poisson_distribution(dist.mean(), dist.dim)
        return PointResult(
            sweep_value=value,
            kind="timeseries",
            times=traj.times,
            reports=reports,
            trace_error=traj.trace_error,
            herm_error=traj.herm_error,
            min_eigenvalue=traj.min_eigenvalue,
            top_population=traj.top_population,
            distribution=dist,
            distribution_label=label,
            poisson_reference=pois,
        )

    if method in ("steady", "steady_approx"):
        me, f, target = build_system(cfg)
        if method == "steady_approx":
            if f is None:
                raise ConfigError("steady_approx needs an ncl gadget")
            rho = approximate_steady_state(me, f)
            converged = True
        elif cfg.dim <= SUPEROPERATOR_DIM_CAP:
            rho = steady_state_nullspace(me)
            converged = True
        else:
            res = evolve_to_steady(
                me,
                _parse_state(cfg.initial, cfg.dim),
                tol=cfg.solver.steady_tol,
                t_max=cfg.solver.t_max,
                step_tol=cfg.solver.tol,
            )
            rho, converged = res.rho, res.converged
        report = observable_report(rho, target=target)
        dist = report.distribution if _steady_distribution_wanted(cfg.output, value) else None
        return PointResult(
            sweep_value=value,
            kind="steady",
            steady_report=report,
            converged=bool(converged),
            distribution=dist,
            distribution_label="steady" if dist is not None else None,
        )

    if method in ("recurrence_ncl", "recurrence_thermal"):
        f = cfg.gadget.nonlinear_function()
        if f is None:
            raise ConfigError("recurrence methods need an ncl gadget")
        if method == "recurrence_ncl":
            if cfg.gamma_nonlinear <= 0:
                raise ConfigError("recurrence_ncl needs gamma_nonlinear > 0")
            alpha0 = cfg.omega / cfg.gamma_nonlinear
            epsilon = cfg.gamma_linear / cfg.gamma_nonlinear
            dist = ncl_recurrence(
                f, alpha0, epsilon, cfg.dim, start=cfg.solver.recurrence_start
            )
        else:
            if cfg.gamma_linear <= 0:
                raise ConfigError("recurrence_thermal needs gamma_linear > 0")
            dist = thermal_recurrence(
                f, cfg.nbar, cfg.gamma_nonlinear / cfg.gamma_linear, cfg.dim
            )
        try:
            q = dist.mandel_q()
        except SimulationError:
            q = float("nan")
        report = ObservableReport(
            mean_n=dist.mean(),
            variance_n=dist.variance(),
            mandel_q=q,
            purity=float(np.sum(dist.probabilities**2)),  # purity of the diagonal ansatz
            distribution=dist,
        )
        wanted = _steady_distribution_wanted(cfg.output, value)
        return PointResult(
            sweep_value=value,
            kind="steady",
            steady_report=report,
            converged=True,
            distribution=dist if wanted else None,
            distribution_label="recurrence" if wanted else None,
        )

    raise ConfigError(f"unknown solver method {method!r}")


def preflight(config: ScenarioConfig) -> None:
    """Config-level and guard-level checks for every sweep point, no solving.

    Builds the nonlinearity, gadget and master equation, constructs the
    initial state (which runs the truncation guards) and expands the time
    grid, for each resolved sweep point.
    """
    config.validate()
    values = list(config.sweep.values) if config.sweep.parameter != "none" else [float("nan")]
    for v in values:
        cfg = resolve_point(config, float(v))
        build_system(cfg)
        if cfg.solver.method == "propagate":
            _parse_state(cfg.initial, cfg.dim)
            expand_grid(cfg.solver.t_grid)
        elif cfg.solver.method == "steady" and cfg.dim > SUPEROPERATOR_DIM_CAP:
            _parse_state(cfg.initial, cfg.dim)


def _run_point_isolated(args) -> PointResult:
    config, value = args
    try:
        return run_point(config, value)
    except (SimulationError, ConfigError) as exc:
        return PointResult(sweep_value=value, kind="error", error=f"{type(exc).__name__}: {exc}")


def _worker_count(n_points: int, workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("NCLSIM_WORKERS", "").strip()
        if not env:
            workers = os.cpu_count() or 1
        elif env.isdecimal() and int(env) >= 1:
            workers = int(env)
        else:
            raise ConfigError(f"NCLSIM_WORKERS must be an integer >= 1, got {env!r}")
    return max(1, min(int(workers), n_points))


def run_sweep(config: ScenarioConfig, workers: int | None = None) -> ScenarioResult:
    """Run every sweep point of a config; per-point failures are isolated."""
    config.validate()
    values = list(config.sweep.values) if config.sweep.parameter != "none" else [float("nan")]
    jobs = [(config, float(v)) for v in values]
    n = _worker_count(len(jobs), workers)
    if n > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            points = list(pool.map(_run_point_isolated, jobs))
    else:
        points = [_run_point_isolated(j) for j in jobs]
    provenance = {
        "version": __version__,
        "config": asdict(config),
        "tolerances": {
            "solver_tol": config.solver.tol,
            "steady_tol": config.solver.steady_tol,
        },
    }
    return ScenarioResult(config=config, points=points, provenance=provenance)


# ---------------------------------------------------------------------------
# figure presets

_ALPHA0_GRID = tuple(np.geomspace(1.0, 150.0, 25))


def _fig1_projector(name: str, output: OutputSpec) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        dim=90,
        gamma_linear=1.0,
        gamma_nonlinear=0.2,  # engineered loss five times weaker than linear loss
        gadget=GadgetSpec(kind="projector", target="fock:2", source="coherent:2", k=2),
        initial="coherent:2",
        solver=SolverSpec(method="propagate", t_grid=("log", 1e-3, 3.0, 220)),
        sweep=SweepSpec("alpha", (2.0, 3.0, 4.0, 5.0)),
        output=output,
    )


def _fig1_ncl(name: str, sweep_values: tuple, output: OutputSpec) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        dim=130,
        gamma_linear=1.0,
        gamma_nonlinear=0.2,
        gadget=GadgetSpec(kind="ncl", f_name="x-1"),
        initial="coherent:2",
        solver=SolverSpec(method="propagate", t_grid=("log", 1e-5, 1.0, 200)),
        sweep=SweepSpec("alpha", sweep_values),
        output=output,
    )


def _fig2_steady(name: str, f_name: str, eps: float, method: str) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        dim=64,
        gamma_linear=eps,
        gamma_nonlinear=1.0,
        gadget=GadgetSpec(kind="ncl", f_name=f_name),
        initial="vacuum",
        solver=SolverSpec(method=method),
        sweep=SweepSpec("alpha0", _ALPHA0_GRID),
        output=OutputSpec(timeseries=False, distribution_at="value:150.0"),
    )


def expand_preset(name: str):
    """Preset -> ordered list of (family label, ScenarioConfig)."""
    if name == "fig1a":
        return [("main", _fig1_projector("fig1a", OutputSpec(timeseries=True)))]
    if name == "fig1b":
        return [
            (
                "main",
                _fig1_projector(
                    "fig1b", OutputSpec(timeseries=False, distribution_at="max_fidelity")
                ),
            )
        ]
    if name == "fig1c":
        return [("main", _fig1_ncl("fig1c", (2.0, 4.0, 6.0, 8.0), OutputSpec(timeseries=True)))]
    if name == "fig1d":
        return [
            (
                "main",
                _fig1_ncl(
                    "fig1d",
                    (8.0,),
                    OutputSpec(
                        timeseries=False,
                        distribution_at="min_q",
                        poisson_reference=True,
                    ),
                ),
            )
        ]
    if name == "fig2a":
        return [
            (f"eps{int(e)}", _fig2_steady("fig2a", "x-1", e, "steady")) for e in (1.0, 5.0, 10.0)
        ]
    if name == "fig2b":
        return [
            ("exact", _fig2_steady("fig2b", "x-1", 1.0, "steady")),
            ("approx", _fig2_steady("fig2b", "x-1", 1.0, "steady_approx")),
        ]
    if name == "fig2c":
        return [
            ("exact", _fig2_steady("fig2c", "(x-1)^2", 1.0, "steady")),
            ("approx", _fig2_steady("fig2c", "(x-1)^2", 1.0, "steady_approx")),
        ]
    if name == "fig2d":
        config = ScenarioConfig(
            name="fig2d",
            dim=48,
            gamma_linear=1.0,
            gamma_nonlinear=0.2,
            gadget=GadgetSpec(kind="ncl", f_name="(x-1)^3"),
            initial="vacuum",
            solver=SolverSpec(method="steady"),
            sweep=SweepSpec("nbar", tuple(np.arange(1, 41) * 0.25)),
            output=OutputSpec(timeseries=False),
        )
        return [("main", config)]
    raise ConfigError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig2c", "fig2d")


def apply_overrides(config: ScenarioConfig, overrides: dict | None) -> ScenarioConfig:
    """Apply CLI-style key=value overrides to a config."""
    if not overrides:
        return config
    cfg = config
    for key, raw in overrides.items():
        if key == "dim":
            cfg = replace(cfg, dim=int(raw))
        elif key in ("gamma_linear", "gamma_nonlinear", "nbar", "omega"):
            cfg = replace(cfg, **{key: float(raw)})
        elif key == "tol":
            cfg = replace(cfg, solver=replace(cfg.solver, tol=float(raw)))
        elif key == "t_max":
            cfg = replace(cfg, solver=replace(cfg.solver, t_max=float(raw)))
        elif key == "values":
            vals = tuple(float(v) for v in str(raw).split(",") if v.strip())
            cfg = replace(cfg, sweep=replace(cfg.sweep, values=vals))
        else:
            raise ConfigError(f"unknown override key {key!r}")
    return cfg


def run_preset(name: str, overrides: dict | None = None, workers: int | None = None) -> dict:
    """Run a figure preset; returns an ordered {family label: ScenarioResult}."""
    families = expand_preset(name)
    out = {}
    for label, config in families:
        out[label] = run_sweep(apply_overrides(config, overrides), workers=workers)
    return out
