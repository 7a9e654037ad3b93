"""Named experiment presets, generic sweeps, and solver orchestration.

A ScenarioConfig is a complete declarative description of one experiment:
system rates, the engineered-dissipation gadget, the initial state, the
solver, an optional one-parameter sweep, and what to record.  Presets are
pure data: running a preset is exactly running :func:`run_sweep` on its
expanded configs (one per curve family), so everything a preset does can be
reproduced from a config file.

:data:`METHODS` states each solver method once: its family (evolve, steady
or recurrence, also the subcommand that runs it), whether it needs an ncl
gadget, and its rate needs.  Validation, point execution and the CLI read it.

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
from .errors import ConfigError, InvalidStateError, SimulationError
from .evolve import DEFAULT_TOL, SolverStats, propagate
from .fock import coherent_state, fock_state, pure_density, thermal_density
from .gadgets import NonlinearFunction, ProjectorGadget, ncl_lindblad
from .liouvillian import MasterEquation
from .observables import (
    DiagonalDistribution,
    ObservableReport,
    distribution_report,
    observable_report,
    poisson_distribution,
)
from .steady import (
    SPARSE_DIM_CAP,
    LUStats,
    approximate_steady_state,
    ncl_recurrence,
    steady_state_nullspace,
    thermal_recurrence,
)

# relative tolerance for matching distribution_at = value:<x> to a sweep value
VALUE_MATCH_RTOL = 1e-9
# largest n of a range spec (t_grid and sweep values): each grid point records
# a state and each sweep value is a solve, so a larger n is a typo, not a run;
# 450× the largest preset grid (fig1a and fig1b, 221 points)
MAX_RANGE_POINTS = 100_000

SWEEPABLE = (
    "alpha",
    "alpha0",
    "omega",
    "nbar",
    "epsilon",
    "gamma_linear",
    "gamma_nonlinear",
)
# solver method -> (family, needs an ncl gadget, rate needs); a rate need is
# (rate, whether the method needs it zero rather than positive)
METHODS = {
    "propagate": ("evolve", False, ()),
    "steady": ("steady", False, ()),
    "steady_approx": ("steady", True, (("gamma_nonlinear", False), ("nbar", True))),
    "recurrence_ncl": ("recurrence", True, (("gamma_nonlinear", False),)),
    "recurrence_thermal": ("recurrence", True, (("gamma_linear", False), ("nbar", False))),
}


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
            return NonlinearFunction(self.f_coeffs, self.f_shift)
        raise ConfigError("ncl gadget needs either a preset name or polynomial coefficients")


@dataclass(frozen=True)
class SolverSpec:
    method: str = "propagate"
    t_grid: tuple = ("log", 1e-3, 1.0, 100)  # expanded with a leading t=0
    tol: float = DEFAULT_TOL
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
        if not (np.isfinite(self.solver.tol) and self.solver.tol > 0):
            raise ConfigError(f"tol must be finite and > 0, got {self.solver.tol!r}")
        g = self.gadget
        if g.kind not in ("ncl", "projector", "none"):
            raise ConfigError(f"unknown gadget kind {g.kind!r}")
        ncl, coeffs = g.kind == "ncl", g.kind == "ncl" and g.f_name is None
        keys = (  # (key, whether it is set, whether this gadget reads it)
            ("f", g.f_name is not None, ncl),
            ("f_coeffs", bool(g.f_coeffs), coeffs),
            ("f_power", g.f_power is not None, ncl and g.f_name == "x^k"),
            ("f_shift", g.f_shift != 0.0, coeffs),
            ("target", g.target is not None, g.kind == "projector"),
            ("source", g.source is not None, g.kind == "projector"),
        )
        unread = [key for key, given, read in keys if given and not read]
        if unread:
            raise ConfigError(f"{g.kind} gadget does not read {', '.join(unread)}")
        if self.sweep.parameter != "none":
            if self.sweep.parameter not in SWEEPABLE:
                raise ConfigError(f"unknown sweep parameter {self.sweep.parameter!r}")
            if not self.sweep.values:
                raise ConfigError("sweep requested but no values given")
            if not all(np.isfinite(v) for v in self.sweep.values):
                raise ConfigError("sweep values must be finite")
        # the method and rates are checked on each resolved sweep point: one
        # good point makes the config good, and run_point fails the others
        first = None
        for value in _sweep_values(self):
            try:
                _check_rates(resolve_point(self, value))
                break
            except ConfigError as exc:
                first = first or exc
        else:
            raise first
        method = self.solver.method
        family, needs_ncl, _ = METHODS[method]
        if family == "steady" and self.dim > SPARSE_DIM_CAP:
            raise ConfigError(f"{method} takes dim <= {SPARSE_DIM_CAP}, got {self.dim}")
        start = self.solver.recurrence_start
        if method == "recurrence_ncl" and not 0 <= start < self.dim:
            raise ConfigError(f"recurrence_start {start} outside 0..{self.dim - 1}")
        if g.kind == "ncl":
            try:
                g.nonlinear_function()
            except InvalidStateError as exc:
                raise ConfigError(str(exc)) from exc
        elif needs_ncl:
            raise ConfigError(f"{method} needs an ncl gadget")
        if g.kind == "projector":
            if g.target is None or g.source is None:
                raise ConfigError("projector gadget needs target and source states")
            if g.k < 1:
                raise ConfigError(f"projector gadget needs k >= 1, got {g.k}")
            _state_spec(g.target, _PURE_KINDS)
            _state_spec(g.source, _PURE_KINDS)
        expand_grid(self.solver.t_grid)
        if family == "evolve":
            _state_spec(self.initial)
        how = self.output.distribution_at
        if self.output.poisson_reference and (family != "evolve" or how is None):
            raise ConfigError("poisson_reference needs method propagate and a distribution_at")
        if how is None:
            return
        if family == "evolve":
            if how not in ("max_fidelity", "min_q", "final"):
                raise ConfigError(f"distribution_at {how!r} not valid for time series")
            if how == "max_fidelity" and g.kind != "projector":
                raise ConfigError("distribution_at max_fidelity needs a projector gadget")
        elif how.startswith("value:"):
            x = _value_target(how)
            if not any(_value_matches(x, v) for v in _sweep_values(self)):
                raise ConfigError(f"distribution_at {how!r} matches no sweep value")
        elif how != "steady":
            raise ConfigError(f"distribution_at {how!r} not valid for steady solves")


def _check_rates(cfg: ScenarioConfig) -> None:
    """Refuse an unknown solver method, a rate, ``nbar`` or ``omega`` that
    is not finite, a negative rate or ``nbar``, and a rate that breaks the
    method's rate needs (``METHODS``)."""
    method = cfg.solver.method
    if method not in METHODS:
        raise ConfigError(f"unknown solver method {method!r}")
    for name in ("gamma_linear", "gamma_nonlinear", "nbar", "omega"):
        value = getattr(cfg, name)
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if value < 0 and name != "omega":
            raise ConfigError(f"{name} must be >= 0, got {value}")
    for name, zero in METHODS[method][2]:
        value = getattr(cfg, name)
        if not (value == 0 if zero else value > 0):
            raise ConfigError(f"{method} needs {name} {'= 0' if zero else '> 0'}, got {value}")


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
    distribution: DiagonalDistribution | None = None
    poisson_reference: DiagonalDistribution | None = None
    solver_stats: SolverStats | LUStats | None = None


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    points: list
    provenance: dict


# ---------------------------------------------------------------------------
# state and sweep resolution


_KINDS = ("fock", "coherent", "thermal")
_PURE_KINDS = _KINDS[:2]


def _state_spec(spec: str, kinds: tuple = _KINDS) -> tuple:
    """State spec -> (kind, value): vacuum (as fock:0) | fock:n | coherent:a
    | thermal:n̄, each with a finite number (an integer n); the kind must be
    in ``kinds``."""
    spec = spec.strip()
    kind, _, arg = ("fock:0" if spec == "vacuum" else spec).partition(":")
    try:
        value = float(arg)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value) or (kind == "fock" and not value.is_integer()):
        raise ConfigError(f"malformed state spec {spec!r}: expected vacuum or <kind>:<number>")
    if kind not in kinds:
        raise ConfigError(f"state spec {spec!r}: kind must be vacuum or one of {kinds}")
    return kind, value


def _state(spec: str, dim: int, kinds: tuple = _KINDS) -> np.ndarray:
    """State spec -> state vector (fock, coherent) or density matrix (thermal)."""
    kind, value = _state_spec(spec, kinds)
    if kind == "thermal":
        return thermal_density(value, dim)
    return fock_state(value, dim) if kind == "fock" else coherent_state(value, dim)


def _parse_state(spec: str, dim: int) -> np.ndarray:
    """State spec -> density matrix (see :func:`_state_spec`)."""
    state = _state(spec, dim)
    return state if state.ndim == 2 else pure_density(state)


def _with_amplitude(spec: str | None, value: float) -> str | None:
    if spec is None:
        return None
    if spec.startswith("coherent:"):
        return f"coherent:{value!r}"
    return spec


def _sweep_values(config: ScenarioConfig) -> list:
    """The values a config runs at: its sweep values, or one NaN (no sweep)."""
    return list(config.sweep.values) if config.sweep.parameter != "none" else [float("nan")]


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
    return replace(config, **{param: value})  # omega, nbar, gamma_linear or gamma_nonlinear


def build_system(config: ScenarioConfig):
    """MasterEquation, nonlinearity and fidelity target implied by a config."""
    dim = config.dim
    f = config.gadget.nonlinear_function()
    target = None
    if config.gadget.kind == "ncl":
        op = ncl_lindblad(f, dim)
    elif config.gadget.kind == "projector":
        gadget = ProjectorGadget(
            _state(config.gadget.target, dim, _PURE_KINDS),
            _state(config.gadget.source, dim, _PURE_KINDS),
            config.gadget.k,
        )
        op = gadget.operator
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


def parse_values(raw: str) -> tuple:
    """Sweep values: comma-separated numbers, or geom:lo:hi:n / lin:lo:hi:n."""
    raw = raw.strip()
    kind, _, rest = raw.partition(":")
    if kind not in ("geom", "lin"):
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"could not parse sweep values {raw!r}") from exc
    bad = ConfigError(f"range spec {raw!r} must be {kind}:lo:hi:n with n >= 1 (geom: lo·hi > 0)")
    try:
        lo, hi, n = rest.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise bad from exc
    if n < 1 or (kind == "geom" and not lo * hi > 0):
        raise bad
    _check_range_count(raw, n)
    fn = np.geomspace if kind == "geom" else np.linspace
    return tuple(float(v) for v in fn(lo, hi, n))


def _check_range_count(spec, n: int):
    if n > MAX_RANGE_POINTS:
        raise ConfigError(f"range spec {spec!r}: n must be at most {MAX_RANGE_POINTS}")


def expand_grid(t_grid: tuple) -> np.ndarray:
    kind, lo, hi, n = t_grid
    if kind not in ("log", "lin"):
        raise ConfigError(f"unknown grid kind {kind!r}")
    _check_range_count(t_grid, int(n))
    if not (0 if kind == "log" else -np.inf) < lo < hi < np.inf or int(n) < 2:
        raise ConfigError(f"bad {'log' if kind == 'log' else 'linear'} grid {t_grid!r}")
    if kind == "log":
        return np.concatenate([[0.0], np.geomspace(float(lo), float(hi), int(n))])
    return np.linspace(float(lo), float(hi), int(n))


# ---------------------------------------------------------------------------
# single-point execution


def _distribution_at(out: OutputSpec, reports: list, sweep_value: float):
    """The distribution ``out.distribution_at`` picks from a point's reports
    (a stationary point passes its one report), or None."""
    how = out.distribution_at
    if how is None:
        return None
    if how == "max_fidelity":
        fids = [(-1.0 if r.fidelity is None else r.fidelity) for r in reports]
        return reports[int(np.argmax(fids))].distribution
    if how == "min_q":
        qs = [r.mandel_q if np.isfinite(r.mandel_q) else np.inf for r in reports]
        return reports[int(np.argmin(qs))].distribution
    if how.startswith("value:") and not _value_matches(_value_target(how), sweep_value):
        return None
    return reports[-1].distribution  # "final", "steady" or the matching "value:<x>"


def run_point(config: ScenarioConfig, value: float) -> PointResult:
    """Execute one resolved sweep point (no error isolation here)."""
    cfg = resolve_point(config, value)
    _check_rates(cfg)
    method = cfg.solver.method
    family = METHODS[method][0]

    if family == "evolve":
        me, _, target = build_system(cfg)
        rho0 = _parse_state(cfg.initial, cfg.dim)
        grid = expand_grid(cfg.solver.t_grid)
        traj = propagate(me, rho0, grid, tol=cfg.solver.tol)
        reports = [observable_report(s, target=target) for s in traj.states]
        dist = _distribution_at(cfg.output, reports, value)
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
            poisson_reference=pois,
            solver_stats=traj.stats,
        )

    if family == "steady":
        me, f, target = build_system(cfg)
        stats = LUStats()
        if method == "steady":
            rho = steady_state_nullspace(me, stats=stats)
        else:
            rho = approximate_steady_state(me, f, stats=stats)
        report = observable_report(rho, target=target)
    else:  # the recurrences
        f = cfg.gadget.nonlinear_function()
        stats = None
        if method == "recurrence_ncl":
            alpha0 = cfg.omega / cfg.gamma_nonlinear
            epsilon = cfg.gamma_linear / cfg.gamma_nonlinear
            dist = ncl_recurrence(f, alpha0, epsilon, cfg.dim, start=cfg.solver.recurrence_start)
        else:
            dist = thermal_recurrence(f, cfg.nbar, cfg.gamma_nonlinear / cfg.gamma_linear, cfg.dim)
        # the purity of the diagonal ansatz
        report = distribution_report(dist, float(np.sum(dist.probabilities**2)))
    return PointResult(
        sweep_value=value,
        kind="steady",
        steady_report=report,
        distribution=_distribution_at(cfg.output, [report], value),
        solver_stats=stats,
    )


def preflight(config: ScenarioConfig) -> None:
    """Config-level and guard-level checks for every sweep point, no solving.

    Builds the nonlinearity, gadget and master equation for each resolved
    sweep point; for time propagation it also constructs the initial state
    (which runs the truncation guards).
    """
    config.validate()
    for v in _sweep_values(config):
        cfg = resolve_point(config, float(v))
        build_system(cfg)
        if METHODS[cfg.solver.method][0] == "evolve":
            _parse_state(cfg.initial, cfg.dim)


def _run_point_isolated(args) -> PointResult:
    config, value = args
    try:
        return run_point(config, value)
    except (SimulationError, ConfigError) as exc:
        return PointResult(sweep_value=value, kind="error", error=f"{type(exc).__name__}: {exc}")


def _worker_count(n_points: int) -> int:
    env = os.environ.get("NCLSIM_WORKERS", "").strip()
    if not env:
        workers = os.cpu_count() or 1
    elif env.isdecimal() and int(env) >= 1:
        workers = int(env)
    else:
        raise ConfigError(f"NCLSIM_WORKERS must be an integer >= 1, got {env!r}")
    return max(1, min(workers, n_points))


def run_sweep(config: ScenarioConfig) -> ScenarioResult:
    """Run every sweep point of a config; per-point failures are isolated."""
    config.validate()
    jobs = [(config, float(v)) for v in _sweep_values(config)]
    n = _worker_count(len(jobs))
    if n > 1 and len(jobs) > 1:
        if METHODS[config.solver.method][0] == "steady":
            # imported once here, before the fork, not once in every worker
            import scipy.sparse.csgraph  # noqa: F401
            import scipy.sparse.linalg  # noqa: F401
        with ProcessPoolExecutor(max_workers=n) as pool:
            points = list(pool.map(_run_point_isolated, jobs))
    else:
        points = [_run_point_isolated(j) for j in jobs]
    provenance = {
        "version": __version__,
        "config": asdict(config),
        "tolerances": {"solver_tol": config.solver.tol},
        # deterministic step counts of every propagated point and sparse LU
        # counts of every null-space point (none for recurrences)
        "solver_stats": [
            {"sweep_value": p.sweep_value if np.isfinite(p.sweep_value) else None}
            | asdict(p.solver_stats)
            for p in points
            if p.solver_stats is not None
        ],
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


def _fig2d() -> ScenarioConfig:
    return ScenarioConfig(
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


# preset -> its (family label, ScenarioConfig) pairs, in order
_PRESETS = {
    "fig1a": (("main", _fig1_projector("fig1a", OutputSpec(timeseries=True))),),
    "fig1b": (
        (
            "main",
            _fig1_projector("fig1b", OutputSpec(timeseries=False, distribution_at="max_fidelity")),
        ),
    ),
    "fig1c": (("main", _fig1_ncl("fig1c", (2.0, 4.0, 6.0, 8.0), OutputSpec(timeseries=True))),),
    "fig1d": (
        (
            "main",
            _fig1_ncl(
                "fig1d",
                (8.0,),
                OutputSpec(timeseries=False, distribution_at="min_q", poisson_reference=True),
            ),
        ),
    ),
    "fig2a": tuple(
        (f"eps{int(e)}", _fig2_steady("fig2a", "x-1", e, "steady")) for e in (1.0, 5.0, 10.0)
    ),
    "fig2b": (
        ("exact", _fig2_steady("fig2b", "x-1", 1.0, "steady")),
        ("approx", _fig2_steady("fig2b", "x-1", 1.0, "steady_approx")),
    ),
    "fig2c": (
        ("exact", _fig2_steady("fig2c", "(x-1)^2", 1.0, "steady")),
        ("approx", _fig2_steady("fig2c", "(x-1)^2", 1.0, "steady_approx")),
    ),
    "fig2d": (("main", _fig2d()),),
}
PRESET_NAMES = tuple(_PRESETS)


def expand_preset(name: str):
    """Preset -> ordered list of (family label, ScenarioConfig)."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return list(_PRESETS[name])


# the keys --override may set, each converted as its INI key is
_OVERRIDABLE = {"dim", "gamma_linear", "gamma_nonlinear", "nbar", "omega", "tol", "values"}


def apply_overrides(config: ScenarioConfig, overrides: dict | None) -> ScenarioConfig:
    """Apply CLI-style key=value overrides to a config, each value converted
    as its INI key is (``config.KEYS``)."""
    from .config import KEYS  # config.py imports this module

    cfg = config
    for key, raw in (overrides or {}).items():
        if key not in _OVERRIDABLE:
            raise ConfigError(f"unknown override key {key!r}")
        where, name, convert = next(keys[key] for keys in KEYS.values() if key in keys)
        try:
            value = convert(str(raw))
        except ConfigError as exc:
            raise ConfigError(f"override {key}={raw!r}: {exc}") from exc
        if where == "config":
            cfg = replace(cfg, **{name: value})
        else:
            cfg = replace(cfg, **{where: replace(getattr(cfg, where), **{name: value})})
        how = cfg.output.distribution_at
        if key == "values" and value and how is not None and how.startswith("value:"):
            # a preset's value:<x> names its strongest drive; follow the new values
            at = f"value:{max(value)!r}"
            cfg = replace(cfg, output=replace(cfg.output, distribution_at=at))
    return cfg


def run_preset(name: str, overrides: dict | None = None) -> dict:
    """Run a figure preset; returns an ordered {family label: ScenarioResult}."""
    families = [(label, apply_overrides(config, overrides)) for label, config in expand_preset(name)]
    for _, config in families:  # a config error in any family fails before the first solve
        config.validate()
    return {label: run_sweep(config) for label, config in families}
