"""INI scenario configs: flat key=value with one section per concern.

Sections: [system] [gadget] [initial] [solver] [sweep] [output].  Unknown
sections or keys are hard errors: a typo in a numerical experiment must die
loudly, not silently fall back to a default.  The full schema with every key
and value form is documented in the README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .errors import ConfigError
from .scenarios import GadgetSpec, OutputSpec, ScenarioConfig, SolverSpec, SweepSpec, parse_values

_KNOWN = {
    "system": {"dim", "gamma_linear", "gamma_nonlinear", "nbar", "omega"},
    "gadget": {"kind", "f", "f_coeffs", "f_shift", "f_power", "target", "source", "k"},
    "initial": {"state"},
    "solver": {"method", "t_grid", "tol", "recurrence_start"},
    "sweep": {"parameter", "values"},
    "output": {
        "directory",
        "basename",
        "timeseries",
        "distribution_at",
        "poisson_reference",
        "svg",
    },
}


@dataclass(frozen=True)
class FileOutput:
    """Where the CLI puts emitted files."""

    directory: str = "."
    basename: str = "run"
    svg: bool = False


def _getfloat(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc


def _getint(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc


def _getbool(section, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def _parse_grid(raw: str) -> tuple:
    parts = raw.strip().split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ConfigError(f"t_grid {raw!r} must be log:lo:hi:n or lin:lo:hi:n")
    try:
        return (parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise ConfigError(f"could not parse t_grid {raw!r}") from exc


def parse_config(path: str) -> tuple:
    """Parse an INI scenario file -> (ScenarioConfig, FileOutput)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if "system" not in parser or "dim" not in parser["system"]:
        raise ConfigError("config needs [system] with at least dim")
    system = parser["system"]
    gadget_sec = parser["gadget"] if "gadget" in parser else {}
    solver_sec = parser["solver"] if "solver" in parser else {}
    sweep_sec = parser["sweep"] if "sweep" in parser else {}
    output_sec = parser["output"] if "output" in parser else {}

    f_coeffs = ()
    if gadget_sec.get("f_coeffs"):
        try:
            f_coeffs = tuple(float(v) for v in gadget_sec["f_coeffs"].split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad f_coeffs {gadget_sec['f_coeffs']!r}") from exc
    gadget = GadgetSpec(
        kind=gadget_sec.get("kind", "none").strip(),
        f_name=(gadget_sec.get("f") or None),
        f_coeffs=f_coeffs,
        f_shift=_getfloat(gadget_sec, "f_shift", 0.0),
        f_power=_getint(gadget_sec, "f_power", None) if gadget_sec.get("f_power") else None,
        target=(gadget_sec.get("target") or None),
        source=(gadget_sec.get("source") or None),
        k=_getint(gadget_sec, "k", 2),
    )
    solver = SolverSpec(
        method=solver_sec.get("method", "propagate").strip(),
        t_grid=_parse_grid(solver_sec["t_grid"]) if solver_sec.get("t_grid") else SolverSpec().t_grid,
        tol=_getfloat(solver_sec, "tol", SolverSpec().tol),
        recurrence_start=_getint(solver_sec, "recurrence_start", 0),
    )
    sweep = SweepSpec(
        parameter=sweep_sec.get("parameter", "none").strip(),
        values=parse_values(sweep_sec["values"]) if sweep_sec.get("values") else (),
    )
    output = OutputSpec(
        timeseries=_getbool(output_sec, "timeseries", True),
        distribution_at=(output_sec.get("distribution_at") or None),
        poisson_reference=_getbool(output_sec, "poisson_reference", False),
    )
    initial = parser["initial"].get("state", "vacuum") if "initial" in parser else "vacuum"

    config = ScenarioConfig(
        name=output_sec.get("basename", "run"),
        dim=_getint(system, "dim", None),
        gamma_linear=_getfloat(system, "gamma_linear", 0.0),
        gamma_nonlinear=_getfloat(system, "gamma_nonlinear", 0.0),
        nbar=_getfloat(system, "nbar", 0.0),
        omega=_getfloat(system, "omega", 0.0),
        gadget=gadget,
        initial=initial.strip(),
        solver=solver,
        sweep=sweep,
        output=output,
    )
    config.validate()
    fileout = FileOutput(
        directory=output_sec.get("directory", "."),
        basename=output_sec.get("basename", "run"),
        svg=_getbool(output_sec, "svg", False),
    )
    return config, fileout
