"""INI scenario configs: flat key=value with one section per concern.

Sections: [system] [gadget] [initial] [solver] [sweep] [output].  Unknown
sections or keys are hard errors: a typo in a numerical experiment must die
loudly, not silently fall back to a default.  :data:`KEYS` is the schema;
every default lives on the dataclass field a key sets.  The README shows the
schema with every key and value form.
"""

from __future__ import annotations

import configparser
from collections import defaultdict
from dataclasses import dataclass

from .errors import ConfigError
from .scenarios import GadgetSpec, OutputSpec, ScenarioConfig, SolverSpec, SweepSpec, parse_values


@dataclass(frozen=True)
class FileOutput:
    """Where the CLI puts emitted files."""

    directory: str = "."
    basename: str = "run"
    svg: bool = False


def _parsed(convert, what: str):
    """``convert`` with its ValueError (or KeyError) raised as a ConfigError
    saying what was expected."""

    def parse(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"expected {what}, got {raw!r}") from exc

    return parse


def _nonempty(raw: str) -> str:
    if not raw:
        raise ValueError("empty value")
    return raw


def _grid(raw: str) -> tuple:
    kind, lo, hi, n = raw.split(":")
    return kind, float(lo), float(hi), int(n)


_number = _parsed(float, "a number")
_integer = _parsed(int, "an integer")
_boolean = _parsed(lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean")
_text = _parsed(_nonempty, "a value")
_numbers = _parsed(lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()), "numbers")
_time_grid = _parsed(_grid, "log:lo:hi:n or lin:lo:hi:n")

# [section] key -> (where the value goes, the field it sets, converter).
# Where is "config" for a ScenarioConfig field, "file" for FileOutput, else
# the ScenarioConfig field holding the spec.
KEYS = {
    "system": {
        "dim": ("config", "dim", _integer),
        "gamma_linear": ("config", "gamma_linear", _number),
        "gamma_nonlinear": ("config", "gamma_nonlinear", _number),
        "nbar": ("config", "nbar", _number),
        "omega": ("config", "omega", _number),
    },
    "gadget": {
        "kind": ("gadget", "kind", _text),
        "f": ("gadget", "f_name", _text),
        "f_coeffs": ("gadget", "f_coeffs", _numbers),
        "f_shift": ("gadget", "f_shift", _number),
        "f_power": ("gadget", "f_power", _integer),
        "target": ("gadget", "target", _text),
        "source": ("gadget", "source", _text),
        "k": ("gadget", "k", _integer),
    },
    "initial": {"state": ("config", "initial", _text)},
    "solver": {
        "method": ("solver", "method", _text),
        "t_grid": ("solver", "t_grid", _time_grid),
        "tol": ("solver", "tol", _number),
        "recurrence_start": ("solver", "recurrence_start", _integer),
    },
    "sweep": {
        "parameter": ("sweep", "parameter", _text),
        "values": ("sweep", "values", parse_values),
    },
    "output": {
        "directory": ("file", "directory", _text),
        "basename": ("file", "basename", _text),
        "timeseries": ("output", "timeseries", _boolean),
        "distribution_at": ("output", "distribution_at", _text),
        "poisson_reference": ("output", "poisson_reference", _boolean),
        "svg": ("file", "svg", _boolean),
    },
}
# keys whose empty value leaves the field unset; any other key needs a value
_EMPTY_IS_UNSET = {"f", "f_coeffs", "f_power", "target", "source", "t_grid", "values", "distribution_at"}


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

    found = defaultdict(dict)
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if raw or key not in _EMPTY_IS_UNSET:
                where, name, convert = KEYS[section][key]
                try:
                    found[where][name] = convert(raw)
                except ConfigError as exc:
                    raise ConfigError(f"key {key!r}: {exc}") from exc

    if "dim" not in found["config"]:
        raise ConfigError("config needs [system] with at least dim")
    fileout = FileOutput(**found["file"])
    config = ScenarioConfig(
        name=fileout.basename,
        gadget=GadgetSpec(**found["gadget"]),
        solver=SolverSpec(**found["solver"]),
        sweep=SweepSpec(**found["sweep"]),
        output=OutputSpec(**found["output"]),
        **found["config"],
    )
    config.validate()
    return config, fileout
