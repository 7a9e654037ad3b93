import configparser
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from conftest import process_ended

from nclsim import cli, evolve, scenarios as sc
from nclsim.config import KEYS, parse_config
from nclsim.errors import ConfigError

EVOLVE_INI = """
[system]
dim = 20
gamma_linear = 1.0
gamma_nonlinear = 0.2

[gadget]
kind = ncl
f = x-1

[initial]
state = coherent:1.2

[solver]
method = propagate
t_grid = log:1e-3:0.5:25

[sweep]
parameter = alpha
values = 1.0,1.2

[output]
directory = {outdir}
basename = unit
timeseries = true
distribution_at = min_q
svg = true
"""

RECURRENCE_INI = """
[system]
dim = 120
gamma_nonlinear = 1.0
omega = 1e4

[gadget]
kind = ncl
f = x-1

[solver]
method = recurrence_ncl
recurrence_start = 1

[output]
directory = {outdir}
basename = rec
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_roundtrip(tmp_path):
    path = _write(tmp_path, EVOLVE_INI.format(outdir=tmp_path))
    config, fileout = parse_config(path)
    assert config.dim == 20
    assert config.gadget.kind == "ncl" and config.gadget.f_name == "x-1"
    assert config.solver.t_grid == ("log", 1e-3, 0.5, 25)
    assert config.sweep.values == (1.0, 1.2)
    assert fileout.svg is True and fileout.basename == "unit"


def test_parse_config_unknown_key(tmp_path):
    path = _write(tmp_path, "[system]\ndim = 8\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "bogus" in str(err.value)


def test_parse_config_unknown_section(tmp_path):
    path = _write(tmp_path, "[system]\ndim = 8\n\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_negative_rate_names_field(tmp_path):
    path = _write(tmp_path, "[system]\ndim = 8\ngamma_linear = -2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "gamma_linear" in str(err.value)


def test_readme_schema_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.read_string(block)
    assert {name: set(parser[name]) for name in parser.sections()} == {
        name: set(keys) for name, keys in KEYS.items()
    }


def test_parse_values_ranges(tmp_path):
    path = _write(
        tmp_path,
        "[system]\ndim = 8\ngamma_nonlinear = 1\n[gadget]\nkind = ncl\nf = x-1\n"
        "[solver]\nmethod = steady\n[sweep]\nparameter = alpha0\nvalues = geom:1:100:5\n",
    )
    config, _ = parse_config(path)
    assert np.allclose(config.sweep.values, np.geomspace(1, 100, 5))


def test_validate_subcommand(tmp_path):
    good = _write(tmp_path, EVOLVE_INI.format(outdir=tmp_path))
    assert cli.main(["validate", good]) == 0
    bad = _write(tmp_path, "[system]\ndim = 8\ngamma_linear = -2\n", name="bad.ini")
    assert cli.main(["validate", bad]) == 1


def test_validate_catches_guard_violation(tmp_path):
    text = EVOLVE_INI.format(outdir=tmp_path).replace("values = 1.0,1.2", "values = 1.0,6.0")
    path = _write(tmp_path, text)
    assert cli.main(["validate", path]) == 1


def test_unknown_subcommand_and_flag():
    assert cli.main(["transmogrify"]) == 1
    assert cli.main(["figure", "fig2d", "--frobnicate"]) == 1


def test_method_subcommand_mismatch(tmp_path):
    path = _write(tmp_path, EVOLVE_INI.format(outdir=tmp_path))
    assert cli.main(["steady", path]) == 1


def test_evolve_end_to_end(tmp_path):
    outdir = tmp_path / "out"
    path = _write(tmp_path, EVOLVE_INI.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 0
    ts = outdir / "unit_timeseries.csv"
    dist = outdir / "unit_distribution.csv"
    prov = outdir / "unit_provenance.json"
    assert ts.exists() and dist.exists() and prov.exists()
    assert (outdir / "unit.svg").exists() and (outdir / "unit_distribution.svg").exists()

    with open(ts, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "time",
        "sweep_value",
        "mean_n",
        "variance_n",
        "mandel_q",
        "fidelity",
        "purity",
        "trace_error",
    ]
    assert len(rows) == 1 + 2 * 26  # two sweep points, 25-point log grid plus t=0
    # fidelity column empty for an NCL run (no target state)
    assert rows[1][5] == ""

    # distribution rows: per sweep value the p_n sum to one
    with open(dist, newline="", encoding="utf-8") as fh:
        drows = list(csv.reader(fh))
    assert drows[0] == ["sweep_value", "n", "p_n"]
    sums = {}
    for sv, _, p in drows[1:]:
        sums[sv] = sums.get(sv, 0.0) + float(p)
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-10)

    payload = json.loads(prov.read_text(encoding="utf-8"))
    assert payload["files"] and payload["version"]
    for name in payload["files"]:
        assert (outdir / name).exists()


def test_csv_byte_determinism_and_roundtrip(tmp_path, monkeypatch):
    outdir = tmp_path / "o1"
    path = _write(tmp_path, EVOLVE_INI.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 0
    first = (outdir / "unit_timeseries.csv").read_bytes()
    assert cli.main(["evolve", path]) == 0
    second = (outdir / "unit_timeseries.csv").read_bytes()
    assert first == second

    # 17-significant-digit floats round-trip to full precision
    config, _ = parse_config(path)
    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    res = sc.run_sweep(config)
    with open(outdir / "unit_timeseries.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    parsed = float(rows[1][6])  # purity at t=0 of the first point
    assert parsed == res.points[0].reports[0].purity


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_polynomial_gadget_writes_the_bytes_of_the_named_function(tmp_path):
    # f_coeffs = 0,1 around f_shift = 1 is f(n) = n - 1, the preset x-1
    named = _write(tmp_path, EVOLVE_INI.format(outdir=tmp_path / "named"), name="named.ini")
    text = EVOLVE_INI.format(outdir=tmp_path / "coeffs")
    text = text.replace("f = x-1", "f_coeffs = 0,1\nf_shift = 1")
    coeffs = _write(tmp_path, text, name="coeffs.ini")
    assert cli.main(["evolve", named]) == 0 and cli.main(["evolve", coeffs]) == 0
    want = (tmp_path / "named" / "unit_timeseries.csv").read_bytes()
    assert (tmp_path / "coeffs" / "unit_timeseries.csv").read_bytes() == want


def test_thermal_initial_state_and_final_distribution(tmp_path):
    outdir = tmp_path / "out"
    text = _set_key(EVOLVE_INI.format(outdir=outdir), "initial", "state", "thermal:0.5")
    text = _set_key(_set_key(text, "system", "dim", "40"), "output", "distribution_at", "final")
    text = _set_key(_set_key(text, "sweep", "parameter", "gamma_linear"), "sweep", "values", "1,2")
    assert cli.main(["evolve", _write(tmp_path, text)]) == 0
    series = _csv_rows(outdir / "unit_timeseries.csv")[1:]
    dist = _csv_rows(outdir / "unit_distribution.csv")[1:]
    for value in ("1", "2"):
        rows = [row for row in series if row[1] == value]
        assert abs(float(rows[0][2]) - 0.5) <= 1e-11  # mean n of thermal:0.5 at t = 0
        # the distribution is the one at the last grid time
        mean = sum(int(n) * float(p) for v, n, p in dist if v == value)
        assert abs(mean - float(rows[-1][2])) <= 1e-12


def test_recurrence_cli_hits_asymptotic_q(tmp_path):
    outdir = tmp_path / "rec"
    path = _write(tmp_path, RECURRENCE_INI.format(outdir=outdir))
    assert cli.main(["recurrence", path]) == 0
    with open(outdir / "rec_steady.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sweep_value", "mandel_q", "mean_n", "purity", "converged"]
    q = float(rows[1][1])
    assert -0.85 <= q <= -0.75
    assert rows[1][4] == "true"


SWEPT_RECURRENCE_INI = """
[system]
dim = 40
gamma_nonlinear = 1.0
gamma_linear = 1.0

[gadget]
kind = ncl
f = x-1

[solver]
method = recurrence_ncl

[sweep]
parameter = alpha0
values = 1.0,2.0

[output]
directory = {outdir}
basename = swept
distribution_at = {at}
"""


def test_distribution_value_must_match_a_sweep_point(tmp_path, capsys):
    outdir = tmp_path / "swept"
    path = _write(tmp_path, SWEPT_RECURRENCE_INI.format(outdir=outdir, at="value:3"))
    assert cli.main(["recurrence", path]) == 1
    assert cli.main(["validate", path]) == 1
    assert "matches no sweep value" in capsys.readouterr().err
    assert not outdir.exists()
    # within the shared relative tolerance, the nearby sweep value is picked
    path = _write(tmp_path, SWEPT_RECURRENCE_INI.format(outdir=outdir, at="value:2.0000000001"))
    assert cli.main(["recurrence", path]) == 0
    with open(outdir / "swept_distribution.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {row[0] for row in rows[1:]} == {"2"}


STEADY_APPROX_INI = """
[system]
dim = 12
gamma_linear = 1.0
gamma_nonlinear = 1.0

[gadget]
kind = ncl
f = x-1

[solver]
method = steady_approx

[sweep]
parameter = alpha0
values = 1.0,2.0

[output]
directory = {outdir}
basename = approx
distribution_at = value:2.0
"""


def _set_key(text, section, key, value):
    """``text`` with ``key = value`` as the first line of ``[section]``."""
    text = re.sub(rf"^{re.escape(key)} = .*\n", "", text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def _base_ini(base, outdir):
    if base == "steady":
        return STEADY_APPROX_INI.format(outdir=outdir)
    if base in ("recurrence", "thermal"):
        text = SWEPT_RECURRENCE_INI.format(outdir=outdir, at="steady")
        if base == "thermal":
            text = _set_key(text, "solver", "method", "recurrence_thermal")
            text = _set_key(text, "system", "nbar", "1.0")
        return text
    text = EVOLVE_INI.format(outdir=outdir)
    if base == "projector":
        gadget = ("kind", "projector"), ("f", ""), ("target", "fock:2"), ("source", "coherent:1.2")
        for key, value in gadget:
            text = _set_key(text, "gadget", key, value)
        text = _set_key(text, "system", "dim", "40")
    if base == "timeseries":  # a propagation that records no distribution
        text = _set_key(text, "output", "distribution_at", "")
    if base == "none":  # linear loss alone, no engineered channel
        text = _set_key(_set_key(text, "gadget", "kind", "none"), "gadget", "f", "")
    return text


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "base, section, key, value",
    [
        ("evolve", "gadget", "f", "(x-1)^4"),
        ("evolve", "gadget", "f", ""),
        ("steady", "gadget", "f", "(x-1)^4"),
        ("steady", "gadget", "kind", "none"),
        ("projector", "gadget", "target", "fock:x"),
        ("projector", "gadget", "target", "fock"),
        ("projector", "gadget", "target", "thermal:1"),
        ("projector", "gadget", "source", "coherent:"),
        ("evolve", "initial", "state", "coherent:x"),
        ("evolve", "initial", "state", "squeezed:1"),
        ("evolve", "initial", "state", "fock:1.5"),
        ("evolve", "solver", "t_grid", "log:0:1:3"),
        ("evolve", "solver", "t_grid", "lin:1:0:3"),
        ("evolve", "solver", "t_grid", "lin:0:1:100000000000"),
        ("evolve", "sweep", "values", "geom:1:x:3"),
        ("evolve", "sweep", "values", "lin:1:2:x"),
        ("evolve", "sweep", "values", "lin:1:2:100000000000"),
        ("steady", "sweep", "values", "geom:0:1:3"),
        ("steady", "sweep", "values", "lin:1:2:-3"),
        ("evolve", "output", "distribution_at", "bogus"),
        ("evolve", "output", "distribution_at", "steady"),
        ("steady", "output", "distribution_at", "final"),
        # only a projector gadget sets a fidelity target
        ("evolve", "output", "distribution_at", "max_fidelity"),
        ("none", "output", "distribution_at", "max_fidelity"),
        ("recurrence", "system", "gamma_nonlinear", "0"),
        ("thermal", "system", "gamma_linear", "0"),
        ("thermal", "system", "nbar", "0"),
        ("steady", "system", "nbar", "0.5"),
        ("steady", "system", "gamma_nonlinear", "0"),
        ("steady", "system", "dim", "257"),
        ("recurrence", "solver", "recurrence_start", "40"),
        ("recurrence", "solver", "recurrence_start", "-1"),
        ("projector", "gadget", "k", "0"),
        ("projector", "gadget", "source", ""),
        ("evolve", "system", "dim", "1"),
        ("evolve", "gadget", "kind", "bogus"),
        ("evolve", "sweep", "parameter", "bogus"),
        ("evolve", "sweep", "values", "nan"),
        ("steady", "output", "distribution_at", "value:abc"),
        # a propagation's time grid, unread by a stationary solve, is still checked
        ("steady", "solver", "t_grid", "foo:1e-3:1:10"),
        # a [gadget] key the chosen kind does not read: ncl reads f or
        # f_coeffs (with f_shift), f_power only for x^k, and no states
        ("evolve", "gadget", "target", "fock:2"),
        ("evolve", "gadget", "source", "coherent:1.2"),
        ("evolve", "gadget", "f_coeffs", "0,1"),
        ("evolve", "gadget", "f_power", "3"),
        ("evolve", "gadget", "f_shift", "2"),
        # a projector reads no nonlinearity
        ("projector", "gadget", "f", "x-1"),
        ("projector", "gadget", "f_coeffs", "0,1"),
        ("projector", "gadget", "f_power", "2"),
        ("projector", "gadget", "f_shift", "1"),
        # no gadget reads nothing
        ("none", "gadget", "f", "x-1"),
        ("none", "gadget", "f_coeffs", "0,1"),
        ("none", "gadget", "f_power", "2"),
        ("none", "gadget", "f_shift", "1"),
        ("none", "gadget", "target", "fock:2"),
        ("none", "gadget", "source", "coherent:1.2"),
        # a Poisson reference is drawn only beside a propagated distribution
        ("steady", "output", "poisson_reference", "true"),
        ("thermal", "output", "poisson_reference", "true"),
        ("timeseries", "output", "poisson_reference", "true"),
    ],
)
def test_bad_input_is_a_config_error_before_any_output(
    tmp_path, capsys, command, base, section, key, value
):
    outdir = tmp_path / "out"
    good = _write(tmp_path, _base_ini(base, outdir), name="good.ini")
    assert cli.main(["validate", good]) == 0
    bad = _write(tmp_path, _set_key(_base_ini(base, outdir), section, key, value))
    run = {"steady": "steady", "recurrence": "recurrence", "thermal": "recurrence"}.get(
        base, "evolve"
    )
    assert cli.main([run if command == "run" else "validate", bad]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not outdir.exists()


def test_ncl_x_power_preset_reads_f_power(tmp_path):
    text = EVOLVE_INI.format(outdir=tmp_path / "out")
    for key, value in (("f", "x^k"), ("f_power", "2"), ("f_shift", "0")):
        text = _set_key(text, "gadget", key, value)
    assert cli.main(["validate", _write(tmp_path, text)]) == 0


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing file", "cannot read config"),
        ("no section header", "malformed config"),
        ("no dim", "config needs [system] with at least dim"),
        ("unknown grid kind", "unknown grid kind 'foo'"),
        ("override without =", "override 'dim' must be KEY=VALUE"),
    ],
)
def test_unreadable_config_or_override_is_a_config_error(tmp_path, capsys, case, message):
    outdir = tmp_path / "out"
    text = EVOLVE_INI.format(outdir=outdir)
    texts = {
        "no section header": "dim = 20\n",
        "no dim": text.replace("dim = 20\n", ""),
        "unknown grid kind": _set_key(text, "solver", "t_grid", "foo:1e-3:1:10"),
    }
    path = _write(tmp_path, texts.get(case, text))
    if case == "missing file":
        path = str(tmp_path / "absent.ini")
    if case == "override without =":
        args = ["figure", "fig2d", "--out", str(outdir), "--override", "dim"]
    else:
        args = ["evolve", path]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "base, parameter, values, at, bad, need",
    [
        ("recurrence", "gamma_nonlinear", "0.0,1.0", "steady", "0.0",
         "recurrence_ncl needs gamma_nonlinear > 0"),
        ("thermal", "gamma_linear", "0.0,1.0", "steady", "0.0",
         "recurrence_thermal needs gamma_linear > 0"),
        ("thermal", "nbar", "0.0,1.0", "steady", "0.0", "recurrence_thermal needs nbar > 0"),
        ("steady", "nbar", "0.0,0.5", "value:0.0", "0.5", "steady_approx needs nbar = 0"),
        ("steady", "gamma_nonlinear", "1.0,0.0", "value:1.0", "0.0",
         "steady_approx needs gamma_nonlinear > 0"),
    ],
)
def test_swept_rate_fails_only_its_point(tmp_path, capsys, base, parameter, values, at, bad, need):
    # validate() checks the rates on every resolved point and passes when one
    # point passes; run_point checks the same rule on each point, so only the
    # offending point fails, with the same message
    outdir = tmp_path / "out"
    text = _set_key(_base_ini(base, outdir), "sweep", "parameter", parameter)
    text = _set_key(_set_key(text, "sweep", "values", values), "output", "distribution_at", at)
    path = _write(tmp_path, text)
    assert cli.main(["validate", path]) == 0
    run = "steady" if base == "steady" else "recurrence"
    assert cli.main([run, path]) == 3  # the rate condition fails one point, not the config
    err = capsys.readouterr().err
    assert f"point {bad} failed: ConfigError: {need}, got {bad}" in err
    assert err.count(" failed: ") == 1


@pytest.mark.parametrize(
    "base, parameter, values, system, need",
    [
        # Γ = ε·γ is zero at every ε when γ = 0
        ("thermal", "epsilon", "1.0,2.0", ("gamma_nonlinear", "0"),
         "recurrence_thermal needs gamma_linear > 0, got 0.0"),
        ("steady", "nbar", "0.5,1.0", None, "steady_approx needs nbar = 0, got 0.5"),
        ("thermal", "nbar", "-1.0,-2.0", None, "nbar must be >= 0, got -1.0"),
    ],
)
def test_swept_rate_failing_at_every_point_is_config_error(
    tmp_path, capsys, base, parameter, values, system, need
):
    outdir = tmp_path / "out"
    text = _set_key(_base_ini(base, outdir), "sweep", "parameter", parameter)
    text = _set_key(_set_key(text, "sweep", "values", values), "output", "distribution_at", "steady")
    if system is not None:
        text = _set_key(text, "system", *system)
    path = _write(tmp_path, text)
    run = "steady" if base == "steady" else "recurrence"
    assert cli.main(["validate", path]) == 1
    assert cli.main([run, path]) == 1
    err = capsys.readouterr().err
    assert err.count(f"config error: {need}") == 2 and "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("raw", ["two", "0", "-3"])
def test_malformed_worker_count_is_config_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("NCLSIM_WORKERS", raw)
    with pytest.raises(ConfigError):
        sc._worker_count(2)
    outdir = tmp_path / "swept"
    path = _write(tmp_path, SWEPT_RECURRENCE_INI.format(outdir=outdir, at="steady"))
    assert cli.main(["recurrence", path]) == 1
    assert "NCLSIM_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    assert sc._worker_count(2) == 1


def test_steady_above_dense_cap_converges(tmp_path):
    ini = """
[system]
dim = 66
gamma_linear = 1.0
omega = 0.3

[solver]
method = steady

[output]
directory = {outdir}
basename = big
"""
    outdir = tmp_path / "big"
    path = _write(tmp_path, ini.format(outdir=outdir))
    assert cli.main(["steady", path]) == 0
    with open(outdir / "big_steady.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["converged"] == "true"
    assert abs(float(rows[0]["mean_n"]) - 0.09) <= 1e-10  # coherent state, |Ω/Γ|² photons


def test_failed_point_exit_code(tmp_path, capsys):
    ini = """
[system]
dim = 10
gamma_linear = 1.0

[initial]
state = coherent:0.5

[solver]
method = propagate
t_grid = lin:0:0.5:5

[sweep]
parameter = alpha
values = 0.5,4.0

[output]
directory = {outdir}
basename = part
"""
    outdir = tmp_path / "part"
    path = _write(tmp_path, ini.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 3  # coherent:4 trips the truncation guard at dim 10
    with open(outdir / "part_timeseries.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["sweep_value"] for r in rows} == {"0.5"}
    assert "point 4.0 failed" in capsys.readouterr().err


def test_all_points_failing_is_numerical_failure(tmp_path):
    ini = """
[system]
dim = 5
omega = 4.0

[solver]
method = propagate
t_grid = lin:0:2:10

[output]
directory = {outdir}
basename = boom
"""
    outdir = tmp_path / "boom"
    path = _write(tmp_path, ini.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 2  # truncation breach on the only point


@pytest.mark.parametrize(
    "name, value",
    [("gamma_linear", "nan"), ("gamma_nonlinear", "inf"), ("nbar", "nan"), ("omega", "inf")],
)
def test_non_finite_system_value_is_config_error(tmp_path, capsys, name, value):
    outdir = tmp_path / "out"
    ini = re.sub(rf"^{name} = .*\n", "", EVOLVE_INI.format(outdir=outdir), flags=re.M)
    path = _write(tmp_path, ini.replace("dim = 20\n", f"dim = 20\n{name} = {value}\n"))
    with pytest.raises(ConfigError, match=name):
        parse_config(path)
    assert cli.main(["evolve", path]) == 1
    assert not outdir.exists()
    fig = tmp_path / "fig"
    assert cli.main(["figure", "fig1c", "--out", str(fig), "--override", f"{name}={value}"]) == 1
    assert not fig.exists()
    err = capsys.readouterr().err
    assert err.count(f"config error: {name} must be finite") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["0", "-1e-9", "inf", "nan"])
def test_bad_tolerance_is_config_error(tmp_path, capsys, tol):
    outdir = tmp_path / "out"
    ini = EVOLVE_INI.format(outdir=outdir).replace("[solver]\n", f"[solver]\ntol = {tol}\n")
    path = _write(tmp_path, ini)
    with pytest.raises(ConfigError, match="tol"):
        parse_config(path)
    assert cli.main(["evolve", path]) == 1
    assert not outdir.exists()
    fig = tmp_path / "fig"
    assert cli.main(["figure", "fig1c", "--out", str(fig), "--override", f"tol={tol}"]) == 1
    assert not fig.exists()
    err = capsys.readouterr().err
    assert err.count("config error: tol must be finite and > 0") == 2
    assert "Traceback" not in err


def test_dead_worker_fails_the_run_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCLSIM_WORKERS", "2")
    run_point = sc.run_point

    def dies_at_1_2(config, value):
        if value == 1.2:
            os._exit(1)
        return run_point(config, value)

    # no pool is kept yet (conftest.no_kept_pool), so this sweep's workers
    # fork after the patch and see it
    monkeypatch.setattr(sc, "run_point", dies_at_1_2)
    path = _write(tmp_path, EVOLVE_INI.format(outdir=tmp_path / "out"))
    assert cli.main(["evolve", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("worker failure: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the broken pool was dropped, so the next run starts a fresh one
    monkeypatch.setattr(sc, "run_point", run_point)
    assert cli.main(["evolve", path]) == 0


_RUN_EACH_AND_LIST_WORKERS = """
import json, multiprocessing, sys
from nclsim import cli
workers = []
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    status = cli.main([command, path])
    if status:
        sys.exit(status)
    workers.append(sorted(p.pid for p in multiprocessing.active_children()))
print(json.dumps(workers))
"""


def test_pooled_runs_leave_no_worker_behind(tmp_path):
    runs = []
    for command, ini in (("evolve", EVOLVE_INI), ("steady", STEADY_APPROX_INI)):
        path = _write(tmp_path, ini.format(outdir=tmp_path / command), name=f"{command}.ini")
        runs += [command, path]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _RUN_EACH_AND_LIST_WORKERS, *runs],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src, NCLSIM_WORKERS="2"),
    )
    assert out.returncode == 0, out.stderr
    first, second = json.loads(out.stdout.splitlines()[-1])
    # both runs used the one kept pool, and it ended with the interpreter
    assert len(first) == 2 and second == first
    assert all(process_ended(pid) for pid in first)


def test_ini_without_tol_uses_the_integrator_default(tmp_path):
    outdir = tmp_path / "out"
    assert "tol" not in EVOLVE_INI
    path = _write(tmp_path, EVOLVE_INI.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 0
    payload = json.loads((outdir / "unit_provenance.json").read_text(encoding="utf-8"))
    assert payload["tolerances"]["solver_tol"] == evolve.DEFAULT_TOL


def test_provenance_records_solver_stats(tmp_path, monkeypatch):
    stats = []
    csvs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("NCLSIM_WORKERS", workers)
        outdir = tmp_path / f"workers{workers}"
        path = _write(tmp_path, EVOLVE_INI.format(outdir=outdir), name=f"w{workers}.ini")
        assert cli.main(["evolve", path]) == 0
        payload = json.loads((outdir / "unit_provenance.json").read_text(encoding="utf-8"))
        stats.append(payload["solver_stats"])
        csvs.append((outdir / "unit_timeseries.csv").read_bytes())
    assert stats[0] == stats[1]
    assert csvs[0] == csvs[1]
    assert [s["sweep_value"] for s in stats[0]] == [1.0, 1.2]
    for s in stats[0]:
        assert set(s) == {
            "sweep_value", "substeps", "rejected_substeps", "matvecs", "max_krylov_dim",
            "min_k_active",
        }
        assert s["substeps"] >= 10 and s["rejected_substeps"] >= 0
        assert s["max_krylov_dim"] == evolve.KRYLOV_DIM
        assert s["matvecs"] == s["substeps"] * (evolve.KRYLOV_DIM + 1)
        assert 2 <= s["min_k_active"] <= 20


@pytest.mark.parametrize("method", ["steady", "steady_approx"])
def test_provenance_records_lu_counts_of_steady_points(tmp_path, monkeypatch, method):
    ini = (
        "[system]\ndim = 24\ngamma_linear = 1.0\ngamma_nonlinear = 1.0\n"
        "[gadget]\nkind = ncl\nf = x-1\n"
        f"[solver]\nmethod = {method}\n"
        "[sweep]\nparameter = alpha0\nvalues = 1.0,5.0\n"
        "[output]\ndirectory = {outdir}\nbasename = st\n"
    )
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("NCLSIM_WORKERS", workers)
        outdir = tmp_path / f"workers{workers}"
        path = _write(tmp_path, ini.format(outdir=outdir), name=f"w{workers}.ini")
        assert cli.main(["steady", path]) == 0
        payload = json.loads((outdir / "st_provenance.json").read_text(encoding="utf-8"))
        runs.append(payload["solver_stats"])
    # serial and pool passes count the same LU work
    assert runs[0] == runs[1]
    stats = runs[0]
    assert [s["sweep_value"] for s in stats] == [1.0, 5.0]
    for s in stats:
        assert set(s) == {"sweep_value", "lu_factorizations", "lu_solves"}
        assert s["lu_factorizations"] == 1
        assert 4 <= s["lu_solves"] <= 8


@pytest.mark.parametrize("method", ["steady", "steady_approx"])
def test_truncated_stationary_point_fails_by_name(tmp_path, capsys, method):
    ini = (
        "[system]\ndim = 20\ngamma_linear = 5.0\ngamma_nonlinear = 1.0\n"
        "[gadget]\nkind = ncl\nf = x-1\n"
        f"[solver]\nmethod = {method}\n"
        "[sweep]\nparameter = alpha0\nvalues = 1.0,1e6\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\nbasename = st\n"
    )
    assert cli.main(["steady", _write(tmp_path, ini)]) == 3
    err = capsys.readouterr().err
    assert "point 1000000.0 failed: TailGuardError" in err and "point 1.0" not in err


def test_svg_content(tmp_path):
    outdir = tmp_path / "out"
    path = _write(tmp_path, EVOLVE_INI.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 0
    chart = (outdir / "unit.svg").read_text(encoding="utf-8")
    assert chart.count("<polyline") == 2  # one line per sweep value
    assert "Γt" in chart and ">Q<" in chart
    bars = (outdir / "unit_distribution.svg").read_text(encoding="utf-8")
    assert bars.count("<rect") > 4  # grouped bars present
    assert "p_n" in bars


def test_chart_text_is_escaped(tmp_path):
    outdir = tmp_path / "out"
    text = EVOLVE_INI.format(outdir=outdir).replace("basename = unit", "basename = r&d<1>")
    assert cli.main(["evolve", _write(tmp_path, text)]) == 0
    for name in ("r&d<1>.svg", "r&d<1>_distribution.svg"):
        title = ElementTree.parse(outdir / name).getroot().find("{http://www.w3.org/2000/svg}text")
        assert title.text == "r&d<1>"


def test_figure_fig2d(tmp_path):
    out = str(tmp_path / "fig")
    assert cli.main(["figure", "fig2d", "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["fig2d.svg", "fig2d_provenance.json", "fig2d_steady.csv"]
    svg_text = (tmp_path / "fig" / "fig2d.svg").read_text(encoding="utf-8")
    assert "<svg" in svg_text and "n̄" in svg_text and "min" in svg_text


def test_figure_fig1a_small_override(tmp_path):
    out = str(tmp_path / "fig1a")
    code = cli.main(
        [
            "figure",
            "fig1a",
            "--out",
            out,
            "--no-svg",
            "--override",
            "dim=40",
            "--override",
            "values=1.5,2.0",
        ]
    )
    assert code == 0
    with open(os.path.join(out, "fig1a_fidelity.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_Gamma", "alpha", "fidelity"]
    assert {r[1] for r in rows[1:]} == {"1.5", "2"}
    assert os.path.exists(os.path.join(out, "fig1a_timeseries.csv"))
    assert not os.path.exists(os.path.join(out, "fig1a.svg"))


def test_figure_fig2a_follows_overridden_values(tmp_path):
    out = str(tmp_path / "fig2a")
    args = ["figure", "fig2a", "--out", out, "--no-svg", "--override", "dim=32"]
    assert cli.main(args + ["--override", "values=1,2"]) == 0
    with open(os.path.join(out, "fig2a_eps1_distribution.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32 and {r["sweep_value"] for r in rows} == {"2"}
    assert cli.main(args + ["--override", "values="]) == 1  # no values: a config error


def test_malformed_override_value_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "fig2d")
    for override in ("dim=x", "nbar=lots", "values=1,y"):
        assert cli.main(["figure", "fig2d", "--out", out, "--override", override]) == 1
        err = capsys.readouterr().err
        assert "config error: override" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "preset, override, message",
    [
        ("fig2d", "dim=300", "steady takes dim <= 256, got 300"),
        # only the second family (steady_approx) rejects thermal pumping
        ("fig2b", "nbar=0.5", "steady_approx needs nbar = 0, got 0.5"),
    ],
    ids=["fig2d", "fig2b"],
)
def test_figure_config_error_solves_and_writes_nothing(
    tmp_path, capsys, monkeypatch, preset, override, message
):
    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    solved = []
    run_point = sc.run_point

    def counted(*args):
        solved.append(args)
        return run_point(*args)

    monkeypatch.setattr(sc, "run_point", counted)
    out = tmp_path / preset
    assert cli.main(["figure", preset, "--out", str(out), "--override", override]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert solved == [] and not out.exists()


def test_figure_names_failed_points(tmp_path, capsys):
    out = str(tmp_path / "fig1c")
    args = ["figure", "fig1c", "--out", out, "--no-svg", "--override", "dim=10"]
    assert cli.main(args + ["--override", "values=0.5,2"]) == 3  # coherent:2 trips the guard
    err = capsys.readouterr().err
    assert "point 2.0 failed: TruncationLeakageError" in err
    assert "point 0.5" not in err


# per preset: small overrides and the files `figure` prints, in order, with SVG on
FIGURE_FILES = {
    "fig1a": (
        ("dim=30", "values=1.5"),
        ["fig1a_timeseries.csv", "fig1a_fidelity.csv", "fig1a.svg"],
    ),
    "fig1b": (("dim=30", "values=1.5"), ["fig1b_distribution.csv", "fig1b.svg"]),
    "fig1c": (
        ("dim=30", "values=2"),
        ["fig1c_timeseries.csv", "fig1c_mandel_q.csv", "fig1c.svg"],
    ),
    "fig1d": (
        ("dim=30", "values=2"),
        ["fig1d_distribution.csv", "fig1d_poisson.csv", "fig1d.svg"],
    ),
    "fig2a": (
        ("dim=16", "values=1,2"),
        [
            "fig2a_eps1_steady.csv",
            "fig2a_eps1_distribution.csv",
            "fig2a_eps5_steady.csv",
            "fig2a_eps5_distribution.csv",
            "fig2a_eps10_steady.csv",
            "fig2a_eps10_distribution.csv",
            "fig2a.svg",
        ],
    ),
    "fig2b": (
        ("dim=16", "values=1,2"),
        [
            "fig2b_exact_steady.csv",
            "fig2b_exact_distribution.csv",
            "fig2b_approx_steady.csv",
            "fig2b_approx_distribution.csv",
            "fig2b.svg",
        ],
    ),
    "fig2c": (
        ("dim=16", "values=1,2"),
        [
            "fig2c_exact_steady.csv",
            "fig2c_exact_distribution.csv",
            "fig2c_approx_steady.csv",
            "fig2c_approx_distribution.csv",
            "fig2c.svg",
        ],
    ),
    "fig2d": (("dim=24", "values=0.5,1"), ["fig2d_steady.csv", "fig2d.svg"]),
}


@pytest.mark.parametrize("want_svg", [True, False], ids=["svg", "no-svg"])
@pytest.mark.parametrize("preset", sc.PRESET_NAMES)
def test_figure_file_set(tmp_path, capsys, monkeypatch, preset, want_svg):
    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    overrides, names = FIGURE_FILES[preset]
    args = ["figure", preset, "--out", str(tmp_path)]
    for override in overrides:
        args += ["--override", override]
    if not want_svg:
        args.append("--no-svg")
        names = [n for n in names if not n.endswith(".svg")]
    names = names + [f"{preset}_provenance.json"]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out.split()
    assert [os.path.basename(p) for p in printed] == names
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    with open(tmp_path / f"{preset}_provenance.json", encoding="utf-8") as fh:
        assert json.load(fh)["files"] == sorted(names[:-1]) + names[-1:]


@pytest.mark.parametrize("preset, point", [("fig1b", "2.0"), ("fig1d", "8.0")])
def test_figure_with_every_point_failed_is_numerical_failure(tmp_path, capsys, preset, point):
    # no point fits dim=10: no CSV, no chart, but provenance and exit 2
    out = tmp_path / preset
    assert cli.main(["figure", preset, "--out", str(out), "--override", "dim=10"]) == 2
    err = capsys.readouterr().err
    assert f"point {point} failed: TruncationLeakageError" in err
    assert "Traceback" not in err
    assert os.listdir(out) == [f"{preset}_provenance.json"]


ONE_VALUE_INI = """
[system]
dim = 32
gamma_linear = 1.0
gamma_nonlinear = 1.0

[gadget]
kind = ncl
f = x-1

[solver]
method = steady

[sweep]
parameter = alpha0
values = 10

[output]
directory = {outdir}
basename = one
timeseries = false
svg = true
"""


def test_one_value_sweep_charts_without_nan(tmp_path):
    # one x value on a log (alpha0) and a linear (nbar) axis: the range is padded
    outdir = tmp_path / "one"
    assert cli.main(["steady", _write(tmp_path, ONE_VALUE_INI.format(outdir=outdir))]) == 0
    assert "nan" not in (outdir / "one.svg").read_text(encoding="utf-8")
    fig = tmp_path / "fig2d"
    args = ["figure", "fig2d", "--out", str(fig), "--override", "dim=24", "--override", "values=1"]
    assert cli.main(args) == 0
    assert "nan" not in (fig / "fig2d.svg").read_text(encoding="utf-8")
