import csv
import json
import os

import numpy as np
import pytest

from nclsim import cli, scenarios as sc
from nclsim.config import parse_config
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
tol = 1e-9

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


def test_csv_byte_determinism_and_roundtrip(tmp_path):
    outdir = tmp_path / "o1"
    path = _write(tmp_path, EVOLVE_INI.format(outdir=outdir))
    assert cli.main(["evolve", path]) == 0
    first = (outdir / "unit_timeseries.csv").read_bytes()
    assert cli.main(["evolve", path]) == 0
    second = (outdir / "unit_timeseries.csv").read_bytes()
    assert first == second

    # 17-significant-digit floats round-trip to full precision
    config, _ = parse_config(path)
    res = sc.run_sweep(config, workers=1)
    with open(outdir / "unit_timeseries.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    parsed = float(rows[1][6])  # purity at t=0 of the first point
    assert parsed == res.points[0].reports[0].purity


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


@pytest.mark.parametrize("raw", ["two", "0", "-3"])
def test_malformed_worker_count_is_config_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("NCLSIM_WORKERS", raw)
    with pytest.raises(ConfigError):
        sc._worker_count(2, None)
    outdir = tmp_path / "swept"
    path = _write(tmp_path, SWEPT_RECURRENCE_INI.format(outdir=outdir, at="steady"))
    assert cli.main(["recurrence", path]) == 1
    assert "NCLSIM_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    assert sc._worker_count(2, None) == 1


def test_unconverged_exit_code(tmp_path):
    ini = """
[system]
dim = 66
gamma_linear = 1.0
omega = 0.3

[solver]
method = steady
t_max = 0.001

[output]
directory = {outdir}
basename = unc
"""
    outdir = tmp_path / "unc"
    path = _write(tmp_path, ini.format(outdir=outdir))
    assert cli.main(["steady", path]) == 3
    with open(outdir / "unc_steady.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][4] == "false"  # emitted, but flagged


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
