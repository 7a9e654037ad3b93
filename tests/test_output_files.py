"""The bytes of every file kind the command line writes, pinned.

Each case runs through ``cli.main`` and every file it writes must equal the
file of the same name under ``tests/data/output/<case>/``.  Together the
cases write every CSV kind (time series, steady, distribution, Poisson and a
figure's curve CSV), a log-axis and a linear-axis line chart, the n̄ minimum
marker, and a bar chart with and without the Poisson reference.  The
stationary files come from a recurrence, which no LAPACK call touches; the
rest come from small propagations, the only method that writes time series
and Poisson references.  To renew the expected files after an
intended change of format, run the cases with ``--out`` (or ``directory``)
pointing into ``tests/data/output/<case>``.
"""

import os
from pathlib import Path

import pytest

from nclsim import cli

DATA = Path(__file__).parent / "data" / "output"

# the n̄ sweep: steady and distribution CSVs, a linear-axis chart with its
# minimum marked, and bars with no reference
THERMAL_INI = """
[system]
dim = 24
gamma_linear = 1.0
gamma_nonlinear = 1.0
[gadget]
kind = ncl
f = x-1
[solver]
method = recurrence_thermal
[sweep]
parameter = nbar
values = 0.1,0.5,1,2
[output]
directory = {out}
basename = thermal
distribution_at = value:1
svg = true
"""


def _figure(preset: str) -> list:
    return ["figure", preset, "--override", "dim=18", "--override", "values=1.5", "--out"]


CASES = {
    # time series and its Mandel-Q curve CSV, charted on a log time axis
    "fig1c": _figure("fig1c"),
    # distribution and Poisson CSVs, bars under the Poisson reference
    "fig1d": _figure("fig1d"),
    "thermal": THERMAL_INI,
}


@pytest.mark.parametrize("case", CASES)
def test_emitted_files_match_pinned_bytes(tmp_path, monkeypatch, case):
    monkeypatch.setenv("NCLSIM_WORKERS", "1")
    out = tmp_path / "out"
    spec = CASES[case]
    if isinstance(spec, list):
        args = spec + [str(out)]
    else:
        config = tmp_path / "cfg.ini"
        config.write_text(spec.format(out=out), encoding="utf-8")
        args = ["sweep", str(config)]
    assert cli.main(args) == 0
    expected = DATA / case
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected))
    for name in os.listdir(expected):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
