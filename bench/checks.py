"""Correctness gate for one pass of a workload through ``nclsim.cli.main``.

Reads back the CSV files the CLI wrote and decides, sweep point by sweep
point, whether the point is good.  A point fails when

* ``cli.main`` did not return 0 for its config (every point of it fails);
* it is missing from the output, or a steady solve reports converged=false;
* a timeseries ``trace_error`` exceeds 1e-8 (acceptance criterion 11), an
  observable leaves its physical range, or the t = 0 row is not the coherent
  initial state the seed asked for;
* an NCL timeseries gains photons (the equation is pure-lowering);
* a ``steady_approx`` Q differs from ``steady.ncl_recurrence`` by more
  than 1e-10 (measured agreement is 3e-15);
* the exact ``steady`` Q at the largest α₀ is above -0.5 (criterion 8);
* with a reference (default seed only), an observable differs from the
  value recorded at the commit that defined the benchmark by more than 1e-7
  relative to max(1, |value|), the cross-solver bound.
"""

from __future__ import annotations

import csv
import math
import os

from nclsim.gadgets import NonlinearFunction
from nclsim.steady import ncl_recurrence

TRACE_ERROR_MAX = 1e-8
APPROX_Q_TOL = 1e-10
STEADY_Q_MAX = -0.5
REFERENCE_TOL = 1e-7
RANGE_SLACK = 1e-9
INITIAL_TOL = 1e-8

TIMESERIES_COLUMNS = ("mean_n", "variance_n", "mandel_q", "fidelity", "purity")
STEADY_COLUMNS = ("mandel_q", "mean_n", "purity")
REFERENCE_STRIDE = 5  # reference keeps every 5th timeseries row and the last


def _num(raw: str):
    return None if raw == "" else float(raw)


def _rows_by_point(path: str) -> dict:
    """sweep_value -> list of rows (dicts of floats / None / str)."""
    out = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {k: (v if k == "converged" else _num(v)) for k, v in row.items()}
            out.setdefault(parsed["sweep_value"], []).append(parsed)
    return out


def _csv_path(outdir: str, sc: dict) -> str:
    kind = "timeseries" if sc["method"] == "propagate" else "steady"
    return os.path.join(outdir, f"{sc['basename']}_{kind}.csv")


def _timeseries_problem(sc: dict, value: float, rows: list) -> str | None:
    if len(rows) != sc["rows_per_point"]:
        return f"{len(rows)} rows, expected {sc['rows_per_point']}"
    for r in rows:
        if not all(math.isfinite(r[c]) for c in ("mean_n", "variance_n", "purity", "trace_error")):
            return f"non-finite observable at t={r['time']!r}"
        if r["trace_error"] > TRACE_ERROR_MAX:
            return f"trace_error {r['trace_error']:.3e} at t={r['time']!r}"
        if r["mean_n"] < -RANGE_SLACK or not -RANGE_SLACK < r["purity"] <= 1 + RANGE_SLACK:
            return f"mean_n or purity out of range at t={r['time']!r}"
        if r["mandel_q"] is not None and r["mandel_q"] < -1 - RANGE_SLACK:
            return f"Q {r['mandel_q']!r} below -1 at t={r['time']!r}"
        fid = r["fidelity"]
        if fid is not None and not -RANGE_SLACK <= fid <= 1 + RANGE_SLACK:
            return f"fidelity {fid!r} out of range at t={r['time']!r}"
    first = rows[0]
    if first["time"] != 0.0 or abs(first["mean_n"] - value * value) > INITIAL_TOL * value * value:
        return f"t=0 row is not coherent:{value!r} (mean_n {first['mean_n']!r})"
    if abs(first["mandel_q"]) > INITIAL_TOL:
        return f"t=0 Q {first['mandel_q']!r} is not Poissonian"
    if sc["gadget"] == "ncl":
        for prev, cur in zip(rows, rows[1:]):
            if cur["mean_n"] > prev["mean_n"] + RANGE_SLACK * max(1.0, prev["mean_n"]):
                return f"mean_n rises at t={cur['time']!r} under pure-lowering dynamics"
    return None


def _steady_problem(sc: dict, value: float, rows: list, f) -> str | None:
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    r = rows[0]
    if r["converged"] != "true":
        return "not converged"
    if not all(math.isfinite(r[c]) for c in STEADY_COLUMNS):
        return "non-finite observable"
    if sc["method"] == "steady_approx":
        want = ncl_recurrence(f, value, sc["epsilon"], sc["dim"]).mandel_q()
        if abs(r["mandel_q"] - want) > APPROX_Q_TOL:
            return f"Q {r['mandel_q']!r} vs recurrence {want!r}"
    elif value == max(sc["values"]) and r["mandel_q"] > STEADY_Q_MAX:
        return f"Q {r['mandel_q']!r} above {STEADY_Q_MAX} at the largest alpha0"
    return None


def _columns(sc: dict) -> tuple:
    return TIMESERIES_COLUMNS if sc["method"] == "propagate" else STEADY_COLUMNS


def _kept_rows(grouped: dict, sc: dict) -> list:
    out = []
    for value in sc["values"]:
        rows = grouped.get(value, [])
        for i, r in enumerate(rows):
            if i % REFERENCE_STRIDE == 0 or i == len(rows) - 1:
                out.append([value, i] + [r[c] for c in _columns(sc)])
    return out


def reference_rows(outdir: str, sc: dict) -> list:
    """Rows kept as reference: [sweep_value, row index, *observables]."""
    return _kept_rows(_rows_by_point(_csv_path(outdir, sc)), sc)


def _reference_problems(grouped: dict, sc: dict, expected: list) -> dict:
    """sweep_value -> first mismatch against the recorded reference."""
    got = {(row[0], row[1]): row[2:] for row in _kept_rows(grouped, sc)}
    problems = {}
    for row in expected:
        have = got.get((row[0], row[1]))
        if have is None:
            problems.setdefault(row[0], f"row {row[1]} missing")
            continue
        for name, want, val in zip(_columns(sc), row[2:], have):
            if want is None or val is None:
                ok = want is None and val is None
            elif math.isnan(want):
                ok = math.isnan(val)
            else:
                ok = abs(val - want) <= REFERENCE_TOL * max(1.0, abs(want))
            if not ok:
                problems.setdefault(row[0], f"row {row[1]} {name} {val!r} vs reference {want!r}")
    return problems


def check_pass(manifest: dict, returncodes: dict, reference: dict | None) -> tuple:
    """(points attempted, points failed, problem descriptions) of one pass."""
    attempted = failed = 0
    problems = []
    f = NonlinearFunction.from_name("x-1")  # every NCL workload uses f = x-1
    outdir = manifest["outdir"]
    for sc in manifest["scenarios"]:
        values = sc["values"]
        attempted += len(values)
        rc = returncodes[sc["basename"]]
        if rc != 0:
            failed += len(values)
            problems.append(f"{sc['basename']}: cli.main returned {rc}")
            continue
        try:
            grouped = _rows_by_point(_csv_path(outdir, sc))
        except (OSError, ValueError, KeyError) as exc:
            failed += len(values)
            problems.append(f"{sc['basename']}: {exc}")
            continue
        bad = {}
        for value in values:
            rows = grouped.get(value)
            if rows is None:
                bad[value] = "missing from the output"
            elif sc["method"] == "propagate":
                bad[value] = _timeseries_problem(sc, value, rows)
            else:
                bad[value] = _steady_problem(sc, value, rows, f)
        if reference is not None:
            for value, why in _reference_problems(grouped, sc, reference[sc["basename"]]).items():
                bad[value] = bad.get(value) or why
        for value, why in bad.items():
            if why is not None:
                failed += 1
                problems.append(f"{sc['basename']} point {value!r}: {why}")
    return attempted, failed, problems
