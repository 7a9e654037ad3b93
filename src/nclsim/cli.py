"""Command-line front end: config parsing, scenario execution, CSV and SVG.

Subcommands
    evolve <config>       time propagation (solver method must be propagate)
    steady <config>       stationary-state solve (steady / steady_approx)
    recurrence <config>   analytic diagonal recurrences
    sweep <config>        any method, as configured
    figure <preset>       run a named figure preset and emit its files
    validate <config>     parse + guard checks only, no solving

Exit codes: 0 success, 1 config error (found before anything is solved or
written), 2 numerical failure (no point succeeded) or a sweep worker that
died, 3 results emitted but some sweep point failed.

CSV output is RFC-4180-style (CRLF, header row, UTF-8, '.' decimal point)
with 17-significant-digit floats, so re-running an identical config produces
a byte-identical file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from . import __version__, svg
from .errors import ConfigError, SimulationError
from .config import FileOutput, parse_config
from .scenarios import METHODS, PRESET_NAMES, ScenarioResult, preflight, run_preset, run_sweep


def _f(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


# the columns of each CSV kind, in the order a config run writes the kinds
CSV_COLUMNS = {
    "timeseries": [
        "time",
        "sweep_value",
        "mean_n",
        "variance_n",
        "mandel_q",
        "fidelity",
        "purity",
        "trace_error",
    ],
    "steady": ["sweep_value", "mandel_q", "mean_n", "purity", "converged"],
    "distribution": ["sweep_value", "n", "p_n"],
    "poisson": ["sweep_value", "n", "p_n"],
}

# the point field holding the data of each distribution CSV kind
_DIST_FIELD = {"distribution": "distribution", "poisson": "poisson_reference"}


def _points_with(result: ScenarioResult, kind: str) -> list:
    """The points holding data for one CSV kind; a failed point has kind
    "error" and no distribution, so it never qualifies."""
    if kind in _DIST_FIELD:
        return [p for p in result.points if getattr(p, _DIST_FIELD[kind]) is not None]
    return [p for p in result.points if p.kind == kind]


def _write_csv(path: str, header: list, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # csv default line terminator is CRLF
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _rows(point, kind: str) -> list:
    """The rows one point contributes to the CSV of one kind; the columns
    between a row's sweep value and its last column name report fields."""
    value = _f(point.sweep_value)
    if kind == "timeseries":
        fields = CSV_COLUMNS[kind][2:-1]
        return [
            [_f(t), value, *(_f(getattr(r, c)) for c in fields), _f(trace_error)]
            for t, r, trace_error in zip(point.times, point.reports, point.trace_error)
        ]
    if kind == "steady":  # every steady point is solved exactly or analytically
        r = point.steady_report
        return [[value, *(_f(getattr(r, c)) for c in CSV_COLUMNS[kind][1:-1]), "true"]]
    probabilities = getattr(point, _DIST_FIELD[kind]).probabilities
    return [[value, str(n), _f(p)] for n, p in enumerate(probabilities)]


def emit_csv(result: ScenarioResult, path: str, kind: str) -> str:
    """Write one CSV of the given kind (timeseries | steady | distribution |
    poisson, the Poisson reference of each distribution)."""
    rows = (row for point in _points_with(result, kind) for row in _rows(point, kind))
    return _write_csv(path, CSV_COLUMNS[kind], rows)


def _timeseries_field(result: ScenarioResult) -> str:
    """The observable a time series is drawn by: fidelity when the reports
    carry one (a projector target), Mandel Q otherwise."""
    points = _points_with(result, "timeseries")
    has_fid = any(p.reports and p.reports[0].fidelity is not None for p in points)
    return "fidelity" if has_fid else "mandel_q"


def _emit_curve_csv(result: ScenarioResult, path: str, field: str) -> str:
    """Per-figure convenience CSV: (time, sweep value, one observable)."""
    rows = (
        [_f(t), _f(point.sweep_value), _f(getattr(r, field))]
        for point in _points_with(result, "timeseries")
        for t, r in zip(point.times, point.reports)
    )
    return _write_csv(path, ["t_Gamma", result.config.sweep.parameter, field], rows)


def _timeseries_series(result: ScenarioResult, field: str):
    series = []
    for point in _points_with(result, "timeseries"):
        ys = [getattr(r, field) for r in point.reports]
        ys = [float("nan") if y is None else y for y in ys]
        series.append((f"{result.config.sweep.parameter}={point.sweep_value:g}", point.times, ys))
    return series


def _steady_series(result: ScenarioResult, label: str):
    points = _points_with(result, "steady")
    return (label, [p.sweep_value for p in points], [p.steady_report.mandel_q for p in points])


def _steady_chart(path: str, series: list, parameter: str, title: str) -> str:
    """Q against the sweep parameter, one line per series."""
    svg.line_chart(
        path,
        series,
        xlabel={"alpha0": "α₀", "nbar": "n̄"}.get(parameter, parameter),
        ylabel="Q",
        logx=parameter == "alpha0",
        title=title,
        mark_min=parameter == "nbar",
    )
    return path


def emit_svg(result: ScenarioResult, path: str, distribution: bool = False) -> str:
    """One chart per call: the result's distributions as bars (callers ask
    for them only when some point holds one), or else the curve of its main
    observable."""
    name = result.config.name
    if distribution:
        groups = [
            (f"{result.config.sweep.parameter}={p.sweep_value:g}", p.distribution.probabilities)
            for p in _points_with(result, "distribution")
        ]
        refs = [p.poisson_reference.probabilities for p in _points_with(result, "poisson")]
        ref = ("Poisson (same mean)", refs[0]) if refs else None
        svg.bar_chart(path, groups, xlabel="n", ylabel="p_n", title=name, reference=ref)
    elif _points_with(result, "timeseries"):
        field = _timeseries_field(result)
        svg.line_chart(
            path,
            _timeseries_series(result, field),
            xlabel="Γt",
            ylabel="fidelity" if field == "fidelity" else "Q",
            logx=result.config.solver.t_grid[0] == "log",
            title=name,
        )
    else:
        _steady_chart(path, [_steady_series(result, name)], result.config.sweep.parameter, name)
    return path


# ---------------------------------------------------------------------------
# emission plans


def _write_provenance(base: str, payload: dict, files: list) -> list:
    """Write <base>_provenance.json listing the emitted files, then itself."""
    path = base + "_provenance.json"
    listed = sorted(os.path.basename(f) for f in files) + [os.path.basename(path)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(payload, files=listed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return files + [path]


def _result_status(results) -> int:
    points = [p for result in results for p in result.points]
    failed = [p for p in points if p.error is not None]
    if failed and len(failed) == len(points):
        return 2  # nothing usable came out
    if failed:
        return 3
    return 0


def _emit_csvs(result: ScenarioResult, base: str) -> list:
    """The CSVs of one result: one per kind some point holds data for (time
    series only when the config records them), named <base>_<kind>.csv."""
    return [
        emit_csv(result, f"{base}_{kind}.csv", kind)
        for kind in CSV_COLUMNS
        if _points_with(result, kind) and (kind != "timeseries" or result.config.output.timeseries)
    ]


def _emit_config_outputs(result: ScenarioResult, fileout: FileOutput) -> tuple:
    os.makedirs(fileout.directory, exist_ok=True)
    base = os.path.join(fileout.directory, fileout.basename)
    files = _emit_csvs(result, base)
    status = _result_status([result])
    if fileout.svg and status != 2:
        files.append(emit_svg(result, base + ".svg"))
    if fileout.svg and _points_with(result, "distribution"):
        files.append(emit_svg(result, base + "_distribution.svg", distribution=True))
    return _write_provenance(base, result.provenance, files), status


def _figure_chart(name: str, results: dict, path: str) -> str:
    """A preset's one chart: Q of every family when there are several, else
    the family's distributions when it has some, else its main curve."""
    if len(results) > 1:
        series = [_steady_series(result, label) for label, result in results.items()]
        parameter = next(iter(results.values())).config.sweep.parameter
        return _steady_chart(path, series, parameter, name)
    (result,) = results.values()
    return emit_svg(result, path, distribution=bool(_points_with(result, "distribution")))


def _figure_files(name: str, results: dict, outdir: str, want_svg: bool) -> tuple:
    """Each family's config-run CSVs under <name> (one family) or
    <name>_<label>, a curve CSV beside each time series, and <name>.svg."""
    os.makedirs(outdir, exist_ok=True)
    files = []
    for label, result in results.items():
        base = os.path.join(outdir, name if len(results) == 1 else f"{name}_{label}")
        csvs = _emit_csvs(result, base)
        files.extend(csvs)
        if base + "_timeseries.csv" in csvs:
            field = _timeseries_field(result)
            files.append(_emit_curve_csv(result, f"{base}_{field}.csv", field))
    status = _result_status(results.values())
    if want_svg and status != 2:
        files.append(_figure_chart(name, results, os.path.join(outdir, f"{name}.svg")))
    payload = {
        "version": __version__,
        "preset": name,
        "families": {label: result.provenance for label, result in results.items()},
    }
    return _write_provenance(os.path.join(outdir, name), payload, files), status


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclsim",
        description="Single-mode bosonic open-system simulator with engineered dissipation.",
    )
    parser.add_argument("--version", action="version", version=f"nclsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, text in (
        ("evolve", "time propagation from a config file"),
        ("steady", "stationary-state solve from a config file"),
        ("recurrence", "analytic diagonal recurrences from a config file"),
        ("sweep", "run a config file with whatever solver it specifies"),
        ("validate", "parse and guard-check a config file without solving"),
    ):
        p = sub.add_parser(cmd, help=text)
        p.add_argument("config", help="path to an INI scenario file")
    fig = sub.add_parser("figure", help="run a named figure preset")
    fig.add_argument("preset", choices=PRESET_NAMES)
    fig.add_argument("--out", default=".", help="output directory (default: .)")
    fig.add_argument("--no-svg", action="store_true", help="skip SVG emission")
    fig.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a preset parameter (dim, tol, values, rates)",
    )
    return parser


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} must be KEY=VALUE")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _report_failed_points(results) -> None:
    for result in results:
        for point in result.points:
            if point.error is not None:
                print(f"point {point.sweep_value!r} failed: {point.error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "validate":
            config, _ = parse_config(args.config)
            try:
                preflight(config)
            except SimulationError as exc:  # guard trips make the config unusable
                raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
            print(f"OK: {args.config} (dim={config.dim}, method={config.solver.method})")
            return 0
        if args.command == "figure":
            families = run_preset(args.preset, overrides=_parse_overrides(args.override))
            files, status = _figure_files(args.preset, families, args.out, not args.no_svg)
            results = list(families.values())
        else:  # config-driven runs
            config, fileout = parse_config(args.config)
            methods = tuple(m for m, spec in METHODS.items() if spec[0] == args.command)
            if args.command != "sweep" and config.solver.method not in methods:
                raise ConfigError(
                    f"subcommand {args.command!r} expects solver method in "
                    f"{methods}, config says {config.solver.method!r}"
                )
            results = [run_sweep(config)]
            files, status = _emit_config_outputs(results[0], fileout)
        for f in files:
            print(f)
        _report_failed_points(results)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
