"""Command-line front end: config parsing, scenario execution, CSV and SVG.

Subcommands
    evolve <config>       time propagation (solver method must be propagate)
    steady <config>       stationary-state solve (steady / steady_approx)
    recurrence <config>   analytic diagonal recurrences
    sweep <config>        any method, as configured
    figure <preset>       run a named figure preset and emit its files
    validate <config>     parse + guard checks only, no solving

Exit codes: 0 success, 1 config error (found before anything is solved or
written), 2 numerical failure (no point succeeded), 3 results emitted but
some sweep point failed.

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

from . import __version__, svg
from .errors import ConfigError, SimulationError
from .config import FileOutput, parse_config
from .scenarios import (
    PRESET_NAMES,
    ScenarioResult,
    expand_preset,
    preflight,
    run_preset,
    run_sweep,
)


def _f(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _open_csv(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh)  # csv default line terminator is CRLF


TIMESERIES_HEADER = [
    "time",
    "sweep_value",
    "mean_n",
    "variance_n",
    "mandel_q",
    "fidelity",
    "purity",
    "trace_error",
]
DISTRIBUTION_HEADER = ["sweep_value", "n", "p_n"]
STEADY_HEADER = ["sweep_value", "mandel_q", "mean_n", "purity", "converged"]


def emit_csv(result: ScenarioResult, path: str, kind: str) -> str:
    """Write one CSV of the given kind (timeseries | steady | distribution |
    poisson, the Poisson reference of each distribution)."""
    fh, writer = _open_csv(path)
    with fh:
        if kind == "timeseries":
            writer.writerow(TIMESERIES_HEADER)
            for point in result.points:
                if point.error is not None or point.kind != "timeseries":
                    continue
                for i, t in enumerate(point.times):
                    r = point.reports[i]
                    writer.writerow(
                        [
                            _f(t),
                            _f(point.sweep_value),
                            _f(r.mean_n),
                            _f(r.variance_n),
                            _f(r.mandel_q),
                            _f(r.fidelity),
                            _f(r.purity),
                            _f(point.trace_error[i]),
                        ]
                    )
        elif kind == "steady":
            writer.writerow(STEADY_HEADER)
            for point in result.points:
                if point.error is not None or point.kind != "steady":
                    continue
                r = point.steady_report
                writer.writerow(
                    [
                        _f(point.sweep_value),
                        _f(r.mandel_q),
                        _f(r.mean_n),
                        _f(r.purity),
                        "true" if point.converged else "false",
                    ]
                )
        elif kind in ("distribution", "poisson"):
            writer.writerow(DISTRIBUTION_HEADER)
            for point in result.points:
                dist = point.distribution if kind == "distribution" else point.poisson_reference
                if point.error is not None or dist is None:
                    continue
                for n, p in enumerate(dist.probabilities):
                    writer.writerow([_f(point.sweep_value), str(n), _f(p)])
        else:
            raise ConfigError(f"unknown csv kind {kind!r}")
    return path


def _emit_curve_csv(result: ScenarioResult, path: str, x_name: str, sweep_name: str, field: str) -> str:
    """Per-figure convenience CSV: (x, sweep label, one observable)."""
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow([x_name, sweep_name, field])
        for point in result.points:
            if point.error is not None or point.kind != "timeseries":
                continue
            for i, t in enumerate(point.times):
                writer.writerow([_f(t), _f(point.sweep_value), _f(getattr(point.reports[i], field))])
    return path


def _timeseries_series(result: ScenarioResult, field: str, sweep_name: str):
    series = []
    for point in result.points:
        if point.error is not None or point.kind != "timeseries":
            continue
        ys = [getattr(r, field) for r in point.reports]
        ys = [float("nan") if y is None else y for y in ys]
        series.append((f"{sweep_name}={point.sweep_value:g}", point.times, ys))
    return series


def _steady_series(result: ScenarioResult, label: str):
    xs, ys = [], []
    for point in result.points:
        if point.error is not None or point.kind != "steady":
            continue
        xs.append(point.sweep_value)
        ys.append(point.steady_report.mandel_q)
    return (label, xs, ys)


def emit_svg(result: ScenarioResult, path: str, which: str = "auto") -> str:
    """One chart per call: curve of the result's main observable, or bars."""
    if which == "auto":
        kinds = {p.kind for p in result.points if p.error is None}
        which = "timeseries" if "timeseries" in kinds else "steady"
    if which == "timeseries":
        has_fid = any(
            p.kind == "timeseries" and p.reports and p.reports[0].fidelity is not None
            for p in result.points
            if p.error is None
        )
        field = "fidelity" if has_fid else "mandel_q"
        logx = result.config.solver.t_grid[0] == "log"
        svg.line_chart(
            path,
            _timeseries_series(result, field, result.config.sweep.parameter),
            xlabel="Γt",
            ylabel="fidelity" if has_fid else "Q",
            logx=logx,
            title=result.config.name,
        )
    elif which == "steady":
        xl = {"alpha0": "α₀", "nbar": "n̄"}.get(result.config.sweep.parameter, result.config.sweep.parameter)
        svg.line_chart(
            path,
            [_steady_series(result, result.config.name)],
            xlabel=xl,
            ylabel="Q",
            logx=result.config.sweep.parameter == "alpha0",
            title=result.config.name,
            mark_min=result.config.sweep.parameter == "nbar",
        )
    elif which == "distribution":
        groups = []
        ref = None
        for point in result.points:
            if point.error is None and point.distribution is not None:
                groups.append(
                    (
                        f"{result.config.sweep.parameter}={point.sweep_value:g}",
                        point.distribution.probabilities,
                    )
                )
                if point.poisson_reference is not None and ref is None:
                    pr = point.poisson_reference.probabilities
                    ref = ("Poisson (same mean)", list(range(pr.size)), pr)
        if not groups:
            raise ConfigError("no distributions to plot")
        svg.bar_chart(path, groups, xlabel="n", ylabel="p_n", title=result.config.name, reference=ref)
    else:
        raise ConfigError(f"unknown svg kind {which!r}")
    return path


# ---------------------------------------------------------------------------
# emission plans


def _write_provenance(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _result_status(results) -> int:
    points = [p for result in results for p in result.points]
    failed = [p for p in points if p.error is not None]
    if failed and len(failed) == len(points):
        return 2  # nothing usable came out
    if failed:
        return 3
    return 0


def _emit_config_outputs(result: ScenarioResult, fileout: FileOutput) -> tuple:
    os.makedirs(fileout.directory, exist_ok=True)
    base = os.path.join(fileout.directory, fileout.basename)
    files = []
    has_ts = any(p.kind == "timeseries" and p.error is None for p in result.points)
    has_steady = any(p.kind == "steady" and p.error is None for p in result.points)
    has_dist = any(p.distribution is not None and p.error is None for p in result.points)
    has_pois = any(p.poisson_reference is not None and p.error is None for p in result.points)
    if has_ts and result.config.output.timeseries:
        files.append(emit_csv(result, base + "_timeseries.csv", kind="timeseries"))
    if has_steady:
        files.append(emit_csv(result, base + "_steady.csv", kind="steady"))
    if has_dist:
        files.append(emit_csv(result, base + "_distribution.csv", kind="distribution"))
    if has_pois:
        files.append(emit_csv(result, base + "_poisson.csv", kind="poisson"))
    if fileout.svg and (has_ts or has_steady):
        files.append(emit_svg(result, base + ".svg"))
    if fileout.svg and has_dist:
        files.append(emit_svg(result, base + "_distribution.svg", which="distribution"))
    payload = dict(result.provenance)
    payload["files"] = sorted(os.path.basename(f) for f in files) + [
        fileout.basename + "_provenance.json"
    ]
    files.append(_write_provenance(base + "_provenance.json", payload))
    return files, _result_status([result])


def _figure_files(name: str, results: dict, outdir: str, want_svg: bool) -> tuple:
    os.makedirs(outdir, exist_ok=True)
    files = []

    def path(stem):
        return os.path.join(outdir, stem)

    if name in ("fig1a", "fig1c"):
        result = results["main"]
        field = "fidelity" if name == "fig1a" else "mandel_q"
        files.append(emit_csv(result, path(f"{name}_timeseries.csv"), kind="timeseries"))
        files.append(
            _emit_curve_csv(result, path(f"{name}_{field}.csv"), "t_Gamma", "alpha", field)
        )
        if want_svg:
            files.append(emit_svg(result, path(f"{name}.svg"), which="timeseries"))
    elif name in ("fig1b", "fig1d"):
        result = results["main"]
        files.append(emit_csv(result, path(f"{name}_distribution.csv"), kind="distribution"))
        if name == "fig1d":
            files.append(emit_csv(result, path(f"{name}_poisson.csv"), kind="poisson"))
        if want_svg:
            files.append(emit_svg(result, path(f"{name}.svg"), which="distribution"))
    elif name in ("fig2a", "fig2b", "fig2c"):
        series = []
        for label, result in results.items():
            files.append(emit_csv(result, path(f"{name}_{label}_steady.csv"), kind="steady"))
            files.append(
                emit_csv(result, path(f"{name}_{label}_distribution.csv"), kind="distribution")
            )
            series.append(_steady_series(result, label))
        if want_svg:
            svg.line_chart(
                path(f"{name}.svg"), series, xlabel="α₀", ylabel="Q", logx=True, title=name
            )
            files.append(path(f"{name}.svg"))
    elif name == "fig2d":
        result = results["main"]
        files.append(emit_csv(result, path(f"{name}_steady.csv"), kind="steady"))
        if want_svg:
            files.append(emit_svg(result, path(f"{name}.svg"), which="steady"))
    else:
        raise ConfigError(f"unknown preset {name!r}")

    payload = {
        "version": __version__,
        "preset": name,
        "families": {label: result.provenance for label, result in results.items()},
        "files": sorted(os.path.basename(f) for f in files) + [f"{name}_provenance.json"],
    }
    files.append(_write_provenance(path(f"{name}_provenance.json"), payload))
    return files, _result_status(list(results.values()))


# ---------------------------------------------------------------------------
# entry point

_METHODS_FOR = {
    "evolve": ("propagate",),
    "steady": ("steady", "steady_approx"),
    "recurrence": ("recurrence_ncl", "recurrence_thermal"),
    "sweep": ("propagate", "steady", "steady_approx", "recurrence_ncl", "recurrence_thermal"),
}


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
            overrides = _parse_overrides(args.override)
            results = run_preset(args.preset, overrides=overrides)
            files, status = _figure_files(args.preset, results, args.out, not args.no_svg)
            for f in files:
                print(f)
            _report_failed_points(results.values())
            return status
        # config-driven runs
        config, fileout = parse_config(args.config)
        if config.solver.method not in _METHODS_FOR[args.command]:
            raise ConfigError(
                f"subcommand {args.command!r} expects solver method in "
                f"{_METHODS_FOR[args.command]}, config says {config.solver.method!r}"
            )
        result = run_sweep(config)
        files, status = _emit_config_outputs(result, fileout)
        for f in files:
            print(f)
        _report_failed_points([result])
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
