"""One interpreter of the benchmark, running a workload through nclsim.cli.main.

    python3 bench/child.py setup MANIFEST
        Import nclsim, parse every config of the workload and run
        scenarios.preflight on it, then print the monotonic clock as JSON.
    python3 bench/child.py serve MANIFEST [--reference FILE]
        Answer one command per line of stdin with one JSON line on stdout:
          pass       run every config of the workload once, check the outputs
          traced     the same, with spans recorded around nclsim's layers
          rhs        time one liouvillian.rhs call on the workload's equation
          reference  the reference rows of the last pass's outputs
          quit       peak RSS and provenance; write the spans; exit

Run from the checkout root; nclsim is imported from ./src.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout

sys.path.insert(0, os.path.abspath("src"))

RHS_SECONDS = 0.5
RHS_MIN_CALLS = 20
MAX_PROBLEMS = 5


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(manifest: dict) -> None:
    import nclsim.cli  # noqa: F401  -- what the nclsim command imports
    from nclsim.config import parse_config
    from nclsim.scenarios import preflight

    for sc in manifest["scenarios"]:
        config, _ = parse_config(sc["config"])
        preflight(config)
    print(json.dumps({"done": time.monotonic()}), flush=True)


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    out = {}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "nclsim_workers": os.environ.get("NCLSIM_WORKERS"),
    }


class Runner:
    """Runs passes of one workload and keeps the spans of traced passes."""

    def __init__(self, manifest_path: str, reference_path: str | None):
        import checks
        import tracing
        from nclsim import cli

        self.cli = cli
        self.checks = checks
        self.workdir = os.path.dirname(manifest_path)
        self.manifest = _load(manifest_path)
        self.reference = None
        if reference_path:
            self.reference = {}
            for workload, basename, *row in _load(reference_path)["rows"]:
                if workload == self.manifest["workload"]:
                    self.reference.setdefault(basename, []).append(row)
        self.tracer = tracing.Tracer()
        self.passes = 0

    def _main(self, sc: dict):
        try:
            return self.cli.main([sc["subcommand"], sc["config"]])
        except Exception:  # a crash in the program fails the points, not the benchmark
            traceback.print_exc(file=sys.stderr)
            return "exception"

    def run_pass(self, traced: bool) -> dict:
        self.passes += 1
        outdir = self.manifest["outdir"]
        shutil.rmtree(outdir, ignore_errors=True)
        tracer = self.tracer if traced else None
        returncodes = {}
        with (tracer.installed(self.passes) if tracer else nullcontext()):
            with redirect_stdout(io.StringIO()):  # the CLI lists the files it wrote
                start = time.perf_counter()
                for sc in self.manifest["scenarios"]:
                    with (tracer.span("cli.main") if tracer else nullcontext()):
                        returncodes[sc["basename"]] = self._main(sc)
                wall = time.perf_counter() - start
        attempted, failed, problems = self.checks.check_pass(
            self.manifest, returncodes, self.reference
        )
        out = {
            "wall_s": wall,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:MAX_PROBLEMS],
            "csv_bytes": sum(os.path.getsize(p) for p in glob.glob(os.path.join(outdir, "*.csv"))),
        }
        if tracer:
            out["layers"] = tracer.pass_metrics(self.passes)
            out["unbound"] = tracer.missing
        return out

    def rhs_timing(self) -> dict:
        from nclsim.liouvillian import rhs

        me, rho = self.tracer.sample
        for _ in range(3):
            rhs(me, rho)
        samples = []
        end = time.perf_counter() + RHS_SECONDS
        while time.perf_counter() < end or len(samples) < RHS_MIN_CALLS:
            t = time.perf_counter()
            rhs(me, rho)
            samples.append(time.perf_counter() - t)
        return {"rhs_us": statistics.median(samples) * 1e6, "calls": len(samples), "dim": me.dim}

    def reference_rows(self) -> dict:
        outdir = self.manifest["outdir"]
        return {
            sc["basename"]: self.checks.reference_rows(outdir, sc) for sc in self.manifest["scenarios"]
        }

    def finish(self) -> dict:
        if self.tracer.spans:
            self.tracer.write(os.path.join(self.workdir, "spans.jsonl"))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        return {"peak_rss_mb": rss_kib * 1024 / 1e6, "provenance": provenance()}


def serve(manifest_path: str, reference_path: str | None) -> None:
    channel = sys.stdout
    runner = Runner(manifest_path, reference_path)
    commands = {
        "pass": lambda: runner.run_pass(traced=False),
        "traced": lambda: runner.run_pass(traced=True),
        "rhs": runner.rhs_timing,
        "reference": runner.reference_rows,
        "quit": runner.finish,
    }

    def reply(payload: dict) -> None:
        channel.write(json.dumps(payload) + "\n")
        channel.flush()

    reply({"ready": True})
    for line in sys.stdin:
        command = line.strip()
        reply(commands[command]())
        if command == "quit":
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "serve"))
    parser.add_argument("manifest")
    parser.add_argument("--reference")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(_load(args.manifest))
    else:
        serve(args.manifest, args.reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
