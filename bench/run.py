"""nclsim benchmark: seeded scenario files run through nclsim.cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run it from the root of a checkout; nclsim is imported from ./src, and all
inputs, outputs and spans go to ./.bench_work/<workload>.  The workloads and
why each exists are in bench/workloads.py; the metrics, their units and
bounds are in BENCHMARK.json.

--trace 0 measures what a user of the CLI waits for:
  wall_s       median time of a serial pass over every config of the workload
               (solve, observables, CSV and SVG), NCLSIM_WORKERS=1, BLAS at
               its default thread count
  pool_wall_s  the same with NCLSIM_WORKERS=nproc and OPENBLAS_NUM_THREADS=1
  setup_s      median over SETUP_SAMPLES fresh interpreters of the time to
               import nclsim, parse the configs and run scenarios.preflight
  peak_rss_mb  peak resident memory of the serial interpreter
The set-ups come first; then serial and pool passes share what is left of
--seconds equally (share_time).  --seconds counts from the start of the run.

--trace 1 shares the time the same way between untraced and traced serial
passes and reports per-layer self times and counts from spans recorded around
nclsim's public functions (bench/tracing.py), the cost of one liouvillian.rhs
call, and the tracing overhead (median traced minus median untraced pass
time).

Every pass is checked (bench/checks.py); failed sweep points are counted in
"failed" out of "attempted".  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from tracing import SELF_TIME_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = ".bench_work"
TIME_LIMIT_S = 165.0  # the whole run, set-up included, ends before this
SETUP_SAMPLES = 3
MIN_CALLS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not measure; no result is printed."""


def serial_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["NCLSIM_WORKERS"] = "1"
    return env


def pool_env(nproc: int) -> dict:
    env = serial_env()
    env["NCLSIM_WORKERS"] = str(nproc)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Child:
    """A child.py interpreter answering one JSON line per command."""

    def __init__(self, args: list, env: dict, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def expect(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise BenchError(f"no answer within the {TIME_LIMIT_S:.0f} s limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"child exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.expect()

    def quit(self) -> dict:
        out = self.ask("quit")
        self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        return out

    def kill(self) -> None:
        """Kill the child and the processes it started (the workers of a pool
        pass cut short), and wait until all of them have ended."""
        if self.proc.poll() is None:
            workers = _descendants(self.proc.pid)
            self.proc.kill()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _wait_gone(workers)
        self.proc.wait()


def _descendants(pid: int) -> list:
    """Every process below ``pid`` in the process tree."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tids = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{parent}/task/{tid}/children", encoding="ascii") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            todo.extend(kids)
    return found


def _wait_gone(pids: list, timeout: float = 10.0) -> None:
    """Wait until none of ``pids`` (not children of this process) runs; a
    zombie counts as ended."""
    end = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < end:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                break
            if state in ("Z", "X"):
                break
            time.sleep(0.05)


class Tally:
    """Sweep points attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result: dict) -> dict:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems.extend(result["problems"])
        return result


def measure_setup(manifest: str, deadline: float) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, "setup", manifest],
        env=serial_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["done"] - start


def share_time(runs: dict, budget_end: float, deadline: float) -> dict:
    """Call the functions of ``runs`` (name -> function) one at a time until
    the time is up, so that each gets an equal share of the run.  Each call
    goes to the function that has used the least time so far, among those
    whose next call, at the mean time of their earlier calls, still ends
    before ``budget_end``; each is first called MIN_CALLS times unless that
    would pass the deadline.  Returns name -> number of calls."""
    spent = dict.fromkeys(runs, 0.0)
    calls = dict.fromkeys(runs, 0)
    while True:
        now = time.monotonic()
        ends = {k: now + (spent[k] / calls[k] if calls[k] else 0.0) for k in runs}
        fits = [
            k for k in runs
            if ends[k] <= deadline and (calls[k] < MIN_CALLS or ends[k] <= budget_end)
        ]
        if not fits:
            return calls
        name = min(fits, key=lambda k: (calls[k] >= MIN_CALLS, spent[k]))
        start = time.monotonic()
        runs[name]()
        spent[name] += time.monotonic() - start
        calls[name] += 1


def end_to_end(manifest: str, reference: list, budget_end: float, deadline: float, tally: Tally):
    setup = [measure_setup(manifest, deadline) for _ in range(SETUP_SAMPLES)]
    nproc = len(os.sched_getaffinity(0))
    serial = Child(["serve", manifest, *reference], serial_env(), deadline)
    pool = Child(["serve", manifest, *reference], pool_env(nproc), deadline)
    try:
        serial.expect()
        pool.expect()
        walls = {"serial": [], "pool": []}

        def run(child, key):
            walls[key].append(tally.add(child.ask("pass"))["wall_s"])

        calls = share_time(
            {"serial": lambda: run(serial, "serial"), "pool": lambda: run(pool, "pool")},
            budget_end,
            deadline,
        )
        serial_end, pool_end = serial.quit(), pool.quit()
    finally:
        serial.kill()
        pool.kill()
    metrics = {
        "wall_s": statistics.median(walls["serial"]),
        "pool_wall_s": statistics.median(walls["pool"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": serial_end["peak_rss_mb"],
    }
    samples = {"wall_s": walls["serial"], "pool_wall_s": walls["pool"], "setup_s": setup}
    provenance = {"serial": serial_end["provenance"], "pool": pool_end["provenance"]}
    note = f"{SETUP_SAMPLES} set-ups, {calls['serial']} serial and {calls['pool']} pool passes"
    return metrics, samples, provenance, note


def layers(manifest: str, reference: list, budget_end: float, deadline: float, tally: Tally):
    child = Child(["serve", manifest, *reference], serial_env(), deadline)
    try:
        child.expect()
        untraced, traced = [], []
        calls = share_time(
            {
                "untraced": lambda: untraced.append(tally.add(child.ask("pass"))),
                "traced": lambda: traced.append(tally.add(child.ask("traced"))),
            },
            budget_end,
            deadline,
        )
        rhs = child.ask("rhs")
        end = child.quit()
    finally:
        child.kill()
    unbound = sorted({name for t in traced for name in t["unbound"]})
    if unbound:
        print(f"not traced (no such function): {', '.join(unbound)}", file=sys.stderr)
    per_pass = [dict(t["layers"], **{"cli.csv_bytes": t["csv_bytes"]}) for t in traced]
    metrics = {}
    for k, first in per_pass[0].items():  # counts stay whole numbers
        pick = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[k] = pick(p[k] for p in per_pass)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(u["wall_s"] for u in untraced)
    metrics["liouvillian.rhs_us"] = rhs["rhs_us"]
    samples = {"untraced_wall_s": [u["wall_s"] for u in untraced], "traced": per_pass, "rhs": rhs}
    note = (
        f"{calls['untraced']} untraced and {calls['traced']} traced serial passes, "
        f"{rhs['calls']} rhs calls at dim "
        f"{rhs['dim']}; self times as a share of the traced pass ({traced_wall:.4g} s):\n"
        + "\n".join(
            f"  {metric}: {metrics[metric] / traced_wall:.1%}" for metric in SELF_TIME_METRICS.values()
        )
    )
    return metrics, samples, {"serial": end["provenance"]}, note


def _source_digest() -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join("src", "nclsim")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _declared_metrics(trace: bool) -> list:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    workdir = os.path.join(WORKDIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = workloads.generate(args.workload, args.seed, workdir)
    reference = ["--reference", REFERENCE] if args.seed == workloads.DEFAULT_SEED else []
    tally = Tally()
    measure = layers if args.trace else end_to_end
    metrics, samples, child_provenance, note = measure(
        manifest, reference, start + args.seconds, deadline, tally
    )

    declared = _declared_metrics(bool(args.trace))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        **child_provenance,
    }
    ratio = tally.failed / tally.attempted
    print(f"{args.workload} seed {args.seed}: {note}")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  point_fail_ratio = {tally.failed}/{tally.attempted} = {ratio:.6g}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for problem in tally.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "samples": samples, "provenance": provenance,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "problems": tally.problems}, fh, indent=2)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def record_reference() -> None:
    """Write bench/reference.json from one serial pass per workload at the
    default seed; run only at a commit whose outputs are trusted."""
    deadline = time.monotonic() + len(workloads.WORKLOADS) * TIME_LIMIT_S
    out = {"seed": workloads.DEFAULT_SEED, "git_commit": _git_commit(),
           "source_sha256": _source_digest()}
    rows = []  # [workload, config basename, sweep value, row index, *observables]
    for name in workloads.WORKLOADS:
        workdir = os.path.join(WORKDIR, "reference", name)
        shutil.rmtree(workdir, ignore_errors=True)
        manifest = workloads.generate(name, workloads.DEFAULT_SEED, workdir)
        child = Child(["serve", manifest], serial_env(), deadline)
        try:
            child.expect()
            result = child.ask("pass")
            if result["failed"]:
                raise BenchError(f"{name}: {result['problems']}")
            for basename, kept in child.ask("reference").items():
                rows.extend([name, basename, *row] for row in kept)
            child.quit()
        finally:
            child.kill()
    meta = json.dumps(out)[:-1]  # the rows follow, one per line
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(meta + ', "rows": [\n' + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nclsim benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "nclsim", "__init__.py")):
        print("src/nclsim not found: run from the root of an nclsim checkout", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
