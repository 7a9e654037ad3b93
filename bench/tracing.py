"""Spans around nclsim's layers, recorded from the benchmark's own code.

The tracer rebinds public functions in the module namespaces where their
callers look them up (``scenarios.propagate``, ``steady.superoperator_sparse``
and so on), so the program itself is unchanged.  Spans stay in memory and
are written out when the benchmark ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name): each call of module.attribute made through
# that namespace becomes one span.
BOUNDARIES = (
    ("nclsim.cli", "parse_config", "config.parse"),
    ("nclsim.cli", "emit_csv", "cli.emit"),
    ("nclsim.cli", "emit_svg", "cli.emit"),
    ("nclsim.scenarios", "run_point", "scenarios.point"),
    ("nclsim.scenarios", "build_system", "scenarios.build_system"),
    ("nclsim.scenarios", "propagate", "evolve.propagate"),
    ("nclsim.scenarios", "observable_report", "observables.report"),
    ("nclsim.scenarios", "steady_state_nullspace", "steady.nullspace"),
    ("nclsim.scenarios", "approximate_steady_state", "steady.approx"),
    ("nclsim.steady", "superoperator_sparse", "liouvillian.superoperator"),
)

# span name -> per-layer metric reporting its summed self time
SELF_TIME_METRICS = {
    "config.parse": "config.parse_s",
    "cli.emit": "cli.emit_s",
    "scenarios.build_system": "scenarios.build_system_s",
    "evolve.propagate": "evolve.propagate_s",
    "observables.report": "observables.report_s",
    "steady.nullspace": "steady.nullspace_s",
    "steady.approx": "steady.approx_s",
    "liouvillian.superoperator": "liouvillian.superoperator_s",
}


class Tracer:
    """Records spans (pass, id, parent, name, start, end) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # pass id -> counter name -> total
        self.sample = None  # (equation, state) of the first solve, for the rhs timing
        self.missing = []
        self._stack = []
        self._pass = 0

    def _count(self, name: str, amount: int) -> None:
        counts = self.counts.setdefault(self._pass, {})
        counts[name] = counts.get(name, 0) + int(amount)

    def _observe(self, name: str, args, result) -> None:
        if name == "evolve.propagate":
            self._count("evolve.states_recorded", len(result.states))
            if self.sample is None:
                self.sample = (args[0], result.states[len(result.states) // 2])
        elif name == "steady.nullspace" and self.sample is None:
            self.sample = (args[0], result)
        elif name == "liouvillian.superoperator":
            self._count("liouvillian.superoperator_nnz", result.nnz)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [self._pass, sid, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = time.perf_counter()

    def _wrap(self, original, name):
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self, pass_id: int):
        """Rebind every boundary for the duration of one pass."""
        self._pass = pass_id
        restore = []
        self.missing = []
        for module_name, attr, name in BOUNDARIES:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            restore.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer self times, point durations and counts of one pass."""
        spans = [s for s in self.spans if s[0] == pass_id]
        child_time = {}
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_time = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        points = []
        reports = 0
        for _, sid, _, name, start, end in spans:
            if name in SELF_TIME_METRICS:
                self_time[SELF_TIME_METRICS[name]] += (end - start) - child_time.get(sid, 0.0)
            if name == "scenarios.point":
                points.append(end - start)
            if name == "observables.report":
                reports += 1
        out = dict(self_time)
        out["scenarios.point_s.max"] = max(points, default=0.0)
        out["scenarios.point_s.sum"] = sum(points)
        out["observables.report_calls"] = reports
        counts = self.counts.get(pass_id, {})
        for name in ("evolve.states_recorded", "liouvillian.superoperator_nnz"):
            out[name] = counts.get(name, 0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for pass_id, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"pass": pass_id, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

