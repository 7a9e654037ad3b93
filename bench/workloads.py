"""Seeded inputs for the nclsim benchmark.

Every workload is a function of a ``random.Random`` that returns the INI
scenario files the program is run on; the program only ever sees these
generated files.  The same seed gives byte-identical files.

Solve cost rises steeply with the coherent amplitude α and the benchmark must
compare runs made with different seeds, so the seed jitters each α inside a
band 0.02 wide instead of drawing it from the whole stated range: different
seeds give different inputs of comparable cost.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Scenario:
    """One generated INI file and what its outputs must look like."""

    basename: str
    subcommand: str  # nclsim cli subcommand: evolve | steady
    method: str  # propagate | steady | steady_approx
    gadget: str  # ncl | projector
    dim: int
    values: tuple  # sweep values, in the order of the file
    rows_per_point: int  # timeseries rows per sweep value (0 for steady solves)
    epsilon: float  # Γ/γ, used by the steady_approx recurrence check
    ini: str


def _fmt(x: float) -> str:
    return repr(float(x))


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


ALPHA_BAND = 0.02


def _band(rng: random.Random, lo: float) -> float:
    return round(lo + ALPHA_BAND * rng.random(), 6)


def _transient(basename, outdir, dim, gamma_nonlinear, gadget, t_grid, alphas, distribution):
    n_grid = int(t_grid.split(":")[3])
    ini = _ini(
        {
            "system": {"dim": dim, "gamma_linear": 1.0, "gamma_nonlinear": gamma_nonlinear},
            "gadget": gadget,
            "initial": {"state": "coherent:2.0"},
            "solver": {"method": "propagate", "t_grid": t_grid},
            "sweep": {"parameter": "alpha", "values": ",".join(map(_fmt, alphas))},
            "output": {
                "directory": outdir,
                "basename": basename,
                "timeseries": "true",
                "svg": "true",
                **distribution,
            },
        }
    )
    return Scenario(basename, "evolve", "propagate", gadget["kind"], dim, alphas, n_grid + 1, 0.0, ini)


# transient_ncl -- NCL f = x-1 at dim 130 (Γ = 1, γ = 0.2) from a coherent
# state, log grid 1e-5..1 with 200 points, two α from [2, 5].
# Why: the equation is pure-lowering, so evolve runs the windowed DP45 loop on
# banded operators; evolve and observables do almost all the work and steady
# none.  α near 2 and 4: about 0.9 s and 3 s per point on a 2-core Xeon VM.
def transient_ncl(rng: random.Random, outdir: str) -> list:
    alphas = (_band(rng, 2.0), _band(rng, 4.0))
    return [
        _transient(
            "transient_ncl",
            outdir,
            130,
            0.2,
            {"kind": "ncl", "f": "x-1"},
            "log:1e-5:1.0:200",
            alphas,
            {"distribution_at": "min_q", "poisson_reference": "true"},
        )
    ]


# transient_projector -- projector gadget |2><α|a² at dim 90 (Γ = 1, γ = 0.2),
# log grid 1e-3..3 with 220 points, two α from [2, 3].
# Why: the same evolve layer used differently.  The equation is not
# pure-lowering, so there is no window, and the channel is a dense rank-1
# matrix, so the work is dense matmuls instead of band shifts.  A generator
# change that helps banded operators but hurts rank-1 ones shows up here.
# Not listed in BENCHMARK.json: its serial passes take 11-15 s on a 2-core
# Xeon VM, so a run of the benchmark's length holds only two passes of each
# kind, too few for a steady median.  Run it with --workload transient_projector.
def transient_projector(rng: random.Random, outdir: str) -> list:
    alphas = (_band(rng, 2.0), _band(rng, 2.98))
    return [
        _transient(
            "transient_projector",
            outdir,
            90,
            0.2,
            {"kind": "projector", "target": "fock:2", "source": "coherent:2.0", "k": 2},
            "log:1e-3:3.0:220",
            alphas,
            {"distribution_at": "max_fidelity"},
        )
    ]


ALPHA0_POINTS = 25
ALPHA0_MAX = 150.0


def _alpha0_grid(rng: random.Random) -> tuple:
    """25 values geometric over [1, 150]; interior points jittered by up to
    a fifth of the log spacing, end points fixed."""
    step = math.log(ALPHA0_MAX) / (ALPHA0_POINTS - 1)
    values = [1.0]
    for i in range(1, ALPHA0_POINTS - 1):
        values.append(round(math.exp(step * (i + 0.4 * (rng.random() - 0.5))), 6))
    values.append(ALPHA0_MAX)
    return tuple(values)


# steady_sweep -- driven NCL f = x-1 at dim 64, 25 α₀ over [1, 150], ε from
# {1, 5, 10}, as two families: steady (exact null space) and steady_approx
# (the truncated equation).
# Why: many small, equal points.  liouvillian.superoperator_sparse and the
# sparse LU in steady do the work and evolve is idle.  The steady dispatch
# above dim 64 (evolve_to_steady) is left out: one point there takes minutes.
def steady_sweep(rng: random.Random, outdir: str) -> list:
    epsilon = rng.choice((1.0, 5.0, 10.0))
    values = _alpha0_grid(rng)
    out = []
    for method in ("steady", "steady_approx"):
        basename = f"steady_sweep_{method}"
        ini = _ini(
            {
                "system": {"dim": 64, "gamma_linear": epsilon, "gamma_nonlinear": 1.0},
                "gadget": {"kind": "ncl", "f": "x-1"},
                "initial": {"state": "vacuum"},
                "solver": {"method": method},
                "sweep": {"parameter": "alpha0", "values": ",".join(map(_fmt, values))},
                "output": {
                    "directory": outdir,
                    "basename": basename,
                    "timeseries": "false",
                    "distribution_at": f"value:{ALPHA0_MAX!r}",
                    "svg": "true",
                },
            }
        )
        out.append(Scenario(basename, "steady", method, "ncl", 64, values, 0, epsilon, ini))
    return out


WORKLOADS = {
    "transient_ncl": transient_ncl,
    "transient_projector": transient_projector,
    "steady_sweep": steady_sweep,
}


def generate(workload: str, seed: int, workdir: str) -> str:
    """Write the workload's INI files and a manifest into ``workdir``.

    Returns the manifest path.  Outputs of the program go to
    ``workdir/out``; the INI files name that directory relative to the
    current directory, which is the checkout root.
    """
    rng = random.Random(f"{workload}:{seed}")
    scenarios = WORKLOADS[workload](rng, os.path.join(workdir, "out"))
    os.makedirs(workdir, exist_ok=True)
    entries = []
    for sc in scenarios:
        path = os.path.join(workdir, sc.basename + ".ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sc.ini)
        entry = asdict(sc)
        del entry["ini"]
        entry["config"] = path
        entries.append(entry)
    manifest = os.path.join(workdir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload, "seed": seed, "outdir": os.path.join(workdir, "out"), "scenarios": entries},
            fh,
            indent=2,
        )
    return manifest
