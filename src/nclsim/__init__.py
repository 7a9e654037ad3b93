"""nclsim: single-mode bosonic open-system simulator with engineered
nonlinear dissipation.

Core layers: fock (truncated-space states/operators), liouvillian (master
equation, factor-2 dissipator convention), gadgets (engineered Lindblad
operators), evolve (adaptive propagation), steady (null-space
solvers and analytic recurrences), observables, scenarios (figure presets and
sweeps), cli (command-line front end).
"""

__version__ = "0.1.0"

from . import errors, evolve, fock, gadgets, liouvillian, observables, steady

__all__ = [
    "__version__",
    "errors",
    "evolve",
    "fock",
    "gadgets",
    "liouvillian",
    "observables",
    "steady",
]
