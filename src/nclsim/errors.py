"""Exception taxonomy for the simulator.

Numerical failures all derive from SimulationError so callers (and the CLI)
can separate "the physics run failed" from "the input was malformed"
(ConfigError).
"""


class SimulationError(Exception):
    """Base class for numerical / physical failures."""


class InvalidDimensionError(SimulationError):
    """Fock-space dimension below 2 or otherwise unusable."""


class FockIndexError(SimulationError):
    """Photon number outside the truncated basis."""


class DimensionMismatchError(SimulationError):
    """Operands built on different Fock-space dimensions."""


class InvalidStateError(SimulationError):
    """State vector or density matrix violating its invariants."""


class TruncationLeakageError(SimulationError):
    """Construction would put non-negligible weight past the Fock cutoff.

    ``min_dim`` (when known) is the smallest dimension that would pass the
    guard.
    """

    def __init__(self, message, min_dim=None):
        super().__init__(message)
        self.min_dim = min_dim


class TruncationBreachError(SimulationError):
    """Population reached the top Fock level during time evolution."""


class StepSizeUnderflowError(SimulationError):
    """Adaptive integrator step collapsed below resolvable size."""


class DimensionCapError(SimulationError):
    """Dimension above ``steady.SPARSE_DIM_CAP``, the cap of the sparse
    stationary solve (the tests' dense SVD reference in ``tests/oracles.py``
    raises it above its own cap too)."""


class NonUniqueSteadyStateError(SimulationError):
    """Liouvillian null space is (numerically) degenerate."""


class SteadyStateResidualError(SimulationError):
    """Null-space solve produced a state with unacceptable residual."""


class BlockedRecurrenceError(SimulationError):
    """Recurrence denominator vanished at index ``n``."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class TailGuardError(SimulationError):
    """Distribution carries weight at the cutoff; increase dim."""


class UndefinedQError(SimulationError):
    """Mandel Q is undefined for a state with zero mean photon number."""


class CorruptedStateError(SimulationError):
    """Density-matrix diagonal lost too much mass to be a distribution."""


class ConfigError(Exception):
    """Malformed scenario configuration (bad key, value, or section)."""
