"""Scalar and distribution observables.

Mandel's Q parameter, Q = (<n²> - <n>²)/<n> - 1, is computed from the
diagonal of ρ: photon-number moments depend on the diagonal only, which is
both cheaper and numerically stabler than full-operator moments.  Q < 0 is
sub-Poissonian (nonclassical); Q = -1 is a number state; a coherent state
has Q = 0 and a thermal state Q = n̄.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CorruptedStateError,
    DimensionMismatchError,
    InvalidStateError,
    UndefinedQError,
)

_MEAN_N_FLOOR = 1e-14


@dataclass(frozen=True)
class DiagonalDistribution:
    """Photon-number distribution: p_n >= 0 summing to 1 (within 1e-12).
    Its mean and variance are computed once, at construction."""

    probabilities: np.ndarray
    _mean: float = field(init=False, repr=False, compare=False)
    _variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1 or p.size < 1:
            raise InvalidStateError("distribution must be a 1-d probability vector")
        if p.min() < 0:
            raise InvalidStateError(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InvalidStateError(f"probabilities sum to {p.sum()!r}, not 1")
        n = np.arange(p.size)
        m = float(np.sum(n * p))
        object.__setattr__(self, "_mean", m)
        object.__setattr__(self, "_variance", float(np.sum((n - m) ** 2 * p)))

    @property
    def dim(self) -> int:
        return self.probabilities.size

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._variance

    def mandel_q(self) -> float:
        if self._mean <= _MEAN_N_FLOOR:
            raise UndefinedQError("mean photon number is zero; Q undefined")
        return self._variance / self._mean - 1.0


def poisson_distribution(mean: float, dim: int) -> DiagonalDistribution:
    """Poisson reference distribution with the given mean, truncated and
    renormalized (used for side-by-side nonclassicality comparisons)."""
    if mean < 0:
        raise InvalidStateError("mean must be >= 0")
    n = np.arange(dim)
    if mean == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        logp = n * np.log(mean) - mean - np.cumsum(np.log(np.maximum(n, 1)))
        p = np.exp(logp - logp.max())
    return DiagonalDistribution(p / p.sum())


def fidelity_to_pure(rho: np.ndarray, phi: np.ndarray) -> float:
    """<φ|ρ|φ> for a pure target |φ>."""
    rho = np.asarray(rho, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if rho.shape != (phi.size, phi.size):
        raise DimensionMismatchError(f"rho shape {rho.shape} vs target dim {phi.size}")
    return float(np.real(np.vdot(phi, rho @ phi)))


def photon_distribution(rho: np.ndarray) -> DiagonalDistribution:
    """Diagonal of ρ as a distribution; tiny negative entries are clipped.

    If the diagonal retains less than 0.999 of its mass after clipping the
    state is considered corrupted (not a numerical wobble) and an error is
    raised instead of silently renormalizing garbage.
    """
    d = np.real(np.diag(np.asarray(rho))).copy()
    clipped = d < 0
    d[clipped] = 0.0
    total = d.sum()
    if total < 0.999:
        raise CorruptedStateError(
            f"diagonal mass {total:.6f} after clipping negatives; state corrupted"
        )
    return DiagonalDistribution(d / total)


def purity(rho: np.ndarray) -> float:
    """Tr ρ² (1 for pure states, 1/dim for the maximally mixed state), as
    Σ|ρ_ij|² for Hermitian ρ: O(dim²), no matrix product.  Summed by einsum
    over the real view, not a BLAS dot, whose last digit depends on the
    thread count."""
    v = np.ascontiguousarray(rho, dtype=complex).view(float).ravel()
    return float(np.einsum("i,i->", v, v))


@dataclass(frozen=True)
class ObservableReport:
    """One state's worth of scalar observables plus its distribution."""

    mean_n: float
    variance_n: float
    mandel_q: float  # nan when undefined (vacuum)
    purity: float
    distribution: DiagonalDistribution
    fidelity: float | None = field(default=None)


def distribution_report(
    dist: DiagonalDistribution, purity: float, fidelity: float | None = None
) -> ObservableReport:
    """The report of a photon-number distribution with the given purity and
    fidelity; Q is NaN where it is undefined (zero mean)."""
    try:
        q = dist.mandel_q()
    except UndefinedQError:
        q = float("nan")
    return ObservableReport(
        mean_n=dist.mean(),
        variance_n=dist.variance(),
        mandel_q=q,
        purity=purity,
        distribution=dist,
        fidelity=fidelity,
    )


def observable_report(rho: np.ndarray, target: np.ndarray | None = None) -> ObservableReport:
    """Bundle the standard observables of a density matrix."""
    dist = photon_distribution(rho)
    fid = None if target is None else fidelity_to_pure(rho, target)
    return distribution_report(dist, purity(rho), fid)
