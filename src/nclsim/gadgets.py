"""Engineered Lindblad operators.

Two families of dissipation are built here:

* the projector gadget A = |φ><y| a^k, which funnels population from a
  source state |y> toward a target |φ> at a rate set by the norm factor
  N = <y| a^k (a†)^k |y>; A, N and the raised source are all read from
  the one row <y| a^k;
* nonlinear coherent loss (NCL) A = a f(a†a), whose dark states are
  nonlinear coherent states selected by the zeros of f.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidStateError,
    TruncationLeakageError,
)
from .fock import annihilation, check_state_vector, diagonal_function_operator

_PRESET_POLYS = {
    "x-1": ([0.0, 1.0], 1.0),
    "(x-1)^2": ([0.0, 0.0, 1.0], 1.0),
    "(x-1)^3": ([0.0, 0.0, 0.0, 1.0], 1.0),
}


class NonlinearFunction:
    """Real-valued f(n) on photon numbers: a polynomial in (x - shift) given
    by a coefficient list (ascending powers), with its exact derivative."""

    def __init__(self, coeffs, shift=0.0):
        self.coeffs = [float(c) for c in coeffs]
        self.shift = float(shift)

    @classmethod
    def from_name(cls, name: str, power: int | None = None) -> "NonlinearFunction":
        if name in _PRESET_POLYS:
            coeffs, shift = _PRESET_POLYS[name]
            return cls(coeffs, shift)
        if name == "x^k":
            if power is None or int(power) != power or power < 1:
                raise InvalidStateError("preset 'x^k' needs a positive integer power")
            return cls([0.0] * int(power) + [1.0])
        raise InvalidStateError(f"unknown nonlinearity preset {name!r}")

    def __call__(self, x: float) -> float:
        u = x - self.shift
        return float(sum(c * u**j for j, c in enumerate(self.coeffs)))

    def derivative(self, x: float) -> float:
        u = x - self.shift
        return float(sum(j * c * u ** (j - 1) for j, c in enumerate(self.coeffs) if j > 0))


class ProjectorGadget:
    """Geometry of the engineered operator A = |φ><y| a^k.

    Everything is read from the row <y| a^k: the dense ``operator`` A, the
    norm factor N = ‖<y| a^k‖² = <y| a^k (a†)^k |y>, and the normalized
    raised source |Ψ> = (a†)^k |y>/√N, the row's conjugate over √N.  Also
    derived: the overlap <φ|Ψ>, the orthogonal complement |0> of |Ψ> inside
    span{|φ>, |Ψ>}, and the projector P onto that two-dimensional subspace.
    Construction fails when the top k amplitudes of |y> reach 1e-10, where
    raising by (a†)^k would spill weight past the cutoff, and when |φ> and
    |Ψ> are parallel (the complement is undefined there).
    """

    def __init__(self, target: np.ndarray, source: np.ndarray, k: int):
        target = check_state_vector(np.asarray(target, dtype=complex))
        source = check_state_vector(np.asarray(source, dtype=complex))
        if target.shape[0] != source.shape[0]:
            raise DimensionMismatchError(
                f"target dim {target.shape[0]} != source dim {source.shape[0]}"
            )
        if int(k) != k or k < 1:
            raise InvalidDimensionError(f"power k must be a positive integer, got {k}")
        if k == 1:
            warnings.warn(
                "projector gadget with k=1 lies outside the k>1 regime the "
                "transfer analysis assumes; proceeding anyway",
                stacklevel=2,
            )
        self.target = target
        self.source = source
        self.k = int(k)
        self.dim = target.shape[0]

        top = np.abs(source[max(self.dim - self.k, 0):])
        if top.max() >= 1e-10:
            raise TruncationLeakageError(
                f"top-{self.k} amplitudes reach {top.max():.3e}; raising by (a†)^{self.k} "
                "would spill past the cutoff (increase dim)"
            )
        row = source.conj() @ np.linalg.matrix_power(annihilation(self.dim), self.k)
        self.operator = np.outer(target, row)
        self.norm_factor = float(np.real(np.vdot(row, row)))
        self.psi = row.conj() / np.sqrt(self.norm_factor)
        self.overlap = complex(np.vdot(target, self.psi))  # <φ|Ψ>

        leak = 1.0 - abs(self.overlap)
        if leak < 1e-12:
            raise InvalidStateError(
                "|φ> and |Ψ> are parallel within 1e-12; orthogonal complement undefined"
            )
        resid = target - np.vdot(self.psi, target) * self.psi  # |φ> - <Ψ|φ>|Ψ>
        self.complement = resid / np.linalg.norm(resid)
        self.projector = np.outer(self.psi, self.psi.conj()) + np.outer(
            self.complement, self.complement.conj()
        )


def ncl_lindblad(f, dim: int) -> np.ndarray:
    """Nonlinear coherent loss operator A = a · f(a†a), without a dense
    product: the one entry √n of column n of a times f(n), bitwise equal to
    ``annihilation(dim) @ diagonal_function_operator(f, dim)``."""
    fvals = np.diag(diagonal_function_operator(f, dim)).real
    return np.diag(np.diag(annihilation(dim), 1) * fvals[1:], 1)

