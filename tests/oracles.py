"""Reference routes that the tests compare the library against.

This module holds test references only; nothing under ``src/`` imports it.
Each route is independent of the production path it checks:

* :func:`dissipator`, the dense L(x)ρ = 2xρx† - x†xρ - ρx†x (factor-2
  convention), which the generator tests sum into -i[H, ρ] + Σ r·L(x)ρ;
* :func:`superoperator`, the sparse D²×D² matrix of a
  :class:`~nclsim.liouvillian.Generator` under column stacking, built from
  its triplets in its dtype, and :func:`superoperator_matrix`, its dense
  form up to ``SUPEROPERATOR_DIM_CAP``;
* :func:`steady_state_svd`, the stationary state from a dense SVD of the
  superoperator, with singular values below ``DEGENERACY_TOL`` as the
  degeneracy test and the same residual, top-level guard and density-matrix
  checks as :func:`nclsim.steady.steady_state_nullspace`.
"""

import numpy as np
import scipy.sparse as sp

from nclsim.errors import DimensionCapError, DimensionMismatchError, NonUniqueSteadyStateError
from nclsim.fock import check_density_matrix
from nclsim.liouvillian import Generator, MasterEquation
from nclsim.steady import _guarded, _unit_trace_state

SUPEROPERATOR_DIM_CAP = 64
DEGENERACY_TOL = 1e-10


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(rho).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def dissipator(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L(x)ρ = 2xρx† - x†xρ - ρx†x (factor-2 convention)."""
    x = np.asarray(x, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if x.shape != rho.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"operator shape {x.shape} vs state shape {rho.shape}")
    xd = x.conj().T
    xdx = xd @ x
    return 2.0 * (x @ rho @ xd) - xdx @ rho - rho @ xdx


def superoperator(gen: Generator) -> sp.csr_matrix:
    """Sparse D²×D² matrix of ``gen`` under column stacking, in ``gen.dtype``."""
    rows, cols, vals = gen.triplets
    n = gen.dim * gen.dim
    total = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=gen.dtype)
    total.eliminate_zeros()
    return total


def superoperator_matrix(gen: Generator) -> np.ndarray:
    """Dense superoperator matrix; refuses dimensions above
    ``SUPEROPERATOR_DIM_CAP``, where the dense D²×D² matrix is too large to
    be worth materializing."""
    if gen.dim > SUPEROPERATOR_DIM_CAP:
        raise DimensionCapError(
            f"dim {gen.dim} exceeds the dense superoperator cap {SUPEROPERATOR_DIM_CAP}; "
            "use the sparse superoperator instead"
        )
    return superoperator(gen).toarray()


def steady_state_svd(me: MasterEquation) -> np.ndarray:
    """Unique stationary density matrix from the right singular vector of the
    dense superoperator's smallest singular value."""
    lop = superoperator_matrix(me.generator)
    _, s, vh = np.linalg.svd(lop)
    if s[-2] < DEGENERACY_TOL:  # dim >= 2, so lop has at least 4 singular values
        raise NonUniqueSteadyStateError(
            f"second-smallest singular value {s[-2]:.3e} below {DEGENERACY_TOL:.0e}"
        )
    rho = unvec(vh[-1].conj(), me.dim)
    rho = _unit_trace_state(me.generator, 0.5 * (rho + rho.conj().T))
    return check_density_matrix(_guarded(me, rho))
