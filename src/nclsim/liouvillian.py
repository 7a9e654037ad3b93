"""Master-equation generator: one list of sandwich terms and its readers.

The equation of motion is

    dρ/dt = -i[H, ρ] + Γ(n̄+1) L(a)ρ + Γ n̄ L(a†)ρ + γ L(A)ρ

with the factor-2 dissipator convention

    L(x)ρ = 2 x ρ x† - x†x ρ - ρ x†x            (no 1/2 anywhere)

and the driving Hamiltonian H = iΩ(a - a†).  All rates in this package are
interpreted under this convention; halve them when comparing against
libraries that use the (1/2)-convention.

Every linear equation in the package (this one, and the truncated driven
equation of :mod:`steady`) is compiled once into a :class:`Generator`: a
list of sandwich terms c·LρR.  A Lindblad equation gives Kρ and ρK† with
K = -iH - Σ r x†x, plus 2r·xρx† for every channel.  Each operator is stored
in the form that suits it.  Fock-ladder operators (a, a†, a·f(a†a),
diagonals, H, K) keep only their few nonzero diagonals, so all terms between
them fuse into Σ C_{s,t} ⊙ shift_{s,t}(ρ) with coefficient arrays C computed
in advance.  Any other operator (the projector channel) is kept as one
matrix, CSR when sparse enough and dense otherwise.

The term list has three readers:

* :func:`rhs`, the matrix-free right-hand side (the block below at m = dim);
* :meth:`Generator.block`, the map on the leading m×m block of a state that
  vanishes outside it, made by slicing the coefficient arrays; the
  integrator's shrinking window uses it;
* :func:`superoperator_sparse` (:meth:`Generator.superoperator`), the sparse
  matrix under column-stacking vectorization: vec(ρ)[i + dim*j] = ρ[i, j],
  so vec(AρB) = (Bᵀ ⊗ A) vec(ρ).  :func:`superoperator_matrix` densifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionCapError, DimensionMismatchError, InvalidStateError
from .fock import annihilation, creation, _check_dim

SUPEROPERATOR_DIM_CAP = 64
_SPARSE_DENSITY_CUTOFF = 0.25
_MAX_BANDS = 3  # tridiagonal at most: every ladder operator, H and K here


@dataclass(frozen=True)
class LindbladChannel:
    """One jump channel: ``rate`` multiplies L(op)ρ in the master equation."""

    rate: float
    op: np.ndarray

    def __post_init__(self):
        if self.rate < 0:
            raise InvalidStateError(f"channel rate must be >= 0, got {self.rate}")


def _diagonal_offsets(op: np.ndarray) -> np.ndarray:
    """Sorted offsets (column - row) of the nonzero diagonals of ``op``."""
    rows, cols = np.nonzero(op)
    return np.unique(cols - rows)


def _diagonals(op):
    """{offset: np.diag(op, offset)} for a banded ``op``, else None."""
    offsets = _diagonal_offsets(op)
    if offsets.size > _MAX_BANDS:
        return None
    return {int(s): np.diag(op, s) for s in offsets}


def _matrix(op):
    """``op`` as CSR when sparse enough, dense otherwise; None is the identity."""
    if op is None or np.count_nonzero(op) > _SPARSE_DENSITY_CUTOFF * op.size:
        return op
    return sp.csr_matrix(op)


def _restrict(op, m: int):
    if op is None or op.shape[0] == m:
        return op
    return op[:m, :m]


class _Block:
    """A generator applied to the leading m×m block of a state that vanishes
    outside it: (Σ c·LρR)[:m, :m] from ρ[:m, :m]."""

    def __init__(self, gen: "Generator", m: int):
        # (destination rows, destination columns, source rows, source columns,
        # coefficients): out[i, j] += C[i, j] · ρ[i+s, j-t] where both exist
        self.shifts = []
        for (s, t), coef in gen.bands.items():
            if m <= abs(s) or m <= abs(t):
                continue
            self.shifts.append(
                (
                    slice(max(0, -s), m - max(0, s)),
                    slice(max(0, t), m - max(0, -t)),
                    slice(max(0, s), m - max(0, -s)),
                    slice(max(0, -t), m - max(0, t)),
                    np.ascontiguousarray(coef[: m - abs(s), : m - abs(t)]),
                )
            )
        self.products = [(c, _restrict(lo, m), _restrict(ro, m)) for c, lo, ro in gen.products]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for dr, dc, sr, sc, coef in self.shifts:
            out[dr, dc] += coef * rho[sr, sc]
        for c, left, right in self.products:
            t = rho if left is None else left @ rho
            out += c * (t if right is None else t @ right)
        return out


class Generator:
    """The linear map ρ ↦ Σ c·LρR on D×D matrices, compiled once.

    ``terms`` lists (c, L, R) with L and R dense D×D arrays, or None for the
    identity.  A term whose two operators both have at most three nonzero
    diagonals joins the fused coefficient arrays ``bands``; any other term is
    kept in ``products`` with its operators as matrices.
    """

    def __init__(self, dim: int, terms):
        self.dim = dim
        ones = {0: np.ones(dim)}
        # (s, t) -> C, where out[i, j] gets C[i - max(0,-s), j - max(0,t)]·ρ[i+s, j-t]
        self.bands = {}
        self.products = []
        for c, left, right in terms:
            lb = ones if left is None else _diagonals(left)
            rb = ones if right is None else _diagonals(right)
            if lb is None or rb is None:
                self.products.append((c, _matrix(left), _matrix(right)))
                continue
            # (LρR)[i, j] = Σ_{s,t} L[i, i+s] ρ[i+s, j-t] R[j-t, j]
            for s, ldiag in lb.items():
                for t, rdiag in rb.items():
                    self.bands[(s, t)] = self.bands.get((s, t), 0.0) + c * np.outer(ldiag, rdiag)
        self.apply = self.block(dim)

    def block(self, m: int) -> _Block:
        """The generator restricted to the leading m×m block (callable on ρ_b).

        Exact for states that vanish outside the block; it keeps describing
        the motion only while nothing couples population upward (see
        MasterEquation.is_pure_lowering).
        """
        return _Block(self, m)

    def superoperator(self) -> sp.csr_matrix:
        """Sparse D²×D² matrix of the map under column stacking."""
        dim = self.dim
        index = np.arange(dim * dim).reshape((dim, dim), order="F")
        parts = [
            (coef.ravel(), index[dr, dc].ravel(), index[sr, sc].ravel())
            for dr, dc, sr, sc, coef in self.apply.shifts
        ]
        vals, rows, cols = (np.concatenate(p) for p in zip(*parts)) if parts else ([], [], [])
        total = sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim), dtype=complex)
        total.eliminate_zeros()
        eye = sp.identity(dim, format="csr")
        for c, left, right in self.products:
            lo = eye if left is None else sp.csr_matrix(left)
            ro = eye if right is None else sp.csr_matrix(right)
            total = total + c * sp.kron(ro.T, lo, format="csr")
        return total


class MasterEquation:
    """Single-mode master equation with linear loss, thermal pumping,
    coherent driving and one engineered channel.

    The three canonical channels are always exactly those implied by
    (Γ, γ, n̄) and the chosen engineered operator: rates Γ(n̄+1), Γn̄, γ.
    Derived accessors: ``epsilon`` = Γ/γ and ``alpha0`` = Ω/γ.
    """

    def __init__(
        self,
        dim: int,
        gamma_linear: float = 0.0,
        gamma_nonlinear: float = 0.0,
        nbar: float = 0.0,
        omega: float = 0.0,
        nonlinear_op: np.ndarray | None = None,
    ):
        self.dim = _check_dim(dim)
        if gamma_linear < 0 or gamma_nonlinear < 0 or nbar < 0:
            raise InvalidStateError("rates and thermal occupation must be >= 0")
        if gamma_nonlinear > 0 and nonlinear_op is None:
            raise InvalidStateError("gamma_nonlinear > 0 requires an engineered operator")
        self.gamma_linear = float(gamma_linear)
        self.gamma_nonlinear = float(gamma_nonlinear)
        self.nbar = float(nbar)
        self.omega = float(omega)

        a = annihilation(self.dim)
        ad = creation(self.dim)
        if nonlinear_op is None:
            nonlinear_op = np.zeros((self.dim, self.dim), dtype=complex)
        else:
            nonlinear_op = np.asarray(nonlinear_op, dtype=complex)
            if nonlinear_op.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"engineered operator shape {nonlinear_op.shape} != ({self.dim}, {self.dim})"
                )
        self.nonlinear_op = nonlinear_op
        self.hamiltonian = 1j * self.omega * (a - ad)
        herm = np.abs(self.hamiltonian - self.hamiltonian.conj().T).max()
        if herm > 1e-10:
            raise InvalidStateError(f"Hamiltonian Hermiticity violation {herm:.3e}")
        self.channels = [
            LindbladChannel(self.gamma_linear * (self.nbar + 1.0), a),
            LindbladChannel(self.gamma_linear * self.nbar, ad),
            LindbladChannel(self.gamma_nonlinear, self.nonlinear_op),
        ]

    @cached_property
    def generator(self) -> Generator:
        """The equation compiled on first use: dρ/dt = Kρ + ρK† + Σ 2r·xρx†
        with K = -iH - Σ r x†x (construction alone, as in a preflight, skips it)."""
        k = -1j * self.hamiltonian
        jumps = []
        for ch in self.channels:
            if ch.rate == 0.0:
                continue
            xd = ch.op.conj().T
            k = k - ch.rate * (xd @ ch.op)
            jumps.append((2.0 * ch.rate, ch.op, xd))
        return Generator(self.dim, [(1.0, k, None), (1.0, None, k.conj().T)] + jumps)

    @property
    def epsilon(self) -> float:
        """Linear-to-engineered rate ratio Γ/γ."""
        if self.gamma_nonlinear > 0:
            return self.gamma_linear / self.gamma_nonlinear
        return 0.0 if self.gamma_linear == 0 else float("inf")

    @property
    def alpha0(self) -> float:
        """Scaled driving amplitude Ω/γ."""
        if self.gamma_nonlinear > 0:
            return self.omega / self.gamma_nonlinear
        return 0.0 if self.omega == 0 else float("inf")

    def decay_scale(self, m: int | None = None) -> float:
        """Upper estimate of the fastest decay rate (for step-size seeding)."""
        m = self.dim if m is None else m
        scale = 2.0 * abs(self.omega) * np.sqrt(m)
        for ch in self.channels:
            if ch.rate > 0.0:
                # diag(x†x) holds the squared column norms of x
                scale += 2.0 * ch.rate * (np.abs(ch.op[:, :m]) ** 2).sum(axis=0).max()
        return float(scale)

    def is_pure_lowering(self) -> bool:
        """True when nothing couples population upward: no driving, no
        thermal pumping, and every active channel operator lives on a single
        superdiagonal (a one-step-lowering band)."""
        if self.omega != 0.0 or self.nbar != 0.0:
            return False
        for ch in self.channels:
            if ch.rate == 0.0:
                continue
            offsets = _diagonal_offsets(ch.op)
            if offsets.size > 1 or (offsets.size == 1 and offsets[0] < 1):
                return False
        return True


def dissipator(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L(x)ρ = 2xρx† - x†xρ - ρx†x (factor-2 convention)."""
    x = np.asarray(x, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if x.shape != rho.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"operator shape {x.shape} vs state shape {rho.shape}")
    xd = x.conj().T
    xdx = xd @ x
    return 2.0 * (x @ rho @ xd) - xdx @ rho - rho @ xdx


def rhs(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """Full master-equation right-hand side, matrix-free."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (me.dim, me.dim):
        raise DimensionMismatchError(f"rho shape {rho.shape} != ({me.dim}, {me.dim})")
    return me.generator.apply(rho)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(rho).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def spre(op) -> sp.csr_matrix:
    """Superoperator for left multiplication: vec(Aρ) = spre(A) vec(ρ)."""
    op = sp.csr_matrix(op)
    return sp.kron(sp.identity(op.shape[0], format="csr"), op, format="csr")


def spost(op) -> sp.csr_matrix:
    """Superoperator for right multiplication: vec(ρB) = spost(B) vec(ρ)."""
    op = sp.csr_matrix(op)
    return sp.kron(op.T, sp.identity(op.shape[0], format="csr"), format="csr")


def superoperator_sparse(me: MasterEquation) -> sp.csr_matrix:
    """Sparse D²×D² matrix representing :func:`rhs` under column stacking."""
    return me.generator.superoperator()


def superoperator_matrix(me: MasterEquation, cap: int = SUPEROPERATOR_DIM_CAP) -> np.ndarray:
    """Dense superoperator matrix; refuses dimensions above ``cap``.

    Above the cap the D²×D² matrix is too large to be worth materializing;
    use the long-time integration solver (evolve.evolve_to_steady) instead.
    """
    if me.dim > cap:
        raise DimensionCapError(
            f"dim {me.dim} exceeds superoperator cap {cap}; "
            "use the long-time-integration solver instead"
        )
    return superoperator_sparse(me).toarray()
