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
list of sandwich terms c·LρR.  A Lindblad equation gives -iHρ and ρ(-iH)†,
and for every channel -r·x†xρ, -r·ρx†x and 2r·xρx†.  Fock-ladder operators
(a, a†, a·f(a†a), diagonals, H) keep only their few nonzero diagonals, so all
terms between them fuse into Σ C_{s,t} ⊙ shift_{s,t}(ρ) with coefficient
arrays C computed in advance.  Any other operator (the projector channel
A = |φ⟩⟨χ| and its rank-1 A†A) is kept as exact low-rank factors U·Vᵀ from
one SVD, so its terms cost O(rank·dim²) and no dense product.

The term list has these readers:

* :func:`rhs`, the matrix-free right-hand side (the block below at m = dim);
* :meth:`Generator.block`, the map on the leading m×m block of a state that
  vanishes outside it, made by slicing the coefficient arrays and the rows of
  the factors; the integrator's shrinking window uses it, writing each
  derivative into a preallocated stage buffer (``out=``);
* :attr:`Generator.triplets`, the COO entries of the D²×D² matrix under
  column-stacking vectorization: vec(ρ)[i + dim*j] = ρ[i, j], so
  vec(AρB) = (Bᵀ ⊗ A) vec(ρ).  Two readers build on them:

  * :func:`superoperator_sparse` (:meth:`Generator.superoperator`), the sparse
    matrix, which :func:`superoperator_matrix` densifies for the SVD route
    and the tests;
  * :meth:`Generator.hermitian_map`, the real triplets of the map on
    Hermitian matrices in the coordinates of :func:`hermitian_coordinates`,
    which the stationary solves of :mod:`steady` factor.

  Only the first imports ``scipy.sparse``, when called, so propagation
  imports no scipy.

The generator decides its dtype once, ``Generator.dtype``: float64 when no
band coefficient and no factored operator has an imaginary part, as for
every equation a config can state, else complex128.  Coefficients and
factors are stored in it, the superoperator is built in it, and the
integrator keeps its state in it when ρ₀ is real too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionCapError, DimensionMismatchError, InvalidStateError
from .fock import annihilation, creation, _check_dim

if TYPE_CHECKING:
    import scipy.sparse as sp

SUPEROPERATOR_DIM_CAP = 64
_MAX_BANDS = 3  # tridiagonal at most: every ladder operator and H here


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


def _factors(op):
    """(U, V) with op = U·Vᵀ, from one SVD cut at numpy's ``matrix_rank`` rule
    (s > s_max·dim·eps); None is the identity."""
    if op is None:
        return None
    u, s, vh = np.linalg.svd(op)
    rank = np.count_nonzero(s > s[0] * op.shape[0] * np.finfo(float).eps)
    return u[:, :rank] * s[:rank], vh[:rank].T


def _restrict(factors, m: int, dtype):
    """Factors of op[:m, :m] in ``dtype``: the first m rows of U and of V."""
    return factors if factors is None else tuple(np.asarray(f[:m], dtype=dtype) for f in factors)


def _gram(x: np.ndarray) -> np.ndarray:
    """x†x with each entry summed over k in ascending order, bitwise the
    sparse product csr(x)ᴴ·csr(x).  einsum without ``optimize`` runs its own
    loop: a BLAS product here stalls for 10-14 ms right after a sparse LU.

    A banded x has x†x[i, j] = 0 unless j - i is a difference of two of its
    offsets, so only those diagonals are summed: O(dim²) work, not O(dim³)
    (dim 130 NCL operator, 2-core x86 VM: 0.3 ms against 5.8 ms for the
    full contraction)."""
    offsets = _diagonal_offsets(x)
    if offsets.size > _MAX_BANDS:
        return np.einsum("ki,kj->ij", x.conj(), x)
    dim = x.shape[0]
    out = np.zeros_like(x)
    for d in np.unique(np.subtract.outer(offsets, offsets)).tolist():
        if abs(d) >= dim:
            continue
        lo, hi = max(0, -d), dim - max(0, d)  # the columns i whose j = i + d exists
        i = np.arange(lo, hi)
        out[i, i + d] = np.einsum("ki,ki->i", x[:, lo:hi].conj(), x[:, lo + d : hi + d])
    return out


class _Block:
    """A generator applied to the leading m×m block of a state that vanishes
    outside it: (Σ c·LρR)[:m, :m] from ρ[:m, :m]."""

    def __init__(self, gen: "Generator", m: int, dtype=None):
        self.dtype = gen.dtype if dtype is None else np.dtype(dtype)
        # (destination rows, destination columns, source rows, source columns,
        # coefficients): out[i, j] += C[i, j] · ρ[i+s, j-t] where both exist.
        # The diagonal band (0, 0), when present, comes first: it covers the
        # whole block, so it writes ``out`` instead of adding to zeros.
        self.shifts = []
        for (s, t), coef in sorted(gen.bands.items(), key=lambda item: item[0] != (0, 0)):
            if m <= abs(s) or m <= abs(t):
                continue
            self.shifts.append(
                (
                    slice(max(0, -s), m - max(0, s)),
                    slice(max(0, t), m - max(0, -t)),
                    slice(max(0, s), m - max(0, -s)),
                    slice(max(0, -t), m - max(0, t)),
                    np.ascontiguousarray(coef[: m - abs(s), : m - abs(t)], dtype=self.dtype),
                )
            )
        self.covers = (0, 0) in gen.bands
        self.products = [
            (c, _restrict(lo, m, self.dtype), _restrict(ro, m, self.dtype))
            for c, lo, ro in gen.products
        ]

    def __call__(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The derivative of ``rho``, written into ``out`` when one is given
        (its dtype must hold the result: complex unless both are real)."""
        if out is None:
            out = np.empty(rho.shape, np.result_type(rho, self.dtype))
        shifts = self.shifts
        if self.covers:
            np.multiply(shifts[0][4], rho, out=out)
            shifts = shifts[1:]
        else:
            out.fill(0.0)
        for dr, dc, sr, sc, coef in shifts:
            out[dr, dc] += coef * rho[sr, sc]
        for c, left, right in self.products:
            # c·U_L (V_Lᵀ ρ U_R) V_Rᵀ, contracted through the rank-r middle
            t = rho if left is None else left[1].T @ rho
            t = t if right is None else t @ right[0]
            t = t if left is None else left[0] @ t
            out += c * (t if right is None else t @ right[1].T)
        return out


class Generator:
    """The linear map ρ ↦ Σ c·LρR on D×D matrices, compiled once.

    ``terms`` lists (c, L, R) with L and R dense D×D arrays, or None for the
    identity.  A term whose two operators both have at most three nonzero
    diagonals joins the fused coefficient arrays ``bands``; any other term is
    kept in ``products`` as (c, (U_L, V_L), (U_R, V_R)) with L = U_L·V_Lᵀ and
    R = U_R·V_Rᵀ, the rank read off the SVD (one column each for the
    projector channel), or None for the identity.

    ``dtype`` is decided once here: float64 when no band coefficient and no
    product term has an imaginary part (every equation a config can state,
    including H = iΩ(a - a†), whose -iH is real), complex128 otherwise.  The
    bands and factors are stored in it, and the window block and the
    superoperator compute in it.
    """

    def __init__(self, dim: int, terms):
        self.dim = dim
        ones = {0: np.ones(dim)}
        # (s, t) -> C, where out[i, j] gets C[i - max(0,-s), j - max(0,t)]·ρ[i+s, j-t]
        bands = {}
        products = []
        for c, left, right in terms:
            lb = ones if left is None else _diagonals(left)
            rb = ones if right is None else _diagonals(right)
            if lb is None or rb is None:
                products.append((c, left, right))
                continue
            # (LρR)[i, j] = Σ_{s,t} L[i, i+s] ρ[i+s, j-t] R[j-t, j]
            for s, ldiag in lb.items():
                for t, rdiag in rb.items():
                    bands[(s, t)] = bands.get((s, t), 0.0) + c * np.outer(ldiag, rdiag)
        parts = list(bands.values()) + [x for term in products for x in term if x is not None]
        real = not any(np.iscomplexobj(x) and np.imag(x).any() for x in parts)
        self.dtype = np.dtype(np.float64 if real else np.complex128)

        def cast(x):
            return x if x is None else np.asarray(np.real(x) if real else x, dtype=self.dtype)

        factored = []  # (operator, its factors): one SVD per distinct operator

        def factors(op):
            if op is None:
                return None
            for prev, (u, v) in factored:
                if np.array_equal(op, prev):
                    return u, v
                if np.array_equal(op, prev.conj().T):
                    return v.conj(), u.conj()  # (U·Vᵀ)† = V̄·Ūᵀ
            factored.append((op, _factors(op)))
            return factored[-1][1]

        self.bands = {st: cast(coef) for st, coef in bands.items()}
        self.products = [
            (np.real(c) if real else c, factors(cast(left)), factors(cast(right)))
            for c, left, right in products
        ]
        self.apply = self.block(dim)

    def block(self, m: int) -> _Block:
        """The generator restricted to the leading m×m block (callable on ρ_b).

        Exact for states that vanish outside the block; it keeps describing
        the motion only while nothing couples population upward (see
        MasterEquation.is_pure_lowering).
        """
        return _Block(self, m)

    @cached_property
    def complex_apply(self) -> _Block:
        """The map on complex states with its coefficients stored complex:
        numpy multiplies complex by complex faster than it casts a real
        factor for each product (dim 130 NCL, one thread: 100 against 115 µs)."""
        return self.apply if self.dtype == np.complex128 else _Block(self, self.dim, np.complex128)

    @cached_property
    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the D²×D² matrix of the map under column
        stacking, in ``dtype``: one entry per band coefficient and per product
        of two nonzero factor entries, with duplicates left unsummed.
        Computed on first use and kept, for the superoperator, the Hermitian
        map and the residual scale of a stationary solve."""
        dim = self.dim
        index = np.arange(dim * dim, dtype=np.int32).reshape((dim, dim), order="F")
        parts = [
            (index[dr, dc].ravel(), index[sr, sc].ravel(), coef.ravel())
            for dr, dc, sr, sc, coef in self.apply.shifts
        ]
        for c, left, right in self.products:
            # vec(LρR) = (Rᵀ ⊗ L) vec(ρ): row i + dim·j, column k + dim·l,
            # value c·L[i, k]·R[l, j]
            (li, lk), lv = _entries(left, dim)
            (rl, rj), rv = _entries(right, dim)
            parts.append(
                (
                    np.add.outer(li, dim * rj).ravel(),
                    np.add.outer(lk, dim * rl).ravel(),
                    (c * np.outer(lv, rv)).ravel(),
                )
            )
        if not parts:
            return np.zeros(0, int), np.zeros(0, int), np.zeros(0, self.dtype)
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        return rows, cols, vals.astype(self.dtype, copy=False)

    def superoperator(self) -> sp.csr_matrix:
        """Sparse D²×D² matrix of the map under column stacking, in ``dtype``."""
        import scipy.sparse as sp

        rows, cols, vals = self.triplets
        n = self.dim * self.dim
        total = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=self.dtype)
        total.eliminate_zeros()
        return total

    def hermitian_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the map on Hermitian ρ = S + iA (S real
        symmetric, A real antisymmetric) in the real coordinates of
        :func:`hermitian_coordinates`: vech S, then strict-vech A from
        D(D+1)/2 on.  Rows give vech Re L(ρ), then strict-vech Im L(ρ);
        values are float64, zeros dropped, duplicates unsummed.

        A Hermiticity-preserving map with real entries commutes with
        transposition, so it sends S to a symmetric and A to an antisymmetric
        matrix: entries between S and A come only from imaginary entries, and
        a real generator has none.
        """
        dim = self.dim
        rows, cols, vals = self.triplets
        sym, anti, sign = hermitian_coordinates(dim)
        ns = dim * (dim + 1) // 2
        # row (i, j) is a row of S when i >= j and of A when i > j; column
        # (k, l) folds onto (max, min), for A with the sign of k - l, which is
        # 0 on the diagonal, where A vanishes
        lower = sign[rows] >= 0
        rows, cols, vals = rows[lower], cols[lower], vals[lower]
        arow, col_sign = sign[rows] > 0, sign[cols]
        re, im = np.real(vals), np.imag(vals)
        srow, scol, arows, acol = sym[rows], sym[cols], ns + anti[rows], ns + anti[cols]
        parts = []
        for r, c, v, on_row in (
            (srow, scol, re, True),
            (srow, acol, -col_sign * im, True),
            (arows, scol, im, arow),
            (arows, acol, col_sign * re, arow),
        ):
            keep = on_row & (v != 0)
            parts.append((r[keep], c[keep], v[keep]))
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        return rows, cols, vals


def _entries(factors, dim: int):
    """((rows, cols), values) of the nonzero entries of U·Vᵀ, or of the
    identity for None."""
    if factors is None:
        return (np.arange(dim), np.arange(dim)), np.ones(dim)
    op = factors[0] @ factors[1].T
    return np.nonzero(op), op[op != 0]


@lru_cache(maxsize=4)
def hermitian_coordinates(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sym, anti, sign), each over the column-stacked positions i + dim·j:
    the vech coordinate of (max(i, j), min(i, j)) among the dim(dim+1)/2
    entries of a lower triangle stacked by columns, its coordinate among the
    dim(dim-1)/2 entries below the diagonal (0 on the diagonal), and the sign
    of i - j.  A Hermitian ρ = S + iA has vec(ρ) = s[sym] + i·sign·a[anti]
    for s = vech S and a = strict-vech A.  The last few dims are kept,
    read-only."""
    p = np.arange(dim * dim, dtype=np.int32)
    i, j = p % dim, p // dim
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    sym = lo * dim - lo * (lo - 1) // 2 + hi - lo
    anti = np.maximum(lo * (dim - 1) - lo * (lo - 1) // 2 + hi - lo - 1, 0)
    out = sym, anti, np.sign(i - j)
    for a in out:
        a.flags.writeable = False
    return out


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
        if not np.isfinite([gamma_linear, gamma_nonlinear, nbar, omega]).all():
            raise InvalidStateError("rates, thermal occupation and omega must be finite")
        if min(gamma_linear, gamma_nonlinear, nbar) < 0:
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
            if not np.isfinite(nonlinear_op).all():
                raise InvalidStateError("engineered operator has a non-finite entry")
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
        """The equation compiled on first use, one term per product, so a rank-1
        x†x stays rank 1 (construction alone, as in a preflight, skips it)."""
        k = -1j * self.hamiltonian
        terms = [(1.0, k, None), (1.0, None, k.conj().T)]
        for ch in self.channels:
            if ch.rate == 0.0:
                continue
            xdx = _gram(ch.op)
            r = ch.rate
            terms += [(-r, xdx, None), (-r, None, xdx), (2.0 * r, ch.op, ch.op.conj().T)]
        return Generator(self.dim, terms)

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
    return me.generator.complex_apply(rho)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(rho).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def superoperator_sparse(me: MasterEquation) -> sp.csr_matrix:
    """Sparse D²×D² matrix representing :func:`rhs` under column stacking."""
    return me.generator.superoperator()


def superoperator_matrix(me: MasterEquation) -> np.ndarray:
    """Dense superoperator matrix; refuses dimensions above
    ``SUPEROPERATOR_DIM_CAP``.

    Above the cap the dense D²×D² matrix is too large to be worth
    materializing; use :func:`superoperator_sparse` instead.
    """
    if me.dim > SUPEROPERATOR_DIM_CAP:
        raise DimensionCapError(
            f"dim {me.dim} exceeds the dense superoperator cap {SUPEROPERATOR_DIM_CAP}; "
            "use the sparse superoperator instead"
        )
    return superoperator_sparse(me).toarray()
