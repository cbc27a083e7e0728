"""Finite-difference discretization: grids, sparse Hermitian operators,
the Dirichlet Laplacian, and assembly of H(beta) = H0 + sum_i beta_i V_i.

Grid nodes are the unknowns; Dirichlet boundary conditions are imposed by
zero ghost nodes one spacing outside each axis.  With N nodes and spacing h
on one axis the 1D Laplacian is tridiag(-1, 2, -1)/h^2 with eigenvalues
(2/h^2)(1 - cos(k pi/(N+1))), k = 1..N.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Grid",
    "DiscreteOperator",
    "CouplingSeq",
    "AffineFamily",
    "LatticeError",
    "GridMismatchError",
    "build_laplacian",
    "assemble_hamiltonian",
    "graph_norm",
]

DEFAULT_POINT_BUDGET = 2_000_000
# Largest dimension `DiscreteOperator.to_dense` densifies (a complex
# 4096 x 4096 array takes 268 MB); the dense eigensolves and SVDs behind it
# would need several such arrays more.
DENSE_MAX_DIM = 4096

_NOT_HERMITIAN = "hermitian flag set but matrix is not Hermitian"


class LatticeError(ValueError):
    """Invalid lattice input."""


class GridMismatchError(LatticeError):
    """Operands sampled on different grids."""


@dataclass(frozen=True)
class Grid:
    """Regular grid on a product of closed intervals, Dirichlet boundary.

    extent[k] = (a_k, b_k); points[k] = N_k nodes placed at
    a_k + j h_k, j = 0..N_k-1 with h_k = (b_k - a_k)/(N_k - 1).
    """

    extent: tuple[tuple[float, float], ...]
    points: tuple[int, ...]

    def __post_init__(self):
        m = len(self.extent)
        if m not in (1, 2, 3):
            raise LatticeError(f"dimension must be 1, 2 or 3, got {m}")
        if len(self.points) != m:
            raise LatticeError("points/extent dimension mismatch")
        for (a, b), n in zip(self.extent, self.points):
            if n < 3:
                raise LatticeError(f"need at least 3 points per axis, got {n}")
            if b <= a:
                raise LatticeError(f"empty extent [{a}, {b}]")
        if self.size > DEFAULT_POINT_BUDGET:
            raise LatticeError(
                f"grid has {self.size} points, budget is {DEFAULT_POINT_BUDGET}"
            )

    @property
    def dim(self) -> int:
        return len(self.extent)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / (n - 1) for (a, b), n in zip(self.extent, self.points))

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(a, b, n) for (a, b), n in zip(self.extent, self.points)
        ]

    def nodes(self) -> np.ndarray:
        """All grid nodes as a (size, dim) array in C (row-major) order."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([g.ravel() for g in grids])


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse complex operator with an exactness-enforced hermitian flag."""

    matrix: sp.csr_matrix
    hermitian: bool
    grid: Grid | None = None
    # (band eigenvalues, Weyl delta) of a Hermitian operator, set by
    # `analytic._spectrum` on first use.  The matrix is never written in
    # place, so it cannot go stale.
    _spectrum: tuple[np.ndarray, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = sp.csr_matrix(self.matrix, dtype=complex)
        mat.sum_duplicates()
        object.__setattr__(self, "matrix", mat)
        if mat.shape[0] != mat.shape[1]:
            raise LatticeError(f"operator must be square, got {mat.shape}")
        if self.hermitian and not is_hermitian(mat):
            raise LatticeError(_NOT_HERMITIAN)

    @classmethod
    def _checked(cls, matrix: sp.csr_matrix, hermitian: bool,
                 grid: Grid | None) -> "DiscreteOperator":
        """The operator on `matrix` as given, with none of the constructor's
        checks run again.

        For `AffineFamily` alone, which has made each of them: `matrix` is a
        square complex CSR matrix in canonical form (sorted indices, no
        duplicates), and a set `hermitian` flag was tested exactly on the
        stored entries (see `_Layout.is_hermitian`).
        """
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", matrix)
        object.__setattr__(op, "hermitian", hermitian)
        object.__setattr__(op, "grid", grid)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi)
        if psi.shape[0] != self.dim:
            raise LatticeError(f"dimension mismatch: {psi.shape[0]} vs {self.dim}")
        return self.matrix @ psi

    def to_dense(self) -> np.ndarray:
        """The d x d array; raises LatticeError above DENSE_MAX_DIM."""
        if self.dim > DENSE_MAX_DIM:
            raise LatticeError(
                f"dimension {self.dim} exceeds the dense limit {DENSE_MAX_DIM}")
        return self.matrix.toarray()

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def norm_bound(self) -> float:
        """Cheap upper bound on the operator 2-norm (sqrt(norm1*norminf))."""
        a = abs(self.matrix)
        n1 = a.sum(axis=0).max()
        ninf = a.sum(axis=1).max()
        return float(np.sqrt(n1 * ninf))


def _csr(mat):
    """`mat` in CSR format, with no copy when it already is."""
    return mat.tocsr() if sp.issparse(mat) else sp.csr_matrix(mat)


def is_hermitian(mat) -> bool:
    """Exact test: the sparse matrix equals its conjugate transpose.

    When every stored entry lies on the diagonal the test is read off the
    diagonal, with no subtraction: such a matrix is Hermitian exactly when
    its diagonal is real (and finite, as the subtraction would give NaN for
    an infinite entry).
    """
    mat = _csr(mat)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    if mat.shape[0] == mat.shape[1] and np.array_equal(mat.indices, rows):
        # Duplicate entries are summed, as the subtraction does.
        diag = mat.data if mat.has_canonical_format else mat.diagonal()
        return bool(np.all((diag.imag == 0) & np.isfinite(diag.real)))
    defect = abs(mat - mat.getH())
    return bool(not defect.nnz or defect.max() == 0.0)


@dataclass(frozen=True)
class CouplingSeq:
    """Truncation of a coupling sequence beta in l^p(C).

    `declared_norm` defaults to the computed norm of the stored values; an
    explicitly declared norm must dominate the computed one (the stored
    values are a truncation of the full sequence).  Values and declared
    norm must be finite: a NaN or infinite coupling would make every bound
    built on the sequence NaN or infinite.
    """

    values: tuple[complex, ...]
    p: float = np.inf
    declared_norm: float | None = None

    def __post_init__(self):
        if len(self.values) < 1:
            raise LatticeError("CouplingSeq needs at least one value")
        if not (1 <= self.p):
            raise LatticeError(f"p must be in [1, inf], got {self.p}")
        if not np.all(np.isfinite(np.asarray(self.values, dtype=complex))):
            raise LatticeError(f"non-finite coupling in {self.values}")
        if self.declared_norm is not None and not np.isfinite(self.declared_norm):
            raise LatticeError(f"declared norm {self.declared_norm} is not finite")
        computed = self.norm()
        if self.declared_norm is None:
            object.__setattr__(self, "declared_norm", computed)
        elif computed > self.declared_norm + 1e-12:
            raise LatticeError(
                f"computed l^{self.p} norm {computed:.12g} exceeds declared "
                f"norm {self.declared_norm:.12g}"
            )

    def norm(self) -> float:
        v = np.abs(np.asarray(self.values, dtype=complex))
        if np.isinf(self.p):
            return float(v.max())
        return float((v**self.p).sum() ** (1.0 / self.p))

    def __len__(self) -> int:
        return len(self.values)


def _laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def build_laplacian(grid: Grid) -> DiscreteOperator:
    """Standard (2m+1)-point second-order stencil for -Laplace with
    Dirichlet boundary, as a sparse Hermitian operator."""
    parts = [_laplacian_1d(n, h) for n, h in zip(grid.points, grid.spacing)]
    op = parts[0]
    for part in parts[1:]:
        op = sp.kron(op, sp.identity(part.shape[0], format="csr"), format="csr") + sp.kron(
            sp.identity(op.shape[0], format="csr"), part, format="csr"
        )
    return DiscreteOperator(op, hermitian=True, grid=grid)


def laplacian_eigenvalues_1d(n: int, h: float) -> np.ndarray:
    """Closed-form Dirichlet spectrum (2/h^2)(1 - cos(k pi/(n+1))), k=1..n."""
    k = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))


@dataclass(frozen=True)
class AffineFamily:
    """beta -> H(beta) = H0 + sum_i beta_i V_i over fixed sparse terms V_i.

    Whether each V_i is Hermitian is decided once, at construction; H(beta)
    then carries the Hermitian flag when H0 is Hermitian, beta is real and
    every V_i with a nonzero coupling is Hermitian, so H(0) keeps H0's flag.
    The sparsity pattern of H(beta) is fixed once too, as the union of the
    stored entries of H0 and every V_i (V(beta): of every V_i), and so is
    one prototype CSR matrix on it, whose read-only index arrays scipy built
    and checked once.  Each call is one accumulation into a data vector on
    that pattern and a shallow copy of the prototype that carries it, with
    none of scipy's constructor checks.  Entries that cancel, and the
    entries of terms with a zero coupling, are kept as stored zeros.

    A flagged H(beta) is tested exactly on the fixed pattern, with the
    predicate of `is_hermitian` and no sparse subtraction: every entry is
    finite and equals the conjugate of its transpose's entry, which is 0
    where the transpose is not stored.  An H(beta) that fails (say, a NaN
    real coupling or an entry that overflows) raises LatticeError.
    """

    h0: DiscreteOperator
    terms: tuple[sp.csr_matrix, ...]
    terms_hermitian: tuple[bool, ...] = field(init=False)
    _h_layout: "_Layout" = field(init=False, repr=False, compare=False)
    _v_layout: "_Layout" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.h0.matrix.shape
        terms = tuple(_canonical(t) for t in self.terms)
        for i, t in enumerate(terms):
            if t.shape != shape:
                raise LatticeError(f"term {i} has shape {t.shape}, H0 has {shape}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "terms_hermitian", tuple(is_hermitian(t) for t in terms))
        n = self.h0.dim
        object.__setattr__(self, "_h_layout", _Layout.union(n, self.h0.matrix, terms))
        object.__setattr__(self, "_v_layout", _Layout.union(n, None, terms))

    @classmethod
    def from_potentials(cls, h0: DiscreteOperator, family) -> "AffineFamily":
        """Diagonal multiplication operators V_i sampled once on H0's grid.

        `family` must provide `sample_on(grid) -> list of real/complex
        arrays` (one diagonal per term).  Each V_i stores its nonzero
        samples only, the entries ``sp.diags`` would keep.
        """
        if h0.grid is None:
            raise GridMismatchError("h0 carries no grid; cannot sample potentials")
        terms = []
        for d in family.sample_on(h0.grid):
            d = np.asarray(d, dtype=complex)
            if d.shape[0] != h0.dim:
                raise GridMismatchError(
                    f"potential sampled with {d.shape[0]} values on a {h0.dim}-point grid"
                )
            if not np.all(np.isfinite(d)):
                raise LatticeError("non-finite potential sample")
            nonzero = d != 0
            indptr = np.concatenate(([0], np.cumsum(nonzero)))
            terms.append(sp.csr_matrix((d[nonzero], np.flatnonzero(nonzero), indptr),
                                       shape=(h0.dim, h0.dim)))
        return cls(h0, tuple(terms))

    def __call__(self, beta) -> DiscreteOperator:
        """H(beta); trailing couplings beyond len(beta) are zero."""
        return self._accumulate(self._h_layout, self.h0.hermitian, beta)

    def perturbation(self, beta) -> DiscreteOperator:
        """V(beta) = sum_i beta_i V_i."""
        return self._accumulate(self._v_layout, True, beta)

    def _accumulate(self, layout: "_Layout", hermitian: bool, beta) -> DiscreteOperator:
        if len(beta) > len(self.terms):
            raise LatticeError(
                f"beta has {len(beta)} entries but family has only {len(self.terms)} terms"
            )
        data = layout.base.copy()
        # Terms are added one at a time and zero couplings skipped: the
        # summation order fixes the last bits of every reported value.  Each
        # entry takes the additions of a sequential sparse sum, in its order.
        for b, op, pos, term_hermitian in zip(beta, self.terms, layout.term_pos,
                                              self.terms_hermitian):
            if b != 0:
                data[pos] += op.data * complex(b)
                hermitian = hermitian and term_hermitian and complex(b).imag == 0
        if hermitian and not layout.is_hermitian(data):
            raise LatticeError(_NOT_HERMITIAN)
        mat = copy.copy(layout.proto)
        mat.data = data[:-1]
        return DiscreteOperator._checked(mat, hermitian, self.h0.grid)


def _canonical(mat) -> sp.csr_matrix:
    """`mat` as CSR with sorted column indices and no duplicate entries
    (`mat` itself when it already is)."""
    mat = _csr(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


@dataclass(frozen=True)
class _Layout:
    """A fixed canonical CSR pattern of an `AffineFamily`.

    `proto` is the CSR matrix of the constant part on it, in canonical
    form, whose `indptr` and `indices` (made by scipy's constructor) are
    read-only, so every shallow copy can share them; `base` is the data of
    the constant part (H0's entries, or zeros) and one trailing 0, which no
    entry takes; `term_pos[i]` is the position in the pattern of each entry
    of term i; `partner[k]` is the position of the transpose of entry k, or
    nnz (the trailing 0) when it is not stored.
    """

    proto: sp.csr_matrix
    base: np.ndarray
    term_pos: list[np.ndarray]
    partner: np.ndarray

    @classmethod
    def union(cls, n: int, h0, terms) -> "_Layout":
        """The union of the stored entries of the canonical n x n matrices
        `h0` (or None: a zero base) and `terms`."""
        mats = terms if h0 is None else (h0, *terms)
        counts = np.concatenate([np.diff(m.indptr) for m in mats] or [np.zeros(0, dtype=int)])
        rows = np.repeat(np.tile(np.arange(n, dtype=np.int64), len(mats)), counts)
        cols = np.concatenate([m.indices for m in mats] or [np.zeros(0, dtype=int)])
        union, pos = np.unique(rows * n + cols, return_inverse=True)
        pos = np.split(pos, np.cumsum([m.nnz for m in mats])[:-1])
        rows, cols = np.divmod(union, n)
        base = np.zeros(len(union) + 1, dtype=complex)
        if h0 is not None:
            base[pos.pop(0)] = h0.data
        proto = sp.csr_matrix((base[:-1], cols, np.searchsorted(rows, np.arange(n + 1))),
                              shape=(n, n))
        proto.has_canonical_format = True
        proto.indptr.flags.writeable = proto.indices.flags.writeable = False
        transpose = cols * n + rows
        partner = np.searchsorted(union, transpose)
        stored = partner < len(union)
        stored[stored] = union[partner[stored]] == transpose[stored]
        partner[~stored] = len(union)
        return cls(proto, base, pos, partner)

    def is_hermitian(self, data: np.ndarray) -> bool:
        """`is_hermitian` of the matrix on `data` (laid out as `base`): every
        entry is finite and equals the conjugate of its partner, and an
        entry without a partner is 0.  For finite entries a - b == 0 exactly
        when a == b, so this is the subtraction's verdict."""
        entries = data[:-1]
        return bool((entries == data[self.partner].conj()).all()
                    and np.isfinite(entries).all())


def assemble_hamiltonian(h0: DiscreteOperator, family, beta: CouplingSeq) -> DiscreteOperator:
    """H(beta) with the potentials of `family` sampled on H0's grid (see
    `AffineFamily.from_potentials`); beta may not be longer than the family."""
    return AffineFamily.from_potentials(h0, family)(beta.values)


def graph_norm(h0: DiscreteOperator, psi: np.ndarray) -> float:
    """||psi|| + ||H0 psi|| in the Euclidean discrete norm."""
    psi = np.asarray(psi)
    if psi.shape[0] != h0.dim:
        raise LatticeError(f"dimension mismatch: {psi.shape[0]} vs {h0.dim}")
    return float(np.linalg.norm(psi) + np.linalg.norm(h0.matvec(psi)))
