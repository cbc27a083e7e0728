"""Finite-difference discretization: grids, sparse Hermitian operators,
the Dirichlet Laplacian, and assembly of H(beta) = H0 + sum_i beta_i V_i.

Grid nodes are the unknowns; Dirichlet boundary conditions are imposed by
zero ghost nodes one spacing outside each axis.  With N nodes and spacing h
on one axis the 1D Laplacian is tridiag(-1, 2, -1)/h^2 with eigenvalues
(2/h^2)(1 - cos(k pi/(N+1))), k = 1..N.
"""

from __future__ import annotations

import copy
import functools
import operator
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
    # (ascending eigenvalues, their error bound delta) of a Hermitian
    # operator: the closed form for a Laplacian (`build_laplacian`), H0's
    # for an H(beta) that adds no term (`AffineFamily`), else the band
    # eigenvalues `analytic._spectrum` reduces on first use.  The matrix is
    # never written in place, so it cannot go stale.
    _spectrum: tuple[np.ndarray, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # `_canonical` sums in a copy: csr_matrix may share the caller's indptr.
        mat = _canonical(sp.csr_matrix(self.matrix, dtype=complex))
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
        """Cheap upper bound on the operator 2-norm (`schur_norm`)."""
        return schur_norm(self.matrix)


def schur_norm(mat) -> float:
    """The Schur bound sqrt(max column sum * max row sum of |entries|) on the
    2-norm of the sparse `mat`, summed in storage order: pass it canonical."""
    a = abs(mat)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def _rows(mat) -> np.ndarray:
    """The row of every stored entry of the CSR `mat`."""
    return np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))


def _transpose_positions(key: np.ndarray, n: int) -> np.ndarray:
    """For the ascending keys (t n + row) n + col of stored entries of n x n
    terms t, the position of each entry's transpose (col, row) in its term,
    or len(key), which reads the trailing 0 callers append to their data."""
    rest = key % (n * n)
    rows, cols = np.divmod(rest, n)
    transpose = key - rest + cols * n + rows
    pos = np.searchsorted(key, transpose)
    return np.where(np.append(key, -1)[pos] == transpose, pos, len(key))


def _with_transpose(mat) -> tuple[np.ndarray, np.ndarray]:
    """The square `mat`'s canonical entries, a 0, and `_transpose_positions`."""
    mat = _canonical(mat)
    n = mat.shape[0]
    return np.append(mat.data, 0), _transpose_positions(_rows(mat) * n + mat.indices, n)


def _hermitian_entries(data: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Whether each entry of `data` but its last is finite and equals the conjugate
    of data[partner]; all are exactly when mat - mat^H stores only zeros."""
    entries = data[:-1]
    return (entries == data[partner].conj()) & np.isfinite(entries)


def is_hermitian(mat) -> bool:
    """Exact test: the sparse `mat`, duplicates summed, equals its adjoint."""
    return mat.shape[0] == mat.shape[1] and bool(_hermitian_entries(*_with_transpose(mat)).all())


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


def build_laplacian(grid: Grid) -> DiscreteOperator:
    """Standard (2m+1)-point second-order stencil for -Laplace with
    Dirichlet boundary, as a sparse Hermitian operator that carries its
    spectrum: the ascending sums of the per-axis `laplacian_eigenvalues_1d`
    (read-only), each within delta = max(d, 6) eps ||H||_1 of an exact
    eigenvalue of the stored matrix, so no certificate reduces its band.

    The CSR arrays come straight from the stencil: row r of node (j_0, ...,
    j_(m-1)), C order, holds its neighbour r - s_k on axis k (stride s_k,
    where j_k > 0) for k = 0..m-1, itself, and r + s_k (where j_k < n_k - 1)
    for k = m-1..0, so its columns ascend.  That is the canonical CSR of the
    Kronecker sum of the 1D matrices sum_k I x ... x L_k x ... x I, the
    diagonal summed axis by axis, a_0 + a_1 + a_2, as that sum adds it.

    Soundness.  On axis i the stored diagonal is a_i = fl(2/h_i^2) =
    -2 fl(-1/h_i^2) exactly, so the stored 1D matrix a_i tridiag(-1/2, 1,
    -1/2) has the exact eigenvalues a_i (1 - cos(k pi/(n_i+1))), which
    `laplacian_eigenvalues_1d` evaluates within 7 eps a_i: the argument
    rounds by 1.2 eps relative, which moves the cosine by at most
    max(t sin t) 1.2 eps < 2.2 eps, the cosine itself by 2 eps (4 ulps), the
    subtraction by eps and the product by eps a_i.  The off-diagonals are
    the per-axis values unrounded, and only the diagonal sum rounds, one
    float shared by every row: the stored matrix is the exact sum of the
    stored 1D matrices shifted by less than (m - 1) eps sum_i a_i / 2, which
    moves every eigenvalue alike.  The m - 1 additions of the per-axis
    values round by at most (m - 1) eps sum_i a_i.  For m <= 3 that is
    10 eps sum_i a_i = 5 eps ||H||_1 in all (||H||_1 = 2 sum_i a_i, as every
    axis has an interior node), inside the Weyl delta d eps ||H||_1 of the
    band reduction (`_weyl_delta`) for d >= 6; smaller grids take
    6 eps ||H||_1.
    Sorted values keep the bound, as sorting a matching never lengthens it.
    """
    points, spacing, d = grid.points, grid.spacing, grid.size
    axes = range(len(points))
    node = np.indices(points).reshape(len(points), d)
    stride = [int(np.prod(points[k + 1:])) for k in axes]
    rows = np.arange(d)
    # Each row's 2m + 1 stencil slots, in ascending column order, and
    # whether the slot's node exists.
    cols = np.stack([rows - stride[k] for k in axes] + [rows] +
                    [rows + stride[k] for k in reversed(axes)], axis=1)
    stored = np.stack([node[k] > 0 for k in axes] + [np.ones(d, dtype=bool)] +
                      [node[k] < points[k] - 1 for k in reversed(axes)], axis=1)
    off = [-1.0 / h**2 for h in spacing]
    # Left to right, as the Kronecker sum adds (not `sum`, which compensates
    # from Python 3.12 on).
    diagonal = functools.reduce(operator.add, [2.0 / h**2 for h in spacing])
    values = np.broadcast_to(off + [diagonal] + off[::-1], cols.shape)
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    op = sp.csr_matrix((values[stored], cols[stored], indptr), shape=(d, d))
    op = DiscreteOperator(op, hermitian=True, grid=grid)
    E = functools.reduce(np.add.outer, [laplacian_eigenvalues_1d(n, h) for n, h in
                                        zip(points, spacing)]).ravel()
    E.sort()
    E.flags.writeable = False
    object.__setattr__(op, "_spectrum", (E, _weyl_delta(op) * max(1.0, 6 / op.dim)))
    return op


def laplacian_eigenvalues_1d(n: int, h: float) -> np.ndarray:
    """Closed-form Dirichlet spectrum (2/h^2)(1 - cos(k pi/(n+1))), k=1..n."""
    k = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))


def _weyl_delta(op: DiscreteOperator) -> float:
    """delta = d eps ||H||_1: each band eigenvalue of a Hermitian `op` lies
    within delta of the exact one (Weyl, with the backward error of the
    band reduction).

    The column sums come straight from the CSR arrays: ``bincount`` adds
    each column's |entries| in storage order (ascending rows), the order of
    scipy's ``abs(H).sum(axis=0)``, whose bits delta keeps at a
    fraction of its cost.
    """
    mat = op.matrix
    sums = np.bincount(mat.indices, weights=np.abs(mat.data), minlength=op.dim)
    return op.dim * np.finfo(float).eps * float(sums.max())


class AffineFamily:
    """beta -> H(beta) = H0 + sum_i beta_i V_i over fixed sparse terms V_i.

    The terms are stored as one `_Terms` table of every term's entries,
    however the family was built.  Whether each V_i is Hermitian is decided
    once, at construction, on that table; H(beta) then carries the Hermitian
    flag when H0 is Hermitian, beta is real and every V_i with a nonzero
    coupling is Hermitian, so H(0) keeps H0's flag, and an H(beta) that adds
    no term carries the spectrum H0 carries (see
    `DiscreteOperator._spectrum`).  The sparsity pattern of
    H(beta) is fixed once too, as the union of the stored entries of H0 and
    every V_i, and so is one prototype CSR matrix on it, whose read-only
    index arrays scipy built and checked once; V(beta) lives on H(beta)'s
    pattern, accumulated from zeros, and H0's entries are stored zeros of
    it, which change neither its dense value nor its Schur norm.  Each call
    is one accumulation into a data vector on that pattern and a shallow copy
    of the prototype that carries it, with none of scipy's constructor
    checks.  Entries that cancel, and the entries of terms with a zero
    coupling, are kept as stored zeros.

    A flagged H(beta) is tested exactly on the fixed pattern, as
    `is_hermitian` tests a matrix; one that fails (say, a NaN real coupling
    or an entry that overflows) raises LatticeError.
    """

    def __init__(self, h0: DiscreteOperator, terms: tuple):
        """The family of the n x n matrices `terms` (sparse or dense), each
        stored in canonical form."""
        shape = h0.matrix.shape
        mats = tuple(_canonical(t) for t in terms)
        for i, t in enumerate(mats):
            if t.shape != shape:
                raise LatticeError(f"term {i} has shape {t.shape}, H0 has {shape}")
        self._init(h0, _Terms.of_matrices(h0.dim, mats))

    def _init(self, h0: DiscreteOperator, table: "_Terms") -> None:
        self.h0 = h0
        self._table = table
        self._term_data = table.per_term(table.data)
        self.terms_hermitian = table.hermitian()
        self._layout = _Layout.union(h0.matrix, table)

    @classmethod
    def from_potentials(cls, h0: DiscreteOperator, family) -> "AffineFamily":
        """Diagonal multiplication operators V_i sampled once on H0's grid.

        `family` must provide `sample_table(grid)` (see
        `potentials.PotentialFamily.sample_table`): every term's samples at
        the grid nodes inside its supports, as one table.  Each V_i stores its
        nonzero samples only, the entries ``sp.diags`` would keep, and no
        per-term matrix is built.
        """
        if h0.grid is None:
            raise GridMismatchError("h0 carries no grid; cannot sample potentials")
        if h0.grid.size != h0.dim:
            raise GridMismatchError(
                f"potential sampled with {h0.grid.size} values on a {h0.dim}-point operator")
        ptr, nodes, values = family.sample_table(h0.grid)
        values = np.asarray(values, dtype=complex)
        if not np.all(np.isfinite(values)):
            raise LatticeError("non-finite potential sample")
        nonzero = values != 0
        kept = np.concatenate(([0], np.cumsum(nonzero)))[ptr]
        system = cls.__new__(cls)
        system._init(h0, _Terms(h0.dim, kept, nodes[nonzero], nodes[nonzero],
                                values[nonzero]))
        return system

    @functools.cached_property
    def terms(self) -> tuple[sp.csr_matrix, ...]:
        """Each V_i as a canonical CSR matrix, built on first use (H(beta)
        never uses them)."""
        return tuple(self._table.matrix(i) for i in range(len(self._table)))

    def __call__(self, beta) -> DiscreteOperator:
        """H(beta); trailing couplings beyond len(beta) are zero."""
        # With no term added, H0's entries bit for bit, and stored zeros, which
        # change neither its spectrum nor its delta: the spectrum H0 carries serves.
        return self._accumulate(self._layout.base.copy(), self.h0.hermitian,
                                self.h0._spectrum, beta)

    def perturbation(self, beta) -> DiscreteOperator:
        """V(beta) = sum_i beta_i V_i."""
        return self._accumulate(np.zeros_like(self._layout.base), True, None, beta)

    def _accumulate(self, data: np.ndarray, hermitian: bool, spectrum,
                    beta) -> DiscreteOperator:
        """The operator on `data` (laid out as `_Layout.base`) plus
        sum_i beta_i V_i, flagged Hermitian as the class docstring says, that
        carries `spectrum` when beta adds no term."""
        if len(beta) > len(self._table):
            raise LatticeError(
                f"beta has {len(beta)} entries but family has only {len(self._table)} terms"
            )
        layout = self._layout
        added = False
        # Terms are added one at a time and zero couplings skipped: the
        # summation order fixes the last bits of every reported value.  Each
        # entry takes the additions of a sequential sparse sum, in its order.
        for b, values, pos, term_hermitian in zip(beta, self._term_data, layout.term_pos,
                                                  self.terms_hermitian):
            if b != 0:
                data[pos] += values * complex(b)
                hermitian = hermitian and term_hermitian and complex(b).imag == 0
                added = True
        if hermitian and not layout.is_hermitian(data):
            raise LatticeError(_NOT_HERMITIAN)
        mat = copy.copy(layout.proto)
        mat.data = data[:-1]
        op = DiscreteOperator._checked(mat, hermitian, self.h0.grid)
        if not added:
            object.__setattr__(op, "_spectrum", spectrum)
        return op


def _canonical(mat) -> sp.csr_matrix:
    """`mat` as CSR with sorted column indices and no duplicate entries
    (`mat` itself when it already is)."""
    mat = mat.tocsr() if sp.issparse(mat) else sp.csr_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


@dataclass(frozen=True)
class _Terms:
    """The stored entries of every n x n term V_i of an `AffineFamily`, term
    after term: entries ptr[i]:ptr[i+1] of rows, cols and data (complex) are
    V_i's, in canonical CSR order (by row, then column, no duplicates)."""

    n: int
    ptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=complex))

    @classmethod
    def of_matrices(cls, n: int, mats: tuple) -> "_Terms":
        """The table of the canonical n x n CSR matrices `mats`."""
        empty = np.zeros(0, dtype=np.int64)
        rows = [_rows(m) for m in mats]
        return cls(n, np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64))),
                   np.concatenate(rows or [empty]),
                   np.concatenate([m.indices for m in mats] or [empty]).astype(np.int64),
                   np.concatenate([m.data for m in mats] or [empty]))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def per_term(self, entries: np.ndarray) -> list[np.ndarray]:
        """`entries`, one value per table entry, as one view per term."""
        ptr = self.ptr.tolist()
        return [entries[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    def hermitian(self) -> tuple[bool, ...]:
        """`is_hermitian` of every term, from one pass over the table
        (`_hermitian_entries`, each transpose looked up in the same term)."""
        n, term = self.n, np.repeat(np.arange(len(self)), np.diff(self.ptr))
        key = (term * n + self.rows) * n + self.cols  # ascending
        fails = ~_hermitian_entries(np.append(self.data, 0), _transpose_positions(key, n))
        return tuple((np.bincount(term[fails], minlength=len(self)) == 0).tolist())

    def matrix(self, i: int) -> sp.csr_matrix:
        """Term i as a canonical CSR matrix."""
        n, entries = self.n, slice(self.ptr[i], self.ptr[i + 1])
        mat = sp.csr_matrix((self.data[entries], self.cols[entries],
                             np.searchsorted(self.rows[entries], np.arange(n + 1))),
                            shape=(n, n))
        mat.has_canonical_format = True
        return mat


@dataclass(frozen=True)
class _Layout:
    """A fixed canonical CSR pattern of an `AffineFamily`.

    `proto` is the CSR matrix of the constant part on it, in canonical
    form, whose `indptr` and `indices` (made by scipy's constructor) are
    read-only, so every shallow copy can share them; `base` is the data of
    the constant part (H0's entries) and one trailing 0, which no entry
    takes; `term_pos[i]` is the position in the pattern of each entry
    of term i; `partner` is `_transpose_positions` of the pattern.
    """

    proto: sp.csr_matrix
    base: np.ndarray
    term_pos: list[np.ndarray]
    partner: np.ndarray

    @classmethod
    def union(cls, h0, terms: _Terms) -> "_Layout":
        """The union of the stored entries of the canonical n x n matrix
        `h0` and the term table `terms`."""
        n = terms.n
        rows = np.concatenate((_rows(h0), terms.rows))
        cols = np.concatenate((h0.indices, terms.cols))
        union, pos = np.unique(rows * n + cols, return_inverse=True)
        rows, cols = np.divmod(union, n)
        base = np.zeros(len(union) + 1, dtype=complex)
        base[pos[:h0.nnz]] = h0.data
        pos = pos[h0.nnz:]
        proto = sp.csr_matrix((base[:-1], cols, np.searchsorted(rows, np.arange(n + 1))),
                              shape=(n, n))
        proto.has_canonical_format = True
        proto.indptr.flags.writeable = proto.indices.flags.writeable = False
        return cls(proto, base, terms.per_term(pos), _transpose_positions(union, n))

    def is_hermitian(self, data: np.ndarray) -> bool:
        """`is_hermitian` of the matrix on `data`, laid out as `base`."""
        return bool(_hermitian_entries(data, self.partner).all())


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
