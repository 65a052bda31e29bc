"""Sparse SPD matrix storage, Matrix Market I/O, and synthetic generators.

The CSR container here is deliberately thin: it validates the structural
invariants once at construction, freezes the arrays, and delegates the
matrix-vector kernel to scipy's CSR product (a sequential row-wise dot
product, bitwise reproducible for fixed input).
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = [
    "SparseMatrixCSR",
    "matvec",
    "load_matrix_market",
    "write_matrix_market",
    "gen_pentadiagonal",
    "gen_gmrf_grid",
]


# rows per block of the Gershgorin pass; the block's |values| stay small
_GERSHGORIN_ROWS = 16_384


class SparseMatrixCSR:
    """Immutable compressed-sparse-row storage for a square real symmetric matrix.

    Invariants checked at construction:

    - n >= 1; ``row_ptr`` is non-decreasing with ``row_ptr[0] == 0`` and
      ``row_ptr[n] == nnz``;
    - column indices lie in ``[0, n)`` and are strictly increasing within
      each row (so there are no duplicate entries);
    - all values are finite;
    - symmetry, bitwise: each stored ``(i, j)`` has a stored ``(j, i)`` of
      equal value (an unpartnered explicit zero is refused), so no consumer
      checks it again.

    ``row_ptr`` and ``col_idx`` are int32 when n and nnz fit, int64 otherwise;
    the range checks run on the inputs, before any narrowing.  The stored
    arrays, and any input array sharing their memory, are read-only.

    ``diagonal`` is the main diagonal (0 where no entry is stored), taken
    once at construction and frozen like the CSR arrays; it costs one dense
    n-vector, about 12.5% of a pentadiagonal CSR.

    ``gershgorin`` is the pair (min_i (a_ii - r_i), max_i (a_ii + r_i)) of
    Gershgorin circle extremes, r_i the sum of off-diagonal magnitudes in
    row i, unfloored and unchecked (``spectral.gershgorin_bounds`` refuses
    and floors them).  It is taken once, after the diagonal, by one pass
    over blocks of rows: the block's |values| go into one reused buffer, a
    product of the block (sharing the matrix's column indices) with a ones
    vector sums each row in storage order, |a_ii| of the diagonal comes
    off, and running extremes of a_ii +- r_i are kept.  The ones vector is
    the only n-length array the pass allocates.  The pass is about a
    quarter of the constructor's time on a pentadiagonal matrix, and what
    it keeps is two floats.
    """

    __slots__ = ("_mat", "_diagonal", "_gershgorin")

    def __init__(self, row_ptr, col_idx, values, n=None):
        row_ptr = np.asarray(row_ptr)
        col_idx = np.asarray(col_idx)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if n is None:
            n = row_ptr.shape[0] - 1
        if n < 1:
            raise ValueError(f"matrix is empty: n = {n}, expected at least 1")
        if row_ptr.ndim != 1 or row_ptr.shape[0] != n + 1:
            raise ValueError("row_ptr must have length n+1")
        nnz = values.shape[0]
        if row_ptr[0] != 0 or row_ptr[-1] != nnz:
            raise ValueError("row_ptr[0] must be 0 and row_ptr[n] must equal nnz")
        if col_idx.shape != values.shape:
            raise ValueError("col_idx and values must have equal length")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if nnz and (col_idx.min() < 0 or col_idx.max() >= n):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite")
        index = _index_dtype(n, nnz)
        given = (values, np.ascontiguousarray(col_idx, dtype=index),
                 np.ascontiguousarray(row_ptr, dtype=index))
        mat = sp.csr_matrix(given, shape=(n, n), copy=False)
        # strictly increasing columns within each row, checked in C
        if not mat.has_canonical_format:
            raise ValueError("column indices must be strictly increasing within rows")
        t = mat.T.tocsr()       # canonical, so symmetric means equal arrays
        if not (np.array_equal(mat.indptr, t.indptr)
                and np.array_equal(mat.indices, t.indices)
                and np.array_equal(mat.data, t.data)):
            raise ValueError("matrix is not symmetric: a stored (i, j) has no "
                             "stored (j, i) of equal value")
        # the transpose goes before the diagonal is taken, so the
        # construction peak does not rise
        del t
        stored = (mat.data, mat.indices, mat.indptr)
        mat.data, mat.indices, mat.indptr = map(_frozen, stored, given)
        object.__setattr__(self, "_mat", mat)
        diagonal = mat.diagonal()
        diagonal.flags.writeable = False
        object.__setattr__(self, "_diagonal", diagonal)
        object.__setattr__(self, "_gershgorin", _circle_extremes(mat, diagonal))

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrixCSR is immutable")

    @classmethod
    def from_scipy(cls, mat):
        """Build from a copy of any scipy sparse matrix (duplicates summed)."""
        m = sp.csr_matrix(mat, dtype=np.float64, copy=True)
        m.sum_duplicates()
        return cls(m.indptr, m.indices, m.data, n=m.shape[0])

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("dense input must be square")
        return cls.from_scipy(sp.coo_matrix(arr))   # so its conversion is the one copy

    @property
    def n(self) -> int:
        return self._mat.shape[0]

    @property
    def nnz(self) -> int:
        return self._mat.nnz

    @property
    def row_ptr(self) -> np.ndarray:
        return self._mat.indptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._mat.indices

    @property
    def values(self) -> np.ndarray:
        return self._mat.data

    @property
    def diagonal(self) -> np.ndarray:
        return self._diagonal

    @property
    def gershgorin(self) -> tuple[float, float]:
        return self._gershgorin

    def to_scipy(self) -> sp.csr_matrix:
        """The backing scipy matrix; its arrays are frozen, treat as read-only."""
        return self._mat

    def to_dense(self, max_n: int = 10_000) -> np.ndarray:
        if self.n > max_n:
            raise ValueError(f"refusing to densify a {self.n}x{self.n} matrix "
                             f"(limit {max_n})")
        return self._mat.toarray()

    def bandwidth(self) -> int:
        """Largest |i - j| over stored entries (0 for diagonal matrices)."""
        ptr, cols = self.row_ptr, self.col_idx
        rows = np.flatnonzero(ptr[1:] > ptr[:-1])
        if rows.size == 0:
            return 0
        # columns are sorted, so each row's first entry is its furthest left;
        # by symmetry the entries right of the diagonal mirror those left of it
        return int((rows - cols[ptr[rows]]).max())

    def __repr__(self):
        return f"SparseMatrixCSR(n={self.n}, nnz={self.nnz})"


def _circle_extremes(mat, diag):
    """(min (a_ii - r_i), max (a_ii + r_i)) by the block pass in the class
    docstring."""
    n = mat.shape[0]
    ones = np.ones(n)
    indptr = mat.indptr
    buf = np.empty(0)
    lambda_max, lambda_min = -np.inf, np.inf
    for r0 in range(0, n, _GERSHGORIN_ROWS):
        r1 = min(r0 + _GERSHGORIN_ROWS, n)
        lo, hi = int(indptr[r0]), int(indptr[r1])
        if buf.shape[0] < hi - lo:
            buf = np.empty(hi - lo)
        vals = np.abs(mat.data[lo:hi], out=buf[:hi - lo])
        block = sp.csr_matrix((vals, mat.indices[lo:hi], indptr[r0:r1 + 1] - lo),
                              shape=(r1 - r0, n), copy=False)
        radius = block @ ones
        d = diag[r0:r1]
        radius -= np.abs(d)
        lambda_max = max(lambda_max, float(np.max(d + radius)))
        lambda_min = min(lambda_min, float(np.min(np.subtract(d, radius, out=radius))))
    return lambda_min, lambda_max


def _frozen(stored, given):
    """``stored``, scipy's view of ``given``, made read-only together with
    ``given`` and every array up its ``.base`` chain; a read-only copy
    instead when the memory belongs to a buffer that is not an array."""
    chain = [stored, given]
    while isinstance(chain[-1].base, np.ndarray):
        chain.append(chain[-1].base)
    if chain[-1].base is not None:      # numpy cannot freeze such a buffer
        chain = [stored.copy()]
    for a in chain:
        a.flags.writeable = False
    return chain[0]


def check_lattice_theta(theta) -> None:
    """Refuse a lattice coupling outside |theta| < 1/4, NaN included."""
    if not abs(theta) < 0.25:
        raise ValueError(f"|theta| must be below 1/4 for positive definiteness, got {theta}")


def _index_dtype(n: int, nnz: int):
    """int32 when n and nnz both fit, int64 otherwise."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def matvec(Q: SparseMatrixCSR, v: np.ndarray) -> np.ndarray:
    """Product Q @ v as sequential row-wise dot products.

    Deterministic bitwise for fixed input.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.n,):
        raise ValueError(f"vector has length {v.shape}, expected ({Q.n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return Q.to_scipy() @ v


# ---------------------------------------------------------------------------
# Matrix Market coordinate format (ASCII, 1-based on disk, 0-based in memory)
# ---------------------------------------------------------------------------

def load_matrix_market(path) -> SparseMatrixCSR:
    """Read a Matrix Market coordinate file into CSR storage.

    Symmetric-storage files are expanded to full storage, duplicate entries
    are summed, and the result is sorted and checked per the CSR invariants:
    a general-storage file whose content is not symmetric is refused here.
    """
    try:
        rows, cols, _, fmt, field, symmetry = scipy.io.mminfo(path)
    except ValueError as exc:
        raise ValueError(f"malformed Matrix Market header in {path}: {exc}") from exc
    if fmt != "coordinate":
        raise ValueError(f"unsupported Matrix Market type: {fmt!r} (need coordinate)")
    if field == "complex":
        raise ValueError("complex field is not supported")
    if field not in ("real", "integer"):
        raise ValueError(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    if rows != cols:
        raise ValueError(f"matrix is not square: {rows}x{cols}")
    try:
        coo = scipy.io.mmread(path)
    except ValueError as exc:
        raise ValueError(f"malformed Matrix Market entries in {path}: {exc}") from exc
    return SparseMatrixCSR.from_scipy(coo)


def write_matrix_market(Q: SparseMatrixCSR, path) -> None:
    """Write Q in coordinate format, symmetric storage: its lower triangle.

    Values use shortest round-trip decimal form, so load(write(Q)) restores
    CSR content bitwise.
    """
    with open(path, "wb") as fh:       # a file object: mmwrite keeps the name as given
        scipy.io.mmwrite(fh, Q.to_scipy(), symmetry="symmetric")


# ---------------------------------------------------------------------------
# Synthetic generators used in the experiments
# ---------------------------------------------------------------------------

def gen_pentadiagonal(n: int, seed: int) -> SparseMatrixCSR:
    """Random SPD pentadiagonal matrix of dimension n.

    Diagonals at offsets {0, +1, +2, -1, -2} are drawn uniform on [0, 1)
    from a seeded PCG64 generator (numpy ``default_rng``), then the matrix
    is symmetrized and shifted: ``Q + Q.T + n*I``.  Diagonal dominance makes
    the result SPD: every off-diagonal magnitude is below 2 while the
    diagonal is at least n.

    The CSR arrays are written directly: an n x 5 band of row slots (row i
    holds columns i-2 .. i+2) with the six slots outside the matrix
    dropped, entry by entry equal to building ``Q + Q.T + n*I`` with scipy.
    Each draw is freed once it is used.
    """
    if n < 3:
        raise ValueError("pentadiagonal generator needs n >= 3")
    rng = np.random.default_rng(seed)
    band = np.empty((n, 5))
    d0 = rng.random(n)
    d0 += d0
    d0 += float(n)
    band[:, 2] = d0
    del d0
    u1, u2, l1 = rng.random(n - 1), rng.random(n - 2), rng.random(n - 1)
    u1 += l1                      # entries (i, i+1) and (i+1, i)
    del l1
    band[:-1, 3] = u1
    band[1:, 1] = u1
    del u1
    u2 += rng.random(n - 2)       # entries (i, i+2) and (i+2, i)
    band[:-2, 4] = u2
    band[2:, 0] = u2
    del u2
    index = _index_dtype(n, 5 * n)
    cols = np.arange(n, dtype=index)[:, None] + np.arange(-2, 3, dtype=index)
    inside = (cols >= 0) & (cols < n)
    values = band[inside]
    del band
    col_idx = cols[inside]
    del cols
    row_ptr = np.zeros(n + 1, dtype=index)
    np.cumsum(inside.sum(axis=1), out=row_ptr[1:])
    return SparseMatrixCSR(row_ptr, col_idx, values, n=n)


def gen_gmrf_grid(g: int, theta: float) -> SparseMatrixCSR:
    """Lattice precision matrix Q of a g-by-g grid field.

    Unit diagonal with coupling ``theta`` at the four nearest-neighbor
    positions of a non-periodic lattice.  For |theta| < 1/4 the eigenvalues
    lie in [1 - 4|theta|, 1 + 4|theta|], so Q is SPD.
    """
    if g < 2:
        raise ValueError("grid side must be at least 2")
    check_lattice_theta(theta)
    ones = np.ones(g - 1)
    t = sp.diags([ones, ones], [-1, 1], shape=(g, g))
    eye = sp.identity(g)
    adjacency = sp.kron(eye, t) + sp.kron(t, eye)
    q = (sp.identity(g * g, format="csr") + theta * adjacency).tocsr()
    q.eliminate_zeros()    # theta = 0 would otherwise store an explicit zero pattern
    return SparseMatrixCSR(q.indptr, q.indices, q.data, n=g * g)
