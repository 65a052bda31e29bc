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


# the symmetry check and the Gershgorin pass walk the rows in blocks of
# about n / _BLOCKS rows, never fewer than _MIN_BLOCK_ROWS: a block's
# temporaries stay a fixed share of the matrix, and small matrices pay the
# per-block overhead once
_BLOCKS = 32
_MIN_BLOCK_ROWS = 4_096


def _row_blocks(n: int):
    """(r0, r1) of each block of rows, in order."""
    rows = max(-(-n // _BLOCKS), _MIN_BLOCK_ROWS)
    return ((r0, min(r0 + rows, n)) for r0 in range(0, n, rows))


class SparseMatrixCSR:
    """Immutable compressed-sparse-row storage for a square real symmetric matrix.

    Invariants checked at construction:

    - n = len(row_ptr) - 1 >= 1; ``row_ptr`` is non-decreasing with
      ``row_ptr[0] == 0`` and ``row_ptr[n] == nnz``;
    - column indices lie in ``[0, n)`` and are strictly increasing within
      each row (so there are no duplicate entries);
    - the indices are integers, and the values real and finite;
    - symmetry, bitwise: each stored ``(i, j)`` has a stored ``(j, i)`` of
      equal value (an unpartnered explicit zero is refused; 0.0 and -0.0
      count as equal), so no consumer checks it again.

    ``row_ptr`` and ``col_idx`` are int32 when n and nnz fit, int64 otherwise;
    the range checks run on the inputs, before any narrowing.  The stored
    arrays, and any input array sharing their memory, are read-only.

    Symmetry is checked without a transposed copy of the matrix, over blocks
    of rows (about n/32 rows each, one block up to 4,096 rows), in order.
    Walked that way, the entries of column j come up in the order of their
    rows, which for a symmetric matrix is the order of row j's entries: the
    k-th stored (i, j) must have its mirror (j, i) at ``row_ptr[j] + k``.
    The check keeps one counter per column (``row_ptr[j]`` plus the entries
    of column j seen so far) and sorts each block by column, with scipy's
    counting sort over the columns [c0, c1) the block's entries lie in; when
    that span is wider than the block's entry count, over the block's
    distinct columns instead, found by ``np.unique``.  Each entry's mirror
    position must lie within row j and hold column i with an equal value.
    Distinct entries get distinct positions, so the nnz positions checked
    are all of them and the verdict is the transpose comparison's.  The
    counters (one intp n-vector) and one block's sorted copy and mirror
    positions are all the check allocates.  The counting sort is linear in
    a block's entries, so the check is linear in nnz on banded blocks; a
    block of wide span costs k log k in its k entries, so the check costs
    nnz log nnz at most.

    ``diagonal`` is the main diagonal (0 where no entry is stored), taken
    once at construction, after the symmetry check, and frozen like the CSR
    arrays; it costs one dense n-vector, about 12.5% of a pentadiagonal CSR.

    ``gershgorin`` is the pair (min_i (a_ii - r_i), max_i (a_ii + r_i)) of
    Gershgorin circle extremes, r_i the sum of off-diagonal magnitudes in
    row i, unfloored and unchecked (``spectral.gershgorin_bounds`` refuses
    and floors them).  It is taken once, after the diagonal, by one pass
    over the same blocks of rows: a product of the block's |values| (with
    the matrix's column indices) and a ones vector sums each row in storage
    order, |a_ii| of the diagonal comes off, and the block's extremes of
    a_ii +- r_i are kept; each block's arrays are freed before the next.
    The ones vector is the only n-length array the pass allocates, and what
    it keeps is two floats.  The constructor's peak above its inputs is
    therefore the diagonal, the ones vector and one block on a banded
    matrix (2.3 n-vectors at n = 2*10^5), and the check's counters and one
    block's sort on a scattered one (2.6).
    """

    __slots__ = ("_mat", "_diagonal", "_gershgorin")

    def __init__(self, row_ptr, col_idx, values):
        row_ptr, col_idx, values = map(np.asarray, (row_ptr, col_idx, values))
        # a cast would truncate float indices and drop imaginary parts
        for name, index in (("row_ptr", row_ptr), ("col_idx", col_idx)):
            if index.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {index.dtype}")
        if values.dtype.kind not in "biuf":
            raise ValueError(f"matrix values must be real, got dtype {values.dtype}")
        values = np.ascontiguousarray(values, dtype=np.float64)
        if row_ptr.ndim != 1:
            raise ValueError(f"row_ptr must be 1-D, got shape {row_ptr.shape}")
        n = row_ptr.shape[0] - 1
        if n < 1:
            raise ValueError(f"matrix is empty: n = {n}, expected at least 1")
        nnz = values.shape[0]
        if row_ptr[0] != 0 or row_ptr[-1] != nnz:
            raise ValueError("row_ptr[0] must be 0 and row_ptr[n] must equal nnz")
        if col_idx.shape != values.shape:
            raise ValueError("col_idx and values must have equal length")
        if np.any(row_ptr[1:] < row_ptr[:-1]):      # np.diff wraps on unsigned
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
        _check_symmetric(mat)
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
        """Build from a copy of a square scipy sparse matrix or 2-D array
        (duplicates summed in float64; complex input reaches the
        constructor's refusal uncast)."""
        if np.ndim(mat) != 2:           # scipy would make a 1-D array one row
            raise ValueError(f"input must be 2-D, got shape {np.shape(mat)}")
        dtype = np.complex128 if np.iscomplexobj(mat) else np.float64
        m = sp.csr_matrix(mat, dtype=dtype, copy=True)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is not square: {m.shape[0]}x{m.shape[1]}")
        m.sum_duplicates()
        return cls(m.indptr, m.indices, m.data)

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

    def bandwidth(self) -> int:
        """Largest |i - j| over stored entries (0 for diagonal matrices).

        Columns are sorted, so each row's first entry is its furthest left;
        by symmetry the entries right of the diagonal mirror those left of
        it.  The rows are read in blocks, so the temporaries are a block's.
        """
        ptr, cols = self.row_ptr, self.col_idx
        width = 0
        for r0, r1 in _row_blocks(self.n):
            first = ptr[r0:r1]
            rows = np.flatnonzero(ptr[r0 + 1:r1 + 1] > first)
            if rows.size:
                width = max(width, r0 + int((rows - cols[first[rows]]).max()))
        return width

    def __repr__(self):
        return f"SparseMatrixCSR(n={self.n}, nnz={self.nnz})"


def _circle_extremes(mat, diag):
    """(min (a_ii - r_i), max (a_ii + r_i)) by the block pass in the class
    docstring."""
    n = mat.shape[0]
    ones = np.ones(n)
    indptr = mat.indptr

    def extremes(r0, r1):       # a block's arrays are freed before the next
        lo, hi = int(indptr[r0]), int(indptr[r1])
        block = sp.csr_matrix((np.abs(mat.data[lo:hi]), mat.indices[lo:hi],
                               indptr[r0:r1 + 1] - lo), shape=(r1 - r0, n), copy=False)
        radius = block @ ones
        del block
        d = diag[r0:r1]
        radius -= np.abs(d)
        return float(np.min(d - radius)), float(np.max(np.add(d, radius, out=radius)))

    lows, highs = zip(*(extremes(r0, r1) for r0, r1 in _row_blocks(n)))
    return min(lows), max(highs)


def _check_symmetric(mat):
    """Refuse a canonical CSR ``mat`` unless it equals its transpose, by the
    block walk in the class docstring."""
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    # where column j's next entry is mirrored; intp, so the positions below
    # gather without a cast, and 8 bytes a row like the diagonal taken next,
    # which can then reuse their memory (int32 counters left holes that
    # raised the process peak by 15 MB in some runs)
    following = indptr[:-1].astype(np.intp)
    for r0, r1 in _row_blocks(mat.shape[0]):
        lo, hi = int(indptr[r0]), int(indptr[r1])
        if lo == hi:
            continue
        cols = indices[lo:hi]
        c0, c1 = int(cols.min()), int(cols.max()) + 1
        if c1 - c0 <= hi - lo:
            present, local = np.arange(c0, c1), cols - c0
        else:
            present, local = np.unique(cols, return_inverse=True)
        # the block sorted by column, rows increasing within each column
        by_col = sp.csr_matrix((data[lo:hi], local, indptr[r0:r1 + 1] - lo),
                               shape=(r1 - r0, present.shape[0]), copy=False).tocsc()
        del local
        count = np.diff(by_col.indptr)
        start = following[present]
        if np.any(count > indptr[present + 1] - start):
            _refuse_asymmetric()
        mirror = np.repeat(start - by_col.indptr[:-1], count)
        mirror += np.arange(hi - lo)
        rows = indices[mirror]
        rows -= r0
        if not (np.array_equal(rows, by_col.indices)
                and np.array_equal(data[mirror], by_col.data)):
            _refuse_asymmetric()
        start += count
        following[present] = start


def _refuse_asymmetric():
    raise ValueError("matrix is not symmetric: a stored (i, j) has no "
                     "stored (j, i) of equal value")


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


def check_lattice(g: int, theta) -> None:
    """Refuse a lattice outside its domain: grid side g >= 2 and coupling
    |theta| < 1/4, NaN refused."""
    if g < 2:
        raise ValueError("grid side must be at least 2")
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
        fmt, field, symmetry = scipy.io.mminfo(path)[3:]
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

def _checked_seed(seed) -> int:
    """``seed`` as a Python int, or a refusal unless it is a non-negative
    integer (a bool is not one)."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def gen_pentadiagonal(n: int, seed: int) -> SparseMatrixCSR:
    """Random SPD pentadiagonal matrix of dimension n.

    Diagonals at offsets {0, +1, +2, -1, -2} are drawn uniform on [0, 1)
    from a seeded PCG64 generator (numpy ``default_rng``), then the matrix
    is symmetrized and shifted: ``Q + Q.T + n*I``.  Diagonal dominance makes
    the result SPD: every off-diagonal magnitude is below 2 while the
    diagonal is at least n.  A seed that is not a non-negative integer is
    refused, as ``estimate`` refuses it.

    The CSR arrays are written directly, entry by entry equal to building
    ``Q + Q.T + n*I`` with scipy.  Row i's entries are columns i-2 .. i+2:
    slot k of row i in a C-order n x 5 array holds entry (i, i+k-2), and a
    matching array holds its column.  Each draw is added to its two
    mirrored slot columns and freed, so no more than one draw is held
    beside the slot arrays.  The six slots outside the matrix lie at flat
    positions 0, 1, 5 and 5n-6, 5n-2, 5n-1: shifting row 0's three entries
    one slot right and row n-1's one slot left leaves the 5n-6 entries in
    order in ``flat[3:5n-3]``, and those views are the CSR arrays.
    """
    if n < 3:
        raise ValueError("pentadiagonal generator needs n >= 3")
    seed = _checked_seed(seed)
    nnz = 5 * n - 6
    index = _index_dtype(n, nnz)
    row_ptr = np.arange(-3, 5 * n - 2, 5, dtype=index)      # 5i - 3 inside
    row_ptr[[0, 1, n - 1, n]] = 0, 3, nnz - 3, nnz
    rng = np.random.default_rng(seed)
    values = np.zeros((n, 5))
    diag = values[:, 2]
    diag += rng.random(n)
    diag += diag
    diag += float(n)
    # draws u1, u2, l1, l2 in turn: (i, i+1) and (i+1, i) hold u1 + l1,
    # (i, i+2) and (i+2, i) hold u2 + l2
    for k in (1, 2, 1, 2):
        draw = rng.random(n - k)
        values[:-k, 2 + k] += draw
        values[k:, 2 - k] += draw
        del draw
    # the row numbers come after the array they fill, so freeing them leaves
    # no hole under it in the heap (a hole raised the peak of later builds)
    cols = np.empty((n, 5), dtype=index)
    np.add(np.arange(n, dtype=index)[:, None], np.arange(-2, 3, dtype=index), out=cols)
    flat = [a.reshape(-1) for a in (cols, values)]
    for slots in flat:
        slots[3:6] = slots[2:5]             # row 0 one slot right
        slots[-6:-3] = slots[-5:-2]         # row n-1 one slot left
    return SparseMatrixCSR(row_ptr, *(slots[3:-3] for slots in flat))


def gen_gmrf_grid(g: int, theta: float) -> SparseMatrixCSR:
    """Lattice precision matrix Q of a g-by-g grid field.

    Unit diagonal with coupling ``theta`` at the four nearest-neighbor
    positions of a non-periodic lattice.  For |theta| < 1/4 the eigenvalues
    lie in [1 - 4|theta|, 1 + 4|theta|], so Q is SPD.

    The CSR arrays are written directly, equal to building
    ``I + theta * (kron(I, T) + kron(T, I))`` with scipy (T the path
    adjacency) with its zeros dropped.  Node ``a*g + b`` sits in grid row a;
    all grid rows of one kind (first, inner, last) share one pattern of
    entries, shifted by ``a*g``, so each kind's rows are one 2-D view of the
    arrays filled from a template of O(g) entries.  theta = 0 leaves the
    identity.
    """
    check_lattice(g, theta)
    n = g * g
    nnz = n + 4 * g * (g - 1) if theta != 0 else n
    index = _index_dtype(n, nnz)
    row_ptr, col_idx = np.empty(n + 1, dtype=index), np.empty(nnz, dtype=index)
    values = np.empty(nnz)
    b = np.arange(g)[:, None]
    offsets = np.array([-g, -1, 0, 1, g])         # column order within a row
    cols = b + offsets                            # less a*g, for node a*g + b
    stored = (cols >= 0) & (cols < g) | (np.abs(offsets) == g)
    if theta == 0:
        stored &= offsets == 0
    start = 0
    for a0, a1 in ((0, 1), (1, g - 1), (g - 1, g)):     # grid rows of one pattern
        keep = stored & ((offsets != -g) | (a0 > 0)) & ((offsets != g) | (a1 < g))
        rows, width = a1 - a0, int(keep.sum())
        a = np.arange(a0, a1, dtype=index)[:, None]
        end = start + rows * width
        np.add(cols[keep].astype(index), a * g,
               out=col_idx[start:end].reshape(rows, width))
        values[start:end].reshape(rows, width)[:] = np.where(cols == b, 1.0, theta)[keep]
        counts = keep.sum(axis=1)
        np.add((np.cumsum(counts) - counts).astype(index), (a - a0) * width + start,
               out=row_ptr[a0 * g:a1 * g].reshape(rows, g))
        start = end
    row_ptr[n] = nnz
    return SparseMatrixCSR(row_ptr, col_idx, values)
