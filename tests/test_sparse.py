import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from lejadet import (SparseMatrixCSR, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, matvec, sparse, write_matrix_market)
from sparse_oracles import lattice_by_kron, pentadiagonal_by_mask


def random_sparse_symmetric():
    """A 6 x 6 symmetric matrix with about half its off-diagonal entries stored."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.25)
    return SparseMatrixCSR.from_scipy(a + a.T + 6.0 * np.eye(6))


def is_symmetric_bitwise(m):
    """The transpose comparison, value bits included, on a canonical scipy
    CSR matrix or a SparseMatrixCSR."""
    if isinstance(m, SparseMatrixCSR):
        m = m.to_scipy()
    t = m.T.tocsr()
    return (np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices)
            and m.data.tobytes() == t.data.tobytes())


# a zero on the diagonal, and zeros off it that a dense input does not store;
# its stored entries, row by row
ONE_DOOR = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 3.0], [0.0, 3.0, 4.0]])
ONE_DOOR_VALUES = [2.0, -1.0, -1.0, 3.0, 3.0, 4.0]


def same_arrays(Q, row_ptr, col_idx, values):
    """Q's CSR arrays equal the given ones bitwise, index dtypes included."""
    return (Q.row_ptr.dtype == row_ptr.dtype and Q.col_idx.dtype == col_idx.dtype
            and np.array_equal(Q.row_ptr, row_ptr) and np.array_equal(Q.col_idx, col_idx)
            and Q.values.tobytes() == np.asarray(values).tobytes())


class TestMatvec:
    def test_identity(self):
        Q = SparseMatrixCSR.from_scipy(np.eye(3))
        np.testing.assert_array_equal(matvec(Q, np.array([1.0, 2.0, 3.0])),
                                      [1.0, 2.0, 3.0])

    def test_diagonal(self):
        Q = SparseMatrixCSR.from_scipy(np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(matvec(Q, np.array([1.0, 1.0])), [2.0, 3.0])

    def test_pentadiagonal_first_column(self):
        Q = gen_pentadiagonal(5, seed=0)
        e1 = np.zeros(5)
        e1[0] = 1.0
        np.testing.assert_array_equal(matvec(Q, e1), Q.to_scipy().toarray()[:, 0])

    def test_reproduces_every_column(self):
        for n, seed in [(7, 1), (30, 2), (50, 3)]:
            Q = gen_pentadiagonal(n, seed=seed)
            dense = Q.to_scipy().toarray()
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                np.testing.assert_array_equal(matvec(Q, e), dense[:, j])

    def test_dimension_mismatch(self):
        Q = SparseMatrixCSR.from_scipy(np.eye(3))
        with pytest.raises(ValueError, match="length"):
            matvec(Q, np.ones(4))

    def test_nonfinite_rejected(self):
        Q = SparseMatrixCSR.from_scipy(np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            matvec(Q, np.array([1.0, np.nan]))

    def test_deterministic_bitwise(self):
        Q = gen_pentadiagonal(200, seed=9)
        v = np.random.default_rng(0).standard_normal(200)
        a = matvec(Q, v)
        b = matvec(Q, v)
        assert np.array_equal(a, b)


class TestCSRInvariants:
    def test_bad_row_ptr(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(np.array([0, 2, 1]), np.array([0, 1]),
                            np.array([1.0, 1.0]))

    @pytest.mark.parametrize("row_ptr,cols,values,n,message", [
        ([0, 1], [0], [1.0], 2, "row_ptr must have length n"),
        ([0, 1, 2], [0, 1, 1], [1.0, 1.0], None, "equal length"),
        ([0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0], None, "non-decreasing"),
        (np.array([0, 2, 1, 3], dtype=np.uint64), [0, 1, 2], [1.0, 1.0, 1.0], None,
         "non-decreasing"),
        ([0, 1, 2], [0, 1], [1.0, np.inf], None, "must be finite"),
        ([0, 1, 2], [0, 1], [np.nan, 1.0], None, "must be finite"),
        # a cast to the index dtype would truncate these to [0, 1] and [0, 1, 2]
        ([0, 1, 2], [0.9, 1.7], [1.0, 2.0], None, "^col_idx must hold integers"),
        ([0, 1.5, 2], [0, 1], [1.0, 2.0], None, "^row_ptr must hold integers"),
        ([0, 1, 2], [False, True], [1.0, 2.0], None, "^col_idx must hold integers"),
        ([[0, 1]], [0], [1.0], None, r"^row_ptr must be 1-D, got shape \(1, 2\)$"),
        # a cast to float64 would drop the imaginary parts, or parse the strings
        ([0, 1, 2], [0, 1], [1.0 + 2.0j, 1.0], None, "^matrix values must be real"),
        ([0, 1, 2], [0, 1], [1.0 + 0.0j, 1.0], None, "^matrix values must be real"),
        ([0, 1, 2], [0, 1], ["1", "2"], None, "^matrix values must be real"),
    ], ids=["row-ptr-length", "unequal-lengths", "decreasing-row-ptr",
            "decreasing-unsigned-row-ptr", "inf", "nan", "float-col-idx", "float-row-ptr",
            "bool-col-idx", "2d-row-ptr", "complex", "complex-zero-imaginary", "strings"])
    @pytest.mark.filterwarnings("error")
    def test_malformed_arrays_refused(self, row_ptr, cols, values, n, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrixCSR(np.array(row_ptr), np.array(cols), np.array(values), n=n)

    def test_empty_matrix_refused(self):
        for make in (lambda: SparseMatrixCSR.from_scipy(np.zeros((0, 0))),
                     lambda: SparseMatrixCSR(np.array([0]), np.array([], dtype=int),
                                             np.array([]))):
            with pytest.raises(ValueError, match="matrix is empty: n = 0"):
                make()

    def test_non_square_dense_refused(self):
        with pytest.raises(ValueError, match="^matrix is not square: 2x3$"):
            SparseMatrixCSR.from_scipy(np.ones((2, 3)))
        # scipy would read a 1-D array as one row: length 1 as a 1 x 1 matrix
        for arr in (np.array([5.0]), np.ones(4), np.ones((2, 2, 2)), sp.coo_array(np.ones(4))):
            with pytest.raises(ValueError, match="^input must be 2-D"):
                SparseMatrixCSR.from_scipy(arr)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [
        lambda: sp.csr_matrix([[1 + 2j, 0], [0, 1]]),
        lambda: np.array([[1 + 0j, 0], [0, 1]]),
        lambda: [[2.0, 1j], [-1j, 2.0]],
    ], ids=["scipy", "array", "nested-lists"])
    def test_complex_input_refused(self, make):
        # not made real with a ComplexWarning on the way in
        with pytest.raises(ValueError, match="^matrix values must be real"):
            SparseMatrixCSR.from_scipy(make())

    @pytest.mark.parametrize("make,values", [
        (lambda: ONE_DOOR, ONE_DOOR_VALUES),
        (lambda: ONE_DOOR.tolist(), ONE_DOOR_VALUES),
        # (0, 0) and (2, 2) stored twice, columns out of order
        (lambda: sp.coo_matrix(([3.0, 1.5, -1.0, 3.0, -1.0, 1.0, 0.5, 3.0],
                                ([2, 0, 1, 1, 0, 2, 0, 2], [2, 0, 0, 2, 1, 2, 0, 1])),
                               shape=(3, 3)), ONE_DOOR_VALUES),
        (lambda: sp.csc_matrix(ONE_DOOR), ONE_DOOR_VALUES),
        (lambda: ONE_DOOR.astype(np.int64), ONE_DOOR_VALUES),
        (lambda: ONE_DOOR != 0, [1.0] * 6),
    ], ids=["array", "nested-lists", "coo-duplicates", "csc", "int", "bool"])
    def test_from_scipy_matches_constructor(self, make, values):
        ref = SparseMatrixCSR(np.array([0, 2, 4, 6], dtype=np.int32),
                              np.array([0, 1, 0, 2, 1, 2], dtype=np.int32), np.array(values))
        Q = SparseMatrixCSR.from_scipy(make())
        assert same_arrays(Q, ref.row_ptr, ref.col_idx, ref.values)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=["wide", "tall"])
    def test_non_square_scipy_refused(self, shape):
        # unchecked, a wide input would become its leading 3 x 3 block, and a
        # tall one a singular 5 x 5 matrix with two empty rows
        message = f"^matrix is not square: {shape[0]}x{shape[1]}$"
        with pytest.raises(ValueError, match=message):
            SparseMatrixCSR.from_scipy(sp.eye(*shape, format="csr"))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrixCSR(np.array([0, 1, 2]), np.array([0, 5]),
                            np.array([1.0, 1.0]))

    def test_unsorted_columns(self):
        for cols in ([1, 0], [0, 0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                SparseMatrixCSR(np.array([0, 2, 2]), np.array(cols),
                                np.array([1.0, 1.0]))

    def test_immutable(self):
        Q = SparseMatrixCSR.from_scipy(np.eye(2))
        with pytest.raises(AttributeError):
            Q._mat = None
        for arr in (Q.row_ptr, Q.col_idx, Q.values):
            assert not arr.flags.writeable
        m = Q.to_scipy()
        assert m.indptr is Q.row_ptr and m.indices is Q.col_idx

    @staticmethod
    def writable_sharers(Q, arrays):
        """Those of ``arrays`` that are writable and share memory with Q."""
        stored = (Q.row_ptr, Q.col_idx, Q.values)
        return [a for a in arrays
                if a.flags.writeable and any(np.shares_memory(a, b) for b in stored)]

    def test_constructor_leaves_no_writable_alias(self):
        # int32 indices and float64 values are stored without a copy; the
        # values are a view of a larger array the caller keeps
        ptr = np.array([0, 2, 4], dtype=np.int32)
        idx = np.array([0, 1, 0, 1], dtype=np.int32)
        owner = np.array([7.0, 2.0, 0.5, 0.5, 3.0])
        vals = owner[1:]
        Q = SparseMatrixCSR(ptr, idx, vals)
        assert self.writable_sharers(Q, [ptr, idx, owner, vals]) == []
        np.testing.assert_array_equal(Q.to_scipy().toarray(), [[2.0, 0.5], [0.5, 3.0]])

    def test_foreign_buffer_is_copied(self):
        # memory owned by a bytearray cannot be frozen through numpy
        buf = bytearray(np.array([2.0, 0.5, 0.5, 3.0]).tobytes())
        vals = np.frombuffer(buf)
        Q = SparseMatrixCSR(np.array([0, 2, 4]), np.array([0, 1, 0, 1]), vals)
        assert vals.flags.writeable and self.writable_sharers(Q, [vals]) == []
        assert not Q.values.flags.writeable

    @pytest.mark.parametrize("duplicates", [False, True], ids=["canonical", "duplicates"])
    def test_from_scipy_leaves_its_input_alone(self, duplicates):
        if duplicates:     # (0, 1) stored twice, columns out of order in row 0
            a = sp.csr_matrix((np.array([0.25, 2.0, 0.25, 0.5, 3.0]),
                               np.array([1, 0, 1, 0, 1]), np.array([0, 3, 5])),
                              shape=(2, 2))
            assert not a.has_canonical_format
        else:
            a = sp.csr_matrix(np.array([[2.0, 0.5], [0.5, 3.0]]))
        before = [arr.copy() for arr in (a.indptr, a.indices, a.data)]
        Q = SparseMatrixCSR.from_scipy(a)
        for arr, old in zip((a.indptr, a.indices, a.data), before):
            np.testing.assert_array_equal(arr, old)
        assert self.writable_sharers(Q, [a.indptr, a.indices, a.data]) == []
        np.testing.assert_array_equal(Q.to_scipy().toarray(), [[2.0, 0.5], [0.5, 3.0]])

    def test_index_dtype_int32_when_it_fits(self):
        Q = SparseMatrixCSR(np.array([0, 1, 2], dtype=np.int64),
                            np.array([0, 1], dtype=np.int64), np.array([1.0, 1.0]))
        assert Q.row_ptr.dtype == np.int32 and Q.col_idx.dtype == np.int32

    def test_wide_column_index_rejected_before_narrowing(self):
        # 2**33 wraps to 0 in int32; the range check must see the input value
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrixCSR(np.array([0, 1, 2]), np.array([0, 2**33], dtype=np.int64),
                            np.array([1.0, 1.0]), n=2)

    def test_asymmetric_refused(self):
        sym = SparseMatrixCSR.from_scipy(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert is_symmetric_bitwise(sym)
        for dense in ([[2.0, -1.0], [0.0, 2.0]],          # (1, 0) not stored
                      [[4.0, 1.0], [2.0, 4.0]],           # both stored, unequal
                      [[4.0, 1.0], [np.nextafter(1.0, 2.0), 4.0]]):   # by one ulp
            with pytest.raises(ValueError, match="matrix is not symmetric"):
                SparseMatrixCSR.from_scipy(np.array(dense))

    def test_unpartnered_explicit_zero_refused(self):
        # stored (0, 1) = 0.0 has no stored (1, 0) partner
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            SparseMatrixCSR(np.array([0, 2, 3]), np.array([0, 1, 1]),
                                np.array([2.0, 0.0, 2.0]))


class TestHeldDiagonal:
    """``Q.diagonal``: taken once at construction, frozen, bitwise scipy's."""

    @pytest.mark.parametrize("make_q", [
        # (1, 1) is not stored
        lambda: SparseMatrixCSR(np.array([0, 3, 4, 6]), np.array([0, 1, 2, 0, 0, 2]),
                                np.array([2.0, 0.5, -1.0, 0.5, -1.0, 3.0])),
        # row 1 (and column 1) is empty
        lambda: SparseMatrixCSR.from_scipy(np.array([[2.0, 0.0, -1.0],
                                                     [0.0, 0.0, 0.0],
                                                     [-1.0, 0.0, 4.0]])),
        lambda: SparseMatrixCSR.from_scipy(np.array([[-0.25]])),
        random_sparse_symmetric,
        lambda: gen_pentadiagonal(1000, seed=2),
    ], ids=["missing-entry", "empty-row", "n-1", "random-sparse", "penta"])
    def test_bitwise_equal_to_scipy(self, make_q):
        Q = make_q()
        ref = Q.to_scipy().diagonal()
        assert Q.diagonal.shape == (Q.n,) and Q.diagonal.dtype == np.float64
        assert Q.diagonal.tobytes() == ref.tobytes()

    def test_present_after_every_constructor(self, tmp_path):
        dense = np.array([[3.0, -1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, 2.0, 5.0]])
        p = tmp_path / "m.mtx"
        write_matrix_market(SparseMatrixCSR.from_scipy(dense), p)
        for Q in (SparseMatrixCSR.from_scipy(sp.coo_matrix(dense)),
                  SparseMatrixCSR.from_scipy(dense), load_matrix_market(p)):
            assert np.array_equal(Q.diagonal, [3.0, 0.0, 5.0])

    def test_frozen(self):
        Q = gen_pentadiagonal(10, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            Q.diagonal[0] = 1.0
        with pytest.raises(AttributeError):
            Q.diagonal = np.zeros(10)
        assert Q.diagonal is Q.diagonal      # held, not recomputed per access


class TestMatrixMarket:
    def test_symmetric_expansion(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 3\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n")
        Q = load_matrix_market(p)
        np.testing.assert_array_equal(Q.to_scipy().toarray(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_duplicates_summed(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "1 1 2\n1 1 1.0\n1 1 1.0\n")
        Q = load_matrix_market(p)
        assert Q.nnz == 1
        assert Q.values[0] == 2.0

    def test_round_trip_bitwise(self, tmp_path):
        p = tmp_path / "m.mtx"
        for Q in (gen_pentadiagonal(40, seed=5), gen_gmrf_grid(20, -0.2),
                  random_sparse_symmetric()):
            write_matrix_market(Q, p)
            R = load_matrix_market(p)
            assert np.array_equal(Q.row_ptr, R.row_ptr)
            assert np.array_equal(Q.col_idx, R.col_idx)
            assert np.array_equal(Q.values, R.values)

    @pytest.mark.parametrize("make_q", [lambda: gen_pentadiagonal(40, seed=5),
                                        lambda: gen_gmrf_grid(20, -0.2)],
                             ids=["penta", "lattice"])
    def test_symmetric_storage(self, tmp_path, make_q):
        """Every matrix is written as its lower triangle."""
        Q = make_q()
        p = tmp_path / "m.mtx"
        write_matrix_market(Q, p)
        coo = Q.to_scipy().tocoo()
        stored_diagonal = int(np.count_nonzero(coo.row == coo.col))
        assert scipy.io.mminfo(p)[2:] == ((Q.nnz + stored_diagonal) // 2, "coordinate",
                                          "real", "symmetric")

    def test_general_storage_loads_only_symmetric_content(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 4.0\n1 2 1.0\n2 1 1.0\n2 2 4.0\n")
        Q = load_matrix_market(p)
        np.testing.assert_array_equal(Q.to_scipy().toarray(), [[4.0, 1.0], [1.0, 4.0]])
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 4.0\n1 2 1.0\n2 1 2.0\n2 2 4.0\n")
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            load_matrix_market(p)

    def test_comments_and_integer_field(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate integer general\n"
                     "% a comment\n2 2 2\n1 1 3\n2 2 4\n")
        Q = load_matrix_market(p)
        np.testing.assert_array_equal(Q.to_scipy().toarray(), [[3.0, 0.0], [0.0, 4.0]])

    @pytest.mark.parametrize("content,msg", [
        ("%%Garbage matrix\n1 1 1\n1 1 1.0\n", "header"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
         "complex"),
        ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
         "square"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n",
         "entries"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
         "unsupported"),
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
         "unsupported field 'pattern'"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
         "unsupported symmetry 'skew-symmetric'"),
    ])
    def test_malformed_inputs(self, tmp_path, content, msg):
        p = tmp_path / "bad.mtx"
        p.write_text(content)
        with pytest.raises(ValueError, match=msg):
            load_matrix_market(p)


class TestPentadiagonalGenerator:
    def test_structure(self):
        n = 5
        Q = gen_pentadiagonal(n, seed=0)
        dense = Q.to_scipy().toarray()
        assert Q.bandwidth() == 2
        diag = np.diag(dense)
        assert np.all(diag >= n) and np.all(diag < n + 2)
        off = dense - np.diag(diag)
        assert np.all(np.abs(off) < 2.0)

    def test_minimal_size_band_full(self):
        Q = gen_pentadiagonal(3, seed=1)
        dense = Q.to_scipy().toarray()
        assert np.all(dense != 0.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_pentadiagonal(2, seed=0)

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 0), (50, 3), (1000, 7)])
    def test_bitwise_equal_to_scipy_formula(self, n, seed):
        rng = np.random.default_rng(seed)
        diagonals = [rng.random(n), rng.random(n - 1), rng.random(n - 2),
                     rng.random(n - 1), rng.random(n - 2)]
        q = sp.diags(diagonals, [0, 1, 2, -1, -2], format="csr")
        ref = (q + q.T + float(n) * sp.identity(n, format="csr")).tocsr()
        ref.sort_indices()
        Q = gen_pentadiagonal(n, seed)
        assert np.array_equal(Q.row_ptr, ref.indptr)
        assert np.array_equal(Q.col_idx, ref.indices)
        assert Q.values.tobytes() == ref.data.tobytes()

    def test_seed_reproducible(self):
        a = gen_pentadiagonal(64, seed=42)
        b = gen_pentadiagonal(64, seed=42)
        assert np.array_equal(a.values, b.values)
        c = gen_pentadiagonal(64, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_exactly_symmetric(self):
        assert is_symmetric_bitwise(gen_pentadiagonal(300, seed=3))


class TestGmrfGenerator:
    def test_two_by_two_grid(self):
        theta = -0.22
        Q = gen_gmrf_grid(2, theta)
        expected = np.array([
            [1.0, theta, theta, 0.0],
            [theta, 1.0, 0.0, theta],
            [theta, 0.0, 1.0, theta],
            [0.0, theta, theta, 1.0],
        ])
        np.testing.assert_array_equal(Q.to_scipy().toarray(), expected)

    def test_theta_zero_is_identity(self):
        Q = gen_gmrf_grid(5, 0.0)
        np.testing.assert_array_equal(Q.to_scipy().toarray(), np.eye(25))

    def test_spd_condition_enforced(self):
        for theta in (0.25, float("nan")):      # NaN fails |theta| < 1/4 too
            with pytest.raises(ValueError, match="1/4"):
                gen_gmrf_grid(4, theta)

    def test_grid_side_below_two_refused(self):
        with pytest.raises(ValueError, match="grid side must be at least 2"):
            gen_gmrf_grid(1, -0.22)

    def test_exactly_symmetric(self):
        assert is_symmetric_bitwise(gen_gmrf_grid(13, -0.22))


# ---------------------------------------------------------------------------
# The blockwise symmetry check
# ---------------------------------------------------------------------------

ROWS = sparse._MIN_BLOCK_ROWS
N_BLOCKS = 3 * ROWS + 100        # four blocks of ROWS rows, the last one partial


def band(n, bandwidth=2, seed=0, rows=None):
    """Canonical scipy CSR of a symmetric band matrix of order n with distinct
    nonzero values; ``rows``, if given, keeps only the entries whose row and
    column both lie in it."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    r, c, v = [i], [i], [n + rng.random(n)]
    for k in range(1, min(bandwidth, n - 1) + 1):
        off = rng.uniform(0.5, 1.5, n - k)
        r += [i[:-k], i[k:]]
        c += [i[k:], i[:-k]]
        v += [off, off]
    r, c, v = map(np.concatenate, (r, c, v))
    if rows is not None:
        keep = np.isin(r, rows) & np.isin(c, rows)
        r, c, v = r[keep], c[keep], v[keep]
    return sp.csr_matrix((v, (r, c)), shape=(n, n))


def with_entries(m, entries):
    """``m`` with the (i, j, value) entries stored as well (new positions)."""
    coo = m.tocoo()
    i, j, v = (np.array(x).reshape(-1) for x in zip(*entries)) if entries else ([],) * 3
    return sp.csr_matrix((np.concatenate([coo.data, v]),
                          (np.concatenate([coo.row, i]), np.concatenate([coo.col, j]))),
                         shape=m.shape)


def without(m, k):
    """``m`` with its k-th stored entry dropped."""
    coo = m.tocoo()
    keep = np.arange(m.nnz) != k
    return sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=m.shape)


def at(m, i, j):
    """Index into ``m.data`` of the stored (i, j)."""
    lo, hi = m.indptr[i], m.indptr[i + 1]
    k = lo + int(np.searchsorted(m.indices[lo:hi], j))
    assert k < hi and m.indices[k] == j
    return k


def accepts(m):
    """The constructor's verdict on the arrays of canonical CSR ``m``."""
    assert m.has_canonical_format
    try:
        SparseMatrixCSR(m.indptr, m.indices, m.data.copy(), n=m.shape[0])
    except ValueError as exc:
        assert "matrix is not symmetric" in str(exc)
        return False
    return True


class TestBlockwiseSymmetryCheck:
    """The constructor walks blocks of rows; it must refuse exactly what the
    transpose comparison refuses, across block boundaries too."""

    def test_blocks_as_assumed(self):
        blocks = list(sparse._row_blocks(N_BLOCKS))
        assert [r0 for r0, _ in blocks] == [0, ROWS, 2 * ROWS, 3 * ROWS]
        assert blocks[-1][1] == N_BLOCKS
        assert list(sparse._row_blocks(ROWS)) == [(0, ROWS)]

    def test_one_ulp_in_last_block(self):
        m = band(N_BLOCKS)
        assert accepts(m)
        k = at(m, N_BLOCKS - 1, N_BLOCKS - 3)
        m.data[k] = np.nextafter(m.data[k], 2.0)
        assert not is_symmetric_bitwise(m) and not accepts(m)

    @pytest.mark.parametrize("entries,symmetric", [
        ([(0, N_BLOCKS - 1, 0.5)], False),
        ([(N_BLOCKS - 1, 0, 0.5)], False),
        ([(0, N_BLOCKS - 1, 0.5), (N_BLOCKS - 1, 0, 0.5)], True),
        ([(0, N_BLOCKS - 1, 0.5), (N_BLOCKS - 1, 0, 0.25)], False),
    ], ids=["upper-only", "lower-only", "pair", "pair-unequal"])
    def test_far_corner_entry(self, entries, symmetric):
        # a banded matrix over several blocks, plus a corner entry whose
        # mirror sits in the first or the last block
        m = with_entries(band(N_BLOCKS), entries)
        assert is_symmetric_bitwise(m) == symmetric
        assert accepts(m) == symmetric

    def test_mirror_pair_straddling_block_boundary(self):
        m = band(N_BLOCKS)
        b = list(sparse._row_blocks(N_BLOCKS))[1][0]
        k = at(m, b, b - 1)           # (b - 1, b) is stored in the block before
        m.data[k] = np.nextafter(m.data[k], 0.0)
        assert not accepts(m)
        m = with_entries(band(N_BLOCKS), [(b - 7, b + 9, 0.75), (b + 9, b - 7, 0.75)])
        assert accepts(m)
        m.data[at(m, b + 9, b - 7)] = 0.625
        assert not accepts(m)

    @pytest.mark.parametrize("pair", [False, True], ids=["unpartnered", "pair"])
    def test_explicit_zero_across_blocks(self, pair):
        entries = [(N_BLOCKS - 1, 2, 0.0)] + ([(2, N_BLOCKS - 1, 0.0)] if pair else [])
        m = with_entries(band(N_BLOCKS), entries)
        assert m.nnz == band(N_BLOCKS).nnz + len(entries)      # zeros stay stored
        assert accepts(m) == pair

    def test_empty_rows_and_empty_block(self):
        # block 1 has no entries, and neither do its columns nor rows 10..19
        n = 3 * ROWS
        kept = np.r_[0:10, 20:ROWS, 2 * ROWS:n]
        m = band(n, rows=kept)
        assert np.all(np.diff(m.indptr)[ROWS:2 * ROWS] == 0)
        assert accepts(m)
        for entries, symmetric in [([(0, ROWS + 5, 1.0)], False),
                                   ([(ROWS + 5, 0, 1.0)], False),
                                   ([(15, n - 1, 1.0)], False),
                                   ([(0, ROWS + 5, 1.0), (ROWS + 5, 0, 1.0)], True)]:
            e = with_entries(m, entries)
            assert is_symmetric_bitwise(e) == symmetric
            assert accepts(e) == symmetric

    @pytest.mark.parametrize("n", [1, 2, ROWS - 1, ROWS, ROWS + 1])
    def test_sizes_around_one_block(self, n):
        m = band(n)
        assert accepts(m)
        if n > 1:
            k = at(m, n - 1, n - 2)
            bad = m.copy()
            bad.data[k] = np.nextafter(bad.data[k], 0.0)
            assert not accepts(bad)
            assert not accepts(with_entries(band(n, bandwidth=0), [(n - 1, 0, 1.0)]))

    @pytest.mark.parametrize("n", [3, N_BLOCKS])
    def test_cycle_of_equal_values_refused(self, n):
        # (a, b), (b, c), (c, a) of one value in otherwise empty rows: the
        # transpose has the same row counts and values, only its columns differ
        a, b, c = n - 3, n - 2, n - 1
        m = with_entries(band(n, bandwidth=0, rows=np.arange(a)),
                         [(a, b, 0.5), (b, c, 0.5), (c, a, 0.5)])
        assert not accepts(m)

    @pytest.mark.parametrize("n", [2, N_BLOCKS])
    def test_signed_zero_pair_accepted(self, n):
        # 0.0 == -0.0, as the transpose comparison's array_equal has it; the
        # bits are kept as given
        m = with_entries(band(n, bandwidth=0), [(0, n - 1, 0.0), (n - 1, 0, -0.0)])
        assert not is_symmetric_bitwise(m)        # the bits differ
        Q = SparseMatrixCSR(m.indptr, m.indices, m.data, n=n)
        assert np.signbit(Q.values[at(m, n - 1, 0)])
        assert not np.signbit(Q.values[at(m, 0, n - 1)])

    @pytest.mark.parametrize("pattern,n", [("arrow", N_BLOCKS), ("scattered", N_BLOCKS),
                                           ("scattered", 2**16 + 4_500)],
                             ids=["arrow", "scattered", "scattered-wide"])
    def test_unbanded_patterns(self, pattern, n):
        # blocks whose columns span far more than their entries, so the check
        # sorts them by their distinct columns, found by np.unique (past 2^16
        # columns too)
        rng = np.random.default_rng(7)
        if pattern == "arrow":
            i = np.arange(1, n)
            j = np.zeros(n - 1, dtype=int)
        else:
            i, j = rng.integers(0, n, size=(2, 4 * n))
        v = rng.uniform(0.5, 1.5, i.size)
        m = sp.csr_matrix((np.r_[n + rng.random(n), v, v],
                           (np.r_[np.arange(n), i, j], np.r_[np.arange(n), j, i])),
                          shape=(n, n))
        m.sum_duplicates()
        widths = [(np.ptp(m.indices[m.indptr[r0]:m.indptr[r1]]) + 1, m.indptr[r1] - m.indptr[r0])
                  for r0, r1 in sparse._row_blocks(n)]
        assert any(span > entries for span, entries in widths)
        assert accepts(m)
        last = n - 1 if pattern == "arrow" else int(np.flatnonzero(np.diff(m.indptr) > 1)[-1])
        k = m.indptr[last]          # the last such row's first entry, off the diagonal
        assert m.indices[k] != last
        bad = m.copy()
        bad.data[k] = np.nextafter(bad.data[k], 0.0)
        assert not is_symmetric_bitwise(bad) and not accepts(bad)
        assert not accepts(without(m, k))

    def test_verdict_equals_transpose_comparison(self):
        # seeded random patterns (a band, scattered mirrored pairs, empty
        # rows) over one to several blocks, each perturbed at most once
        rng = np.random.default_rng(2024)
        sizes = [1, 3, 50, ROWS - 1, ROWS + 1, N_BLOCKS]
        verdicts = {True: 0, False: 0}
        for case in range(120):
            n = sizes[case % len(sizes)]
            m = band(n, bandwidth=int(rng.integers(0, 4)), seed=case,
                     rows=np.flatnonzero(rng.random(n) > 0.05))
            if n > 1:
                i, j = rng.integers(0, n, size=(2, 3))
                keep = i != j
                v = rng.uniform(-1.0, 1.0, 3)[keep]
                m = with_entries(m, list(zip(i[keep], j[keep], v))
                                 + list(zip(j[keep], i[keep], v)))
                m.sum_duplicates()
            kind = case % 4
            if kind == 1 and m.nnz:                       # one value by one ulp
                k = rng.integers(m.nnz)
                m.data[k] = np.nextafter(m.data[k], np.inf)
            elif kind == 2 and m.nnz:                     # one entry dropped
                m = without(m, rng.integers(m.nnz))
            elif kind == 3 and n > 1:                     # one entry added
                i, j = rng.integers(0, n, 2)
                if i != j and not m[i, j]:
                    m = with_entries(m, [(i, j, rng.uniform(0.5, 1.5))])
            verdict = is_symmetric_bitwise(m)
            assert accepts(m) == verdict, (case, n, kind)
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 30


class TestBandwidth:
    @staticmethod
    def whole_matrix(m):
        """The furthest-left entry of every non-empty row, over all rows at once."""
        ptr, cols = m.indptr, m.indices
        rows = np.flatnonzero(ptr[1:] > ptr[:-1])
        return int((rows - cols[ptr[rows]]).max()) if rows.size else 0

    def test_equals_whole_matrix_formula(self):
        # seeded bands with empty rows and scattered mirrored pairs, over one
        # to several blocks of rows
        rng = np.random.default_rng(7)
        sizes = [1, 2, 50, ROWS - 1, ROWS + 1, N_BLOCKS]
        for case in range(36):
            n = sizes[case % len(sizes)]
            m = band(n, bandwidth=int(rng.integers(0, 4)), seed=case,
                     rows=np.flatnonzero(rng.random(n) > 0.3 * (case % 3)))
            if case % 2 and n > 1:
                i, j = rng.integers(0, n, size=(2, 2))
                keep = i != j
                m = with_entries(m, list(zip(i[keep], j[keep], [0.5] * 2))
                                 + list(zip(j[keep], i[keep], [0.5] * 2)))
                m.sum_duplicates()
            assert SparseMatrixCSR.from_scipy(m).bandwidth() == self.whole_matrix(m), case


class TestGeneratorsMatchOracles:
    """The generators write CSR directly; the constructions kept in
    ``sparse_oracles`` give the same arrays bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 16_385])
    def test_pentadiagonal(self, n):
        for seed in (0, 11):
            assert same_arrays(gen_pentadiagonal(n, seed), *pentadiagonal_by_mask(n, seed))

    @pytest.mark.parametrize("g,theta", [(2, -0.22), (3, 0.2499), (300, -0.24),
                                         (2, 0.0), (7, 0.0), (5, -0.0), (4, 1e-310)],
                             ids=["g2", "g3", "g300", "g2-zero", "g7-zero",
                                  "g5-negative-zero", "g4-subnormal"])
    def test_lattice(self, g, theta):
        Q = gen_gmrf_grid(g, theta)
        assert same_arrays(Q, *lattice_by_kron(g, theta))
        if theta == 0:
            assert Q.nnz == g * g        # the zero couplings are not stored
