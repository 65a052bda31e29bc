import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from lejadet import (SparseMatrixCSR, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, matvec, write_matrix_market)


def random_sparse_symmetric():
    """A 6 x 6 symmetric matrix with about half its off-diagonal entries stored."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.25)
    return SparseMatrixCSR.from_dense(a + a.T + 6.0 * np.eye(6))


def is_symmetric_bitwise(Q):
    t = Q.to_scipy().T.tocsr()
    return (np.array_equal(Q.row_ptr, t.indptr) and np.array_equal(Q.col_idx, t.indices)
            and Q.values.tobytes() == t.data.tobytes())


class TestMatvec:
    def test_identity(self):
        Q = SparseMatrixCSR.from_dense(np.eye(3))
        np.testing.assert_array_equal(matvec(Q, np.array([1.0, 2.0, 3.0])),
                                      [1.0, 2.0, 3.0])

    def test_diagonal(self):
        Q = SparseMatrixCSR.from_dense(np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(matvec(Q, np.array([1.0, 1.0])), [2.0, 3.0])

    def test_pentadiagonal_first_column(self):
        Q = gen_pentadiagonal(5, seed=0)
        e1 = np.zeros(5)
        e1[0] = 1.0
        np.testing.assert_array_equal(matvec(Q, e1), Q.to_dense()[:, 0])

    def test_reproduces_every_column(self):
        for n, seed in [(7, 1), (30, 2), (50, 3)]:
            Q = gen_pentadiagonal(n, seed=seed)
            dense = Q.to_dense()
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                np.testing.assert_array_equal(matvec(Q, e), dense[:, j])

    def test_dimension_mismatch(self):
        Q = SparseMatrixCSR.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="length"):
            matvec(Q, np.ones(4))

    def test_nonfinite_rejected(self):
        Q = SparseMatrixCSR.from_dense(np.eye(2))
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
        ([0, 1, 2], [0, 1], [1.0, np.inf], None, "must be finite"),
        ([0, 1, 2], [0, 1], [np.nan, 1.0], None, "must be finite"),
    ], ids=["row-ptr-length", "unequal-lengths", "decreasing-row-ptr", "inf", "nan"])
    def test_malformed_arrays_refused(self, row_ptr, cols, values, n, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrixCSR(np.array(row_ptr), np.array(cols), np.array(values), n=n)

    def test_empty_matrix_refused(self):
        for make in (lambda: SparseMatrixCSR.from_dense(np.zeros((0, 0))),
                     lambda: SparseMatrixCSR(np.array([0]), np.array([], dtype=int),
                                             np.array([]))):
            with pytest.raises(ValueError, match="matrix is empty: n = 0"):
                make()

    def test_non_square_dense_refused(self):
        for arr in (np.ones((2, 3)), np.ones(4)):
            with pytest.raises(ValueError, match="dense input must be square"):
                SparseMatrixCSR.from_dense(arr)

    def test_to_dense_cap(self):
        Q = SparseMatrixCSR.from_dense(np.eye(5))
        assert Q.to_dense(max_n=5).shape == (5, 5)
        with pytest.raises(ValueError, match="refusing to densify a 5x5 matrix"):
            Q.to_dense(max_n=4)

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
        Q = SparseMatrixCSR.from_dense(np.eye(2))
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
        np.testing.assert_array_equal(Q.to_dense(), [[2.0, 0.5], [0.5, 3.0]])

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
        np.testing.assert_array_equal(Q.to_dense(), [[2.0, 0.5], [0.5, 3.0]])

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
        sym = SparseMatrixCSR.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert is_symmetric_bitwise(sym)
        for dense in ([[2.0, -1.0], [0.0, 2.0]],          # (1, 0) not stored
                      [[4.0, 1.0], [2.0, 4.0]],           # both stored, unequal
                      [[4.0, 1.0], [np.nextafter(1.0, 2.0), 4.0]]):   # by one ulp
            with pytest.raises(ValueError, match="matrix is not symmetric"):
                SparseMatrixCSR.from_dense(np.array(dense))

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
        lambda: SparseMatrixCSR.from_dense(np.array([[2.0, 0.0, -1.0],
                                                     [0.0, 0.0, 0.0],
                                                     [-1.0, 0.0, 4.0]])),
        lambda: SparseMatrixCSR.from_dense(np.array([[-0.25]])),
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
        write_matrix_market(SparseMatrixCSR.from_dense(dense), p)
        for Q in (SparseMatrixCSR.from_scipy(sp.coo_matrix(dense)),
                  SparseMatrixCSR.from_dense(dense), load_matrix_market(p)):
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
        np.testing.assert_array_equal(Q.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

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
        np.testing.assert_array_equal(Q.to_dense(), [[4.0, 1.0], [1.0, 4.0]])
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 4.0\n1 2 1.0\n2 1 2.0\n2 2 4.0\n")
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            load_matrix_market(p)

    def test_comments_and_integer_field(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate integer general\n"
                     "% a comment\n2 2 2\n1 1 3\n2 2 4\n")
        Q = load_matrix_market(p)
        np.testing.assert_array_equal(Q.to_dense(), [[3.0, 0.0], [0.0, 4.0]])

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
        dense = Q.to_dense()
        assert Q.bandwidth() == 2
        diag = np.diag(dense)
        assert np.all(diag >= n) and np.all(diag < n + 2)
        off = dense - np.diag(diag)
        assert np.all(np.abs(off) < 2.0)

    def test_minimal_size_band_full(self):
        Q = gen_pentadiagonal(3, seed=1)
        dense = Q.to_dense()
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
        np.testing.assert_array_equal(Q.to_dense(), expected)

    def test_theta_zero_is_identity(self):
        Q = gen_gmrf_grid(5, 0.0)
        np.testing.assert_array_equal(Q.to_dense(), np.eye(25))

    def test_spd_condition_enforced(self):
        for theta in (0.25, float("nan")):      # NaN fails |theta| < 1/4 too
            with pytest.raises(ValueError, match="1/4"):
                gen_gmrf_grid(4, theta)

    def test_grid_side_below_two_refused(self):
        with pytest.raises(ValueError, match="grid side must be at least 2"):
            gen_gmrf_grid(1, -0.22)

    def test_exactly_symmetric(self):
        assert is_symmetric_bitwise(gen_gmrf_grid(13, -0.22))
