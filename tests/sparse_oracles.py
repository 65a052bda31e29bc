"""Reference constructions of the synthetic matrices, for the tests only.

``lejadet.gen_pentadiagonal`` and ``lejadet.gen_gmrf_grid`` write their CSR
arrays directly.  The constructions kept here build the same matrices the
roundabout way (an n x 5 band cut by a column mask; scipy ``kron`` products)
and serve as bitwise oracles for them.  Both return the raw
``(row_ptr, col_idx, values)`` arrays, before ``SparseMatrixCSR`` sees them.
"""

import numpy as np
import scipy.sparse as sp


def pentadiagonal_by_mask(n: int, seed: int):
    """An n x 5 band of row slots (row i holds columns i-2 .. i+2) filled
    from the generator's draws, with the six slots outside the matrix
    dropped by a column mask."""
    rng = np.random.default_rng(seed)
    band = np.empty((n, 5))
    d0 = rng.random(n)
    d0 += d0
    d0 += float(n)
    band[:, 2] = d0
    u1, u2, l1 = rng.random(n - 1), rng.random(n - 2), rng.random(n - 1)
    u1 += l1
    band[:-1, 3] = u1
    band[1:, 1] = u1
    u2 += rng.random(n - 2)
    band[:-2, 4] = u2
    band[2:, 0] = u2
    index = np.int32 if 5 * n <= np.iinfo(np.int32).max else np.int64
    cols = np.arange(n, dtype=index)[:, None] + np.arange(-2, 3, dtype=index)
    inside = (cols >= 0) & (cols < n)
    row_ptr = np.zeros(n + 1, dtype=index)
    np.cumsum(inside.sum(axis=1), out=row_ptr[1:])
    return row_ptr, cols[inside], band[inside]


def lattice_by_kron(g: int, theta: float):
    """``I + theta * (kron(I, T) + kron(T, I))``, T the path adjacency of
    order g, through scipy, with its zeros dropped."""
    ones = np.ones(g - 1)
    t = sp.diags([ones, ones], [-1, 1], shape=(g, g))
    eye = sp.identity(g)
    adjacency = sp.kron(eye, t) + sp.kron(t, eye)
    q = (sp.identity(g * g, format="csr") + theta * adjacency).tocsr()
    q.eliminate_zeros()
    return q.indptr, q.indices, q.data
