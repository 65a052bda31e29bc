"""Exact log-determinant references read off Q: banded Cholesky, lattice closed form."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cholesky_banded

from .sparse import SparseMatrixCSR, _row_blocks, check_lattice, gen_gmrf_grid

__all__ = [
    "band_cholesky",
    "band_logdet_cholesky",
    "gmrf_grid_logdet_analytic",
    "lattice_of",
]


def band_cholesky(Q: SparseMatrixCSR, bandwidth: int) -> np.ndarray:
    """Cholesky factor L of Q = LL' in LAPACK lower band storage, O(n * bandwidth^2).

    Row k of the result holds the k-th subdiagonal of L, row 0 its diagonal.
    All stored entries must lie within the given bandwidth.
    """
    n = Q.n
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    if (bandwidth + 1) * n > 200_000_000:
        raise ValueError(f"banded storage would need {(bandwidth + 1) * n} "
                         f"entries; matrix is too wide-banded for a banded "
                         f"Cholesky factor")
    actual = Q.bandwidth()
    if actual > bandwidth:
        raise ValueError(f"matrix has entries at offset {actual}, "
                         f"outside bandwidth {bandwidth}")
    # column-major, so LAPACK factors it in place; entry (i, j), j <= i, goes
    # to ab[i - j, j], which is element i + j * bandwidth of ab in memory
    ab = np.zeros((bandwidth + 1, n), order="F")
    flat = ab.reshape(-1, order="F")
    ptr, cols, vals = Q.row_ptr, Q.col_idx, Q.values

    def fill(r0, r1):           # a block's arrays are freed before the next
        lo, hi = int(ptr[r0]), int(ptr[r1])
        rows = np.repeat(np.arange(r0, r1), np.diff(ptr[r0:r1 + 1]))
        lower = cols[lo:hi] <= rows
        rows = rows[lower]
        rows += cols[lo:hi][lower] * np.intp(bandwidth)
        entries = vals[lo:hi][lower]
        entries += 0.0      # -0.0 becomes 0.0, as scipy's diagonal() reads it
        flat[rows] = entries

    for r0, r1 in _row_blocks(n):
        fill(r0, r1)
    try:
        return cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def band_logdet_cholesky(Q: SparseMatrixCSR, bandwidth: int) -> float:
    """Banded Cholesky log-determinant, 2 * sum(log L_ii) of ``band_cholesky``."""
    diag = band_cholesky(Q, bandwidth)[0]
    return 2.0 * float(np.sum(np.log(diag, out=diag)))


def lattice_eigenvalues(g: int, theta: float) -> np.ndarray:
    """Spectrum lam of the non-periodic lattice Q(theta) = S diag(lam) S, S the
    orthonormal 2-D type-I sine transform: the g-by-g array of eigenvalues
    1 + 2*theta*(cos(i*pi/(g+1)) + cos(j*pi/(g+1))) for i, j = 1..g."""
    check_lattice(g, theta)
    cos = np.cos(np.arange(1, g + 1) * np.pi / (g + 1))
    return 1.0 + 2.0 * theta * (cos[:, None] + cos[None, :])


def gmrf_grid_logdet_analytic(g: int, theta: float) -> float:
    """Closed-form log det of the lattice Q(theta), the log sum of its eigenvalues."""
    return float(np.sum(np.log(lattice_eigenvalues(g, theta))))


def lattice_of(Q: SparseMatrixCSR) -> tuple[int, float]:
    """(g, theta) of the lattice ``gen_gmrf_grid(g, theta)`` whose CSR arrays are Q's,
    with g = isqrt(n) and theta Q's second stored value (0 when nnz = n)."""
    g = math.isqrt(Q.n)
    theta = float(Q.values[1]) if Q.nnz > Q.n else 0.0
    if g >= 2 and g * g == Q.n and Q.nnz == Q.n + 4 * g * (g - 1) * (theta != 0) \
            and abs(theta) < 0.25:
        L = gen_gmrf_grid(g, theta)
        if all(map(np.array_equal, (Q.row_ptr, Q.col_idx, Q.values),
                   (L.row_ptr, L.col_idx, L.values))):
            return g, theta
    raise ValueError(f"exact-analytic applies only to a lattice gen_gmrf_grid(g, theta); "
                     f"this {Q.n}x{Q.n} matrix with {Q.nnz} entries is not one")
