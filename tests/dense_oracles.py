"""Dense Cholesky log-determinant, for the tests only.

The independent cross-check of the library's banded Cholesky and lattice
closed-form references: numpy's dense factor of the whole matrix, capped at
``DENSE_CAP`` rows.
"""

import numpy as np

DENSE_CAP = 4000


def dense_logdet_cholesky(M: np.ndarray, max_n: int = DENSE_CAP) -> float:
    """2 * sum(log L_ii) from the dense Cholesky factor of M."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    if n > max_n:
        raise ValueError(f"dense oracle capped at n={max_n}, got n={n}")
    if np.max(np.abs(M - M.T)) > 1e-12 * np.max(np.abs(M)):
        raise ValueError("matrix is not symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(L))))
