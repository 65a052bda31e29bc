"""Shared fixtures and small test oracles."""

import os
from pathlib import Path

import numpy as np
import pytest

from lejadet import SparseMatrixCSR


def random_spd(seed, n=None, kappa=None, lo=2.0):
    """Rotated SPD matrix with a known eigendecomposition.

    Eigenvalues are drawn log-uniform in [lo, lo * kappa] with the extremes
    pinned, so the exact spectral interval and condition number are known.
    Returns (matrix, eigenvalues, eigenvectors).
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(50, 201))
    if kappa is None:
        kappa = 10.0 ** rng.uniform(1.0, 3.0)
    eig = lo * kappa ** rng.uniform(0.0, 1.0, size=n)
    eig[0], eig[-1] = lo, lo * kappa
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = (basis * eig) @ basis.T
    dense = 0.5 * (dense + dense.T)
    Q = SparseMatrixCSR.from_scipy(dense)
    w, v = np.linalg.eigh(dense)
    return Q, w, v


def scaled(Q, c):
    """c * Q; a power of two c scales every stored entry exactly."""
    return SparseMatrixCSR(Q.row_ptr, Q.col_idx, c * Q.values, n=Q.n)


# the scales of the scale-invariance tests: far below and far above unit scale
POWERS_OF_TWO = [2.0 ** -46, 2.0 ** -40, 2.0 ** 40]


def indefinite_matrix(seed, n=200):
    """Symmetric matrix with eigenvalues uniform in [-1, 10], extremes pinned."""
    rng = np.random.default_rng(seed)
    eig = rng.uniform(-1.0, 10.0, size=n)
    eig[0], eig[-1] = -1.0, 10.0
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = (basis * eig) @ basis.T
    return SparseMatrixCSR.from_scipy(0.5 * (dense + dense.T))


def gmrf_spectrum(g, theta):
    """Analytic eigenvalues of the non-periodic lattice precision matrix."""
    cos = np.cos(np.arange(1, g + 1) * np.pi / (g + 1))
    return 1.0 + 2.0 * theta * (cos[:, None] + cos[None, :])


def ufl_matrix_path(name):
    """Locate a manually downloaded test matrix, or None.

    Looks in $LEJADET_UFL_DIR, then in data/ufl/ next to the repository root.
    """
    candidates = []
    env = os.environ.get("LEJADET_UFL_DIR")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ufl" / name)
    for c in candidates:
        if c.is_file():
            return c
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
