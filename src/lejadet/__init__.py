"""Log-determinant estimation for large sparse SPD matrices.

The action of the matrix logarithm on probe vectors is approximated by
Newton interpolation at fast Leja points, mapped onto an enclosure of the
spectrum (a ``SpectralInterval``, whose ``c`` and ``gamma`` are the map),
with divided differences computed by a trapezoid sum over the Stieltjes
integral of the logarithm; the
trace of the logarithm is estimated with Hutch++.  Stochastic Lanczos
quadrature and two exact oracles read off the matrix alone, banded Cholesky
and the closed form of a recognized lattice, are included for verification.
``estimate(Q, method)`` is the one entry point to all of them.
"""

from .leja import generate_fast_leja
from .likelihood import gmrf_likelihood_scan
from .logdet import METHODS, LogDetReport, estimate, hutchpp_logdet, slq_logdet
from .oracle import band_logdet_cholesky, gmrf_grid_logdet_analytic
from .sparse import (SparseMatrixCSR, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, matvec, write_matrix_market)
from .spectral import (ConvergenceError, SpectralInterval, estimate_interval,
                       lanczos_lambda_max, shift_invert_lambda_min)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "LogDetReport",
    "METHODS",
    "SparseMatrixCSR",
    "SpectralInterval",
    "band_logdet_cholesky",
    "estimate",
    "estimate_interval",
    "gen_gmrf_grid",
    "gen_pentadiagonal",
    "generate_fast_leja",
    "gmrf_grid_logdet_analytic",
    "gmrf_likelihood_scan",
    "hutchpp_logdet",
    "lanczos_lambda_max",
    "load_matrix_market",
    "matvec",
    "shift_invert_lambda_min",
    "slq_logdet",
    "write_matrix_market",
]
