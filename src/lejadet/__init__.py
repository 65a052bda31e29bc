"""Log-determinant estimation for large sparse SPD matrices.

The action of the matrix logarithm on probe vectors is approximated by
Newton interpolation at fast Leja points (with divided differences computed
by a trapezoid sum over the Stieltjes integral of the logarithm), and the
trace of the logarithm is estimated with Hutch++.  Stochastic Lanczos
quadrature and exact Cholesky oracles are included for verification.
``estimate(Q, method)`` is the one entry point to all of them.
"""

from .action import ActionResult, log_matvec
from .divdiff import (DividedDiffs, divided_differences_log,
                      naive_divided_differences, reference_divided_differences)
from .leja import LejaSequence, dump_points, generate_fast_leja, map_nodes
from .likelihood import gmrf_likelihood_scan
from .logdet import (METHODS, LogDetReport, estimate, hutchinson_logdet,
                     hutchpp_logdet, slq_logdet)
from .oracle import (band_logdet_cholesky, dense_logdet_cholesky,
                     gmrf_grid_logdet_analytic)
from .sparse import (SparseMatrixCSR, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, matvec, write_matrix_market)
from .spectral import (ConvergenceError, EigenEstimate, MapParams,
                       SpectralInterval, estimate_interval, gershgorin_bounds,
                       lanczos_lambda_max, map_params, shift_invert_lambda_min)

__version__ = "0.1.0"

__all__ = [
    "ActionResult",
    "ConvergenceError",
    "DividedDiffs",
    "EigenEstimate",
    "LejaSequence",
    "LogDetReport",
    "METHODS",
    "MapParams",
    "SparseMatrixCSR",
    "SpectralInterval",
    "band_logdet_cholesky",
    "dense_logdet_cholesky",
    "divided_differences_log",
    "dump_points",
    "estimate",
    "estimate_interval",
    "gen_gmrf_grid",
    "gen_pentadiagonal",
    "generate_fast_leja",
    "gershgorin_bounds",
    "gmrf_grid_logdet_analytic",
    "gmrf_likelihood_scan",
    "hutchinson_logdet",
    "hutchpp_logdet",
    "lanczos_lambda_max",
    "load_matrix_market",
    "log_matvec",
    "map_nodes",
    "map_params",
    "matvec",
    "naive_divided_differences",
    "reference_divided_differences",
    "shift_invert_lambda_min",
    "slq_logdet",
    "write_matrix_market",
]
