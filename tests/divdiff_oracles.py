"""Classical divided-difference recursions of log, for the tests only.

A classical recursion evaluated in extended precision (mpmath) serves as the
test oracle for ``lejadet.divdiff.divided_differences_log``, and a plain float64
recursion is kept for comparison.
"""

import mpmath
import numpy as np


def reference_divided_differences(nodes_z, prec_bits: int = 200) -> np.ndarray:
    """Classical recursion in extended precision; test oracle only.

    Returns the divided differences of log at the given z nodes, correctly
    rounded to float64.  Note the scaling relation to the production path:
    its k-th coefficient equals gamma^k times the value returned here.
    """
    z = [float(t) for t in np.asarray(nodes_z, dtype=np.float64)]
    if min(z) <= 0.0:
        raise ValueError("nodes must be positive")
    n = len(z)
    if len(set(z)) != n:
        raise ValueError("coincident nodes")
    with mpmath.workprec(prec_bits):
        zm = [mpmath.mpf(t) for t in z]
        table = [mpmath.log(t) for t in zm]
        out = [table[0]]
        for level in range(1, n):
            table = [(table[i + 1] - table[i]) / (zm[i + level] - zm[i])
                     for i in range(n - level)]
            out.append(table[0])
        return np.array([float(t) for t in out])


def naive_divided_differences(nodes_z) -> np.ndarray:
    """Classical recursion in plain float64, for accuracy comparisons."""
    z = np.asarray(nodes_z, dtype=np.float64)
    if np.min(z) <= 0.0:
        raise ValueError("nodes must be positive")
    if np.unique(z).shape[0] != z.shape[0]:
        raise ValueError("coincident nodes")
    table = np.log(z)
    out = [table[0]]
    for level in range(1, z.shape[0]):
        table = (table[1:] - table[:-1]) / (z[level:] - z[:-level])
        out.append(table[0])
    return np.asarray(out)
