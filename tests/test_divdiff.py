import math

import numpy as np
import pytest

from lejadet import (MapParams, SpectralInterval, divided_differences_log,
                     generate_fast_leja, map_params, naive_divided_differences,
                     reference_divided_differences)
from lejadet.divdiff import _P_MAX_CONDITIONAL, _auto_taylor_depth

LOG3 = 1.0986122886681098


def dd_for(count, lo, hi, **kw):
    mp = map_params(SpectralInterval(lo, hi))
    return divided_differences_log(generate_fast_leja(count), mp, **kw), mp


class TestBasics:
    def test_single_node_is_function_value(self):
        dd, _ = dd_for(1, 1.0, 3.0)
        # xi_0 = 2 maps to z_0 = 3
        assert dd.coeffs[0] == pytest.approx(LOG3, abs=1e-14)

    def test_two_node_first_order(self):
        dd, _ = dd_for(2, 1.0, 3.0)
        # (log 1 - log 3) / (-2 - 2) in the xi coordinates
        assert dd.coeffs[1] == pytest.approx(LOG3 / 4.0, abs=1e-14)

    def test_lengths_match(self):
        dd, _ = dd_for(33, 0.5, 9.0)
        assert len(dd) == 33 and dd.nodes.shape == (33,)

    def test_degenerate_map_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            dd_for(4, 2.0, 2.0)

    def test_nonpositive_nodes_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            divided_differences_log(generate_fast_leja(4), MapParams(c=1.0, gamma=1.0))


class TestScalingChoice:
    def test_center(self):
        # the series runs at s = c: its first term is W e_1 with
        # W = (Q_m - c I)/c, whose two entries are z_0/c - 1 and gamma/c
        mp = map_params(SpectralInterval(1.0, 3.0))
        dd, _ = dd_for(8, 1.0, 3.0, keep_term_norms=True)
        z0 = mp.c + mp.gamma * dd.nodes[0]
        assert mp.c == 2.0
        assert dd.term_norms[0] == pytest.approx(
            np.hypot(z0 / mp.c - 1.0, mp.gamma / mp.c), rel=1e-15)

    def test_worst_ratio_at_center(self):
        """At s = c the endpoint ratio equals
        (lambda_max - lambda_min) / (lambda_max + lambda_min)."""
        for lo, hi, exact in [(1.0, 3.0, True), (1.0, 10.0, False)]:
            mp = map_params(SpectralInterval(lo, hi))
            dd, _ = dd_for(8, lo, hi)
            z = mp.c + mp.gamma * dd.nodes
            ratio = np.max(np.abs(z / mp.c - 1.0))
            expected = (hi - lo) / (hi + lo)
            if exact:
                assert ratio == expected
            else:
                assert ratio == pytest.approx(expected, rel=1e-15)


class TestReferenceOracle:
    def test_single_node(self):
        np.testing.assert_allclose(reference_divided_differences([3.0]),
                                   [LOG3], rtol=1e-15)

    def test_two_point_formula(self):
        out = reference_divided_differences([3.0, 1.0])
        np.testing.assert_allclose(out, [LOG3, LOG3 / 2.0], rtol=1e-15)

    def test_coincident_nodes(self):
        with pytest.raises(ValueError, match="coincident"):
            reference_divided_differences([2.0, 2.0])

    def test_naive_matches_reference_when_stable(self):
        z = np.array([3.0, 1.0, 2.0, 1.5])
        np.testing.assert_allclose(naive_divided_differences(z),
                                   reference_divided_differences(z), rtol=1e-12)


class TestScalingIdentity:
    @pytest.mark.parametrize("kappa", [10.0, 100.0, 1e4])
    def test_matches_extended_precision(self, kappa):
        """coeffs[k] equals gamma^k times the divided difference of log at
        the mapped nodes, computed by the extended-precision recursion."""
        m = 30
        dd, mp = dd_for(m + 1, 1.0, kappa)
        z = mp.c + mp.gamma * dd.nodes
        ref = reference_divided_differences(z, prec_bits=300)
        scaled = np.array([mp.gamma ** k * ref[k] for k in range(m + 1)])
        err = np.abs(dd.coeffs - scaled) / np.maximum(1.0, np.abs(scaled))
        assert err.max() <= 1e-10

    def test_tight_agreement_on_narrow_interval(self):
        m = 30
        dd, mp = dd_for(m + 1, 1.0, 3.0)
        z = mp.c + mp.gamma * dd.nodes
        ref = reference_divided_differences(z, prec_bits=300)
        scaled = np.array([mp.gamma ** k * ref[k] for k in range(m + 1)])
        err = np.abs(dd.coeffs - scaled) / np.maximum(1.0, np.abs(scaled))
        assert err.max() <= 1e-12


class TestTaylorBehavior:
    def test_coefficients_decay(self):
        dd, _ = dd_for(101, 1.0, 3.0)
        mags = np.abs(dd.coeffs)
        tails = np.array([mags[k:].max() for k in range(101)])
        assert np.all(np.diff(tails) <= 0)
        assert tails[90] < 1e-40
        assert tails[0] > 1e-1

    def test_term_norms_geometric(self):
        """Windowed term-norm decay is at least geometric with ratio near
        (kappa-1)/(kappa+1)."""
        for kappa in (5.0, 50.0):
            dd, _ = dd_for(24, 1.0, kappa, keep_term_norms=True)
            q = (kappa - 1.0) / (kappa + 1.0)
            norms = dd.term_norms
            w = 10
            for k in range(len(norms) - w):
                ratio = (norms[k + w] / norms[k]) ** (1.0 / w)
                assert ratio <= q + 0.05

    def test_truncation_flag_surfaced(self):
        dd, _ = dd_for(8, 1.0, 50.0, p_max=5)
        assert dd.truncated
        assert dd.taylor_terms == 5
        assert dd.last_term_norm > 0

    def test_depth_caps_the_conditional_regime(self):
        # from kappa ~ 2e12 the centre ratio (kappa - 1)/(kappa + 1) lies
        # within 1e-12 of one and the series converges only conditionally
        kappa = 4e12
        assert (_auto_taylor_depth((kappa - 1) / (kappa + 1), 1e-16)
                == _P_MAX_CONDITIONAL)

    def test_default_depth_converges_for_moderate_kappa(self):
        dd, _ = dd_for(64, 0.12, 1.88)
        assert not dd.truncated
        assert dd.last_term_norm <= 1e-16 * (abs(math.log(1.0)) + 1.0)
