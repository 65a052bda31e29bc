import math

import numpy as np
import pytest

from lejadet.quadrature import Bracket, gauss_rule, radau_rule

# the measure of a probe of ones on diag(DIAG): v' log(D) v = sum(log(DIAG))
DIAG = np.geomspace(1.0, 10.0, 300)
EXACT = float(np.sum(np.log(DIAG)))
BETA0_SQ = float(DIAG.shape[0])


def jacobi(diag, steps):
    """alphas and squared betas beta_1..beta_steps of the measure of a probe
    of ones on diag(diag), by Lanczos with full reorthogonalization."""
    n = diag.shape[0]
    basis = np.zeros((n, steps + 1))
    basis[:, 0] = 1.0 / math.sqrt(n)
    alphas, betas = np.empty(steps), np.empty(steps)
    for j in range(steps):
        q = basis[:, j]
        w = diag * q
        alphas[j] = q @ w
        for _ in range(2):
            w -= basis[:, :j + 1] @ (basis[:, :j + 1].T @ w)
        betas[j] = w @ w
        basis[:, j + 1] = w / math.sqrt(betas[j])
    return alphas, betas


ALPHAS, BETAS = jacobi(DIAG, 40)


def check(bracket, k):
    return bracket.check(BETA0_SQ, ALPHAS[:k], BETAS[:k])


class TestBracket:
    def test_due_after_2_then_4_then_where_the_decay_reaches_the_bound(self):
        bound = 1e-8
        bracket = Bracket(DIAG[0], bound)
        assert bracket.due == 2
        assert check(bracket, 2) is None and bracket.due == 4
        h2 = bracket.width
        assert check(bracket, 4) is None
        h4 = bracket.width
        per_step = math.log(h4 / h2) / 2
        assert bracket.due == 4 + math.ceil(math.log(bound / h4) / per_step) == 15
        while (midpoint := check(bracket, bracket.due)) is None:
            assert bracket.due is not None
        assert bracket.width <= bound
        assert abs(midpoint - EXACT) <= 0.5 * bracket.width + 1e-13 * EXACT

    def test_due_at_least_one_step_on(self):
        # a bound just below the width at 4 steps: the decay reaches it at once
        bracket = Bracket(DIAG[0], 1.0)
        check(bracket, 2)
        check(bracket, 4)
        bracket = Bracket(DIAG[0], bracket.width * (1.0 - 1e-12))
        check(bracket, 2)
        assert check(bracket, 4) is None and bracket.due == 5

    def test_width_that_did_not_fall_doubles_the_steps(self):
        bracket = Bracket(DIAG[0], 1e-8)
        check(bracket, 4)
        assert check(bracket, 4) is None and bracket.due == 8

    def test_no_bound_is_the_rules_rounding(self):
        # closes at the first check point where |G - R| is at most G's and
        # R's rounding bounds together, and brackets the value until then
        bracket = Bracket(DIAG[0])
        midpoint = None
        while midpoint is None:
            k = bracket.due
            assert k is not None and k <= 40
            gauss = gauss_rule(BETA0_SQ, ALPHAS[:k], BETAS[:k - 1])
            radau = radau_rule(BETA0_SQ, ALPHAS[:k], BETAS[:k], DIAG[0])
            slack = 1e-13 * EXACT
            assert radau.value - slack <= EXACT <= gauss.value + slack
            midpoint = check(bracket, k)
            width = abs(gauss.value - radau.value)
            assert bracket.width == width
            assert (midpoint is not None) == (width <= gauss.rounding + radau.rounding)
        assert abs(midpoint - EXACT) <= 0.5 * bracket.width + 1e-13 * EXACT

    def test_widened_bracket_ends(self):
        bracket = Bracket(DIAG[0], 1e-8)
        check(bracket, 4)
        assert check(bracket, 2) is None and bracket.due is None

    @pytest.mark.parametrize("fixed,c,gauss", [(0.0, 0.0, True), (DIAG[0], -5.0, False)],
                             ids=["radau-none", "gauss-none"])
    def test_none_rule_ends(self, fixed, c, gauss):
        # a Radau node at zero has no log; shifted by -5, the lowest Ritz
        # value of 2 steps maps below zero
        bracket = Bracket(fixed, 1e-8, c=c)
        assert check(bracket, 2) is None and bracket.due is None
        assert (bracket.gauss is not None) == gauss
