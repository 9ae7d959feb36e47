"""Closed-form checks of the finite-sample oracles in ``oracles.py``."""

import math

import pytest

from oracles import QUANTILES, order_statistic_mean, scaled_median_variance


def test_scaled_median_variance_closed_forms():
    # the median of two N(0,1) draws is their mean: 4 * 2 * (1/2) = 4
    assert scaled_median_variance(QUANTILES["gaussian"], 2) == \
        pytest.approx(4.0, rel=1e-8)
    # Uniform(-1/2, 1/2) at odd kappa: the median is Beta(r, r) - 1/2,
    # variance 1/(4 (kappa + 2))
    for kappa in (1, 3, 5, 17, 101):
        assert scaled_median_variance(QUANTILES["uniform"], kappa) == \
            pytest.approx(kappa / (kappa + 2), rel=1e-8)
    # large kappa reaches h^-2(0), the limit criterion 3 checks by simulation
    for kind, h_inv_sq in (("gaussian", 2 * math.pi), ("cauchy", math.pi ** 2)):
        assert scaled_median_variance(QUANTILES[kind], 1001) == \
            pytest.approx(h_inv_sq, rel=0.01)


def test_order_statistic_mean_of_exp1_is_a_harmonic_difference():
    # Exp(1): E X_(k:n) = H_n - H_(n-k)
    def harmonic(m):
        return sum(1.0 / i for i in range(1, m + 1))

    for n in (1, 2, 5, 16, 40):
        for k in range(1, n + 1):
            assert order_statistic_mean(QUANTILES["exponential"], k, n) == \
                pytest.approx(harmonic(n) - harmonic(n - k), rel=1e-8), (k, n)
