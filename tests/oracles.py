"""Finite-sample targets that the tests hold medwave to, computed without it.

Nothing here imports medwave: each value comes from order-statistic
densities integrated over u = F(x), for a law given by its quantile
function F^{-1}. The closed-form checks of every oracle are in
``test_oracles.py``.
"""

import math

from scipy import integrate
from scipy.special import gammaln, ndtri

#: quantile functions F^{-1} of the standard laws the exact targets cover
QUANTILES = {
    "gaussian": lambda u: float(ndtri(u)),
    "cauchy": lambda u: math.tan(math.pi * (u - 0.5)),
    "uniform": lambda u: u - 0.5,
    "exponential": lambda u: -math.log1p(-u),
}


def scaled_median_variance(ppf, kappa: int) -> float:
    """Exact 4 kappa Var(median of kappa iid draws) for quantile function ppf.

    This is the expectation of the paired-difference noise estimate at bin
    count kappa, computed without medwave: the order-statistic densities are
    integrated over u = F(x). Odd kappa takes X_(r), r = (kappa + 1)/2; even
    kappa takes the midpoint of X_(r) and X_(r+1), r = kappa/2.
    """
    r = (kappa + 1) // 2
    upper = kappa - r if kappa % 2 else kappa - r - 1
    log_c = gammaln(kappa + 1) - gammaln(r) - gammaln(upper + 1)

    def weight(u, v):
        # density of (F(X_(r)), F(X_(r+1))) for even kappa, of F(X_(r)) for odd
        if u <= 0.0 or v >= 1.0:
            return 0.0
        return math.exp(log_c + (r - 1) * math.log(u) + upper * math.log1p(-v))

    if kappa % 2:
        def moment(p):
            return integrate.quad(lambda u: weight(u, u) * ppf(u) ** p,
                                  0.0, 1.0, points=[0.5], limit=200)[0]
    else:
        def moment(p):
            return integrate.dblquad(
                lambda v, u: weight(u, v) * (0.5 * (ppf(u) + ppf(v))) ** p,
                0.0, 1.0, lambda u: u, 1.0)[0]
    mean = moment(1)
    return 4.0 * kappa * (moment(2) - mean * mean)


def order_statistic_mean(ppf, k: int, n: int) -> float:
    """Exact E X_(k:n), the mean of the k-th smallest of n iid draws, for
    quantile function ppf: F(X_(k:n)) has the Beta(k, n - k + 1) density."""
    log_c = gammaln(n + 1) - gammaln(k) - gammaln(n - k + 1)

    def integrand(u):
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return ppf(u) * math.exp(log_c + (k - 1) * math.log(u)
                                 + (n - k) * math.log1p(-u))

    return integrate.quad(integrand, 0.0, 1.0, limit=200)[0]
