"""50-digit mpmath forms of the rate kernels' closed formulas.

Each function is written from the formula its kernel's docstring states,
not from the kernel's float code, and evaluates it in 50-digit decimal
arithmetic.  The result is returned as an mpf, so a test measures the
kernel's float error against it.
"""

import mpmath

DIGITS = 50


def uncertainty_exponent(eps, delta):
    """1 - ((1+2e)/e) * log2[(1-d)^(1/(1+2e)) + d^(1/(1+2e))], the formula
    of rates.uncertainty_exponent, at d = delta (the formula is symmetric
    in d about 1/2)."""
    with mpmath.workdps(DIGITS):
        e, d = mpmath.mpf(eps), mpmath.mpf(delta)
        a = 1 / (1 + 2 * e)
        return 1 - (1 + 2 * e) / e * mpmath.log((1 - d) ** a + d ** a, 2)


def one_round_rate(v, h, q, kappa, r, t):
    """The closed form in the docstring of rates.one_round_rate, at
    failure parameter t: -log2(B) / gamma with gamma = r q kappa and

        B = (1-q) 2^(-gamma X) + q (1 - (1 - 2^-kappa) ((h/2)^(1+gamma)
            + v^(1+gamma) t)),

    X the uncertainty exponent at (gamma, t)."""
    with mpmath.workdps(DIGITS):
        v, h, q, kappa, r, t = map(mpmath.mpf, (v, h, q, kappa, r, t))
        gamma = r * q * kappa
        x = uncertainty_exponent(gamma, t)
        honest = (h / 2) ** (1 + gamma) + v ** (1 + gamma) * t
        bracket = ((1 - q) * mpmath.power(2, -gamma * x)
                   + q * (1 - (1 - mpmath.power(2, -kappa)) * honest))
        return -mpmath.log(bracket, 2) / gamma
