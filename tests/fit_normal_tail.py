"""Fit the polynomial of ``mhdbayes.densities._normal_tail``.

The normal tail is Phi(-a) = erfcx(x) exp(-x^2) / 2 with x = a / sqrt(2).
On x >= 0, q(x) = (x + 1/2) erfcx(x) / 2 runs smoothly from 1/4 at 0 to
1/(2 sqrt(pi)) at infinity, so it is fitted as a polynomial in
t = (x - SHIFT) / (x + SHIFT), which maps [0, inf) onto [-1, 1):
least squares on Chebyshev nodes against the installed
``scipy.special.erfcx``, then converted to monomial coefficients, highest
power first, for in-place Horner evaluation.

Run ``python tests/fit_normal_tail.py`` to print the tuple committed as
``densities._TAIL_COEFS``.  The tests refit and compare the two tails.
"""

import numpy as np
from numpy.polynomial import chebyshev

DEGREE = 22
NODES = 200
SHIFT = 3.75


def fit_coefficients(degree=DEGREE, nodes=NODES, shift=SHIFT):
    from scipy.special import erfcx

    t = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    x = shift * (1.0 + t) / (1.0 - t)
    cheb = chebyshev.chebfit(t, 0.5 * (x + 0.5) * erfcx(x), degree)
    return tuple(float(c) for c in chebyshev.cheb2poly(cheb)[::-1])


if __name__ == "__main__":
    print("_TAIL_COEFS = (")
    coefs = [repr(c) for c in fit_coefficients()]
    for i in range(0, len(coefs), 3):
        print("    " + ", ".join(coefs[i:i + 3]) + ",")
    print(")")
