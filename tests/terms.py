"""A LaurentU from a {u-exponent: coefficient} dict, the form of the
tests' reference arithmetic and reference decoders, and one coefficient
read back from a LaurentU."""

from math import gcd

from uwrt.laurent import LaurentU


def from_dict(d):
    """sum of c u^e over the items e: c of d, built as a run in steps of
    the gcd of 4 and the exponent gaps."""
    lo = min(d, default=0)
    step = gcd(4, *(e - lo for e in d))
    out = [0] * ((max(d, default=lo) - lo) // step + 1)
    for e, c in d.items():
        out[(e - lo) // step] = c
    return LaurentU(lo, out, step)


def coeff(x, e):
    """The coefficient of u^e in x, 0 outside its run, read from the view
    of x as a run in u from u^min."""
    i = e - x.min
    return x.coeffs[i] if 0 <= i < len(x.coeffs) else 0
