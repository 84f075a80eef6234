"""A LaurentU from a {u-exponent: coefficient} dict, the form of the
tests' reference arithmetic and reference decoders."""

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
