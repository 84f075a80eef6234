"""Irreducible representations V_n of quantized sl2 and exact R-matrix data.

The (n+1)-dimensional module V_n has basis v~_0, ..., v~_n with
K v~_i = v^(n-2i) v~_i, and the divided powers act by

    e^m v~_i      = {n-i+m}_{q,m} v~_{i-m}
    F~^(m) v~_i   = q^(-mi) binom_q(i+m, m) v~_{i+m}

braiding_terms holds the one formula of the braiding blocks' terms.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import falling_q, qbinom_q, u_pow


def braiding_terms(m, n, sign):
    """The terms of braiding(m, n, sign) in order, each as
    ((i, j), (j2, i2), e, s, b, a, t): the input pair (i, j) maps to
    s u^e [b choose t]_q {a}_{q,t} v~_{j2} (x) v~_{i2}, s = +-1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for i in range(m + 1):
        for j in range(n + 1):
            if sign == 1:
                for t in range(0, min(j, m - i) + 1):
                    # u^a q^(t(t-1)/2) v^(-t(m-2i)) q^(-ti) as one monomial
                    e = ((m - 2 * i - 2 * t) * (n - 2 * j + 2 * t)
                         + 2 * t * (t - 1) - 2 * t * (m - 2 * i) - 4 * t * i)
                    yield (i, j), (j - t, i + t), e, 1, i + t, n - j + t, t
            else:
                for t in range(0, min(i, n - j) + 1):
                    # (-1)^t u^a v^(-t(m-2i+2t)) q^(-tj) as one monomial
                    e = (-(n - 2 * j - 2 * t) * (m - 2 * i + 2 * t)
                         - 2 * t * (m - 2 * i + 2 * t) - 4 * t * j)
                    yield ((i, j), (j + t, i - t), e, -1 if t % 2 else 1,
                           j + t, m - i + t, t)


@lru_cache(maxsize=None)
def braiding(m, n, sign):
    """The braiding block (sign +1) or its inverse (sign -1).

    Both maps go V_m (x) V_n -> V_n (x) V_m.  The positive map comes
    from R composed with the flip, the negative one from the flip
    composed with R^(-1); they are mutually inverse as crossings of
    opposite sign stacked on the same pair of strands.

    The block is a dict mapping an input pair (i, j) to the tuple of its
    nonzero terms (j2, i2, coefficient) from braiding_terms, meaning the
    image contains coefficient * v~_{j2} (x) v~_{i2}, v~_{j2} in V_n.
    """
    entries = {}
    for pair, (j2, i2), e, s, b, a, t in braiding_terms(m, n, sign):
        c = u_pow(e, s) * qbinom_q(b, t) * falling_q(a, t)
        entries[pair] = entries.get(pair, ()) + ((j2, i2, c),)
    return entries


def twist_eigen(n, f):
    """Eigenvalue of the f-th power of the twist on V_n: q^(f n(n+2)/4)."""
    return u_pow(f * n * (n + 2))

