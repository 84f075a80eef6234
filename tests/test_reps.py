"""The braiding blocks and twist eigenvalues of quantum sl2."""

from itertools import product

import pytest

from uwrt.laurent import ONE, u_pow
from uwrt.reps import braiding, braiding_terms, twist_eigen


def _compose(b2, b1):
    """Matrix of b2 after b1 as a dict (input pair) -> {output pair: c}."""
    out = {}
    for (i, j), terms in b1.items():
        acc = {}
        for (j2, i2, c) in terms:
            for (i3, j3, c2) in b2[(j2, i2)]:
                key = (i3, j3)
                acc[key] = acc.get(key, ONE * 0) + c * c2
        out[(i, j)] = {k: v for k, v in acc.items() if not v.is_zero()}
    return out


def test_braiding_weight_conservation():
    for m in range(3):
        for n in range(3):
            for sign in (1, -1):
                b = braiding(m, n, sign)
                for (i, j), terms in b.items():
                    assert terms
                    for (j2, i2, c) in terms:
                        assert 0 <= i2 <= m and 0 <= j2 <= n
                        assert i2 + j2 == i + j


def test_braiding_inverse():
    for m in range(4):
        for n in range(4):
            comp = _compose(braiding(n, m, -1), braiding(m, n, 1))
            for (i, j), acc in comp.items():
                assert acc == {(i, j): ONE}


def test_braiding_inverse_to_colour_5():
    # the braid relation checks the term formula that braiding and the
    # packed blocks of tangles share (braiding_terms) on colours <= 5
    for m, n in product(range(6), repeat=2):
        comp = _compose(braiding(n, m, -1), braiding(m, n, 1))
        assert all(acc == {pair: ONE} for pair, acc in comp.items()), (m, n)


def test_twist_eigen():
    assert twist_eigen(1, 1) == u_pow(3)
    assert twist_eigen(2, -1) == u_pow(-8)
    for n in range(4):
        assert twist_eigen(n, 2) * twist_eigen(n, -2) == ONE


def test_braiding_terms_refuse_a_zero_sign():
    with pytest.raises(ValueError):
        list(braiding_terms(1, 1, 0))
