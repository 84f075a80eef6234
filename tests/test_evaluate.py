"""Rational, p-adic and mod-p specializations of the unified invariant."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uwrt.errors import DepthExceeded, InputError, NotAUnit, NotCoprime
from uwrt.evaluate import (ResidueValue, eval_padic, eval_rational,
                           is_prime, modp_nonvanishing, modp_value)
from uwrt.invariants import jm_borromean
from uwrt.laurent import ONE, q_pow
from uwrt.qhat import HabiroElem, eval_root, reduce

M111 = jm_borromean(1, 1, 1, 10)

qpolys = st.lists(st.integers(min_value=-5, max_value=5), max_size=4).map(
    lambda cs: sum((q_pow(k - 1, c) for k, c in enumerate(cs)),
                   q_pow(0, 0)))
elems = st.lists(qpolys, min_size=0, max_size=6).map(
    lambda cs: HabiroElem(6, cs))


def test_goldens():
    assert eval_rational(M111, 2, 1, 5) == ResidueValue("int", 5, 4)
    assert eval_rational(M111, 2, 1, 3) == ResidueValue("int", 3, 1)
    assert eval_rational(M111, 2, 3, 7) == ResidueValue("int", 7, 1)
    assert eval_padic(M111, 2, 5, 1) == ResidueValue("prime-power",
                                                     (5, 1), 4)
    assert eval_padic(M111, 2, 3, 2) == ResidueValue("prime-power",
                                                     (3, 2), 1)
    assert modp_value(M111, 5, 3).to_json() == {
        "kind": "modp-poly", "modulus": [5, 3], "value": [1, 0]}
    assert modp_value(M111, 3, 4).to_json() == {
        "kind": "modp-poly", "modulus": [3, 4], "value": [2, 0]}
    assert modp_nonvanishing(modp_value(M111, 5, 3).value)
    assert modp_nonvanishing(modp_value(M111, 3, 4).value)


def test_crt_coherence():
    v15 = eval_rational(M111, 2, 1, 15).value
    assert v15 % 3 == eval_rational(M111, 2, 1, 3).value
    assert v15 % 5 == eval_rational(M111, 2, 1, 5).value


def test_rational_at_one_matches_root():
    for m in (2, 5, 12):
        assert eval_rational(M111, 1, 1, m).value == eval_root(M111, 1) % m


def test_padic_tower_coherence():
    v2 = eval_padic(M111, 2, 3, 2).value
    v1 = eval_padic(M111, 2, 3, 1).value
    assert v2 % 3 == v1
    assert eval_rational(M111, 2, 1, 3).value == v1


def test_pochhammer_slots_vanish():
    for n in range(1, 4):
        x = HabiroElem(6, {n: ONE})
        for p, r in ((5, 2), (3, 2), (7, 3)):
            if r <= n:
                assert modp_value(x, p, r).value.is_zero()
                assert not modp_nonvanishing(modp_value(x, p, r).value)


def test_errors():
    with pytest.raises(NotCoprime):
        eval_rational(M111, 2, 1, 4)
    with pytest.raises(NotCoprime):
        eval_rational(M111, 3, 2, 9)
    with pytest.raises(NotCoprime):
        modp_value(M111, 3, 6)
    with pytest.raises(NotAUnit):
        eval_padic(M111, 10, 5, 1)
    with pytest.raises(DepthExceeded):
        eval_rational(HabiroElem(2), 2, 1, 5)   # order of 2 mod 5 is 4
    with pytest.raises(DepthExceeded):
        # the order of 2 mod 10^9 + 7 is (10^9 + 6) / 2: stop at the depth
        eval_rational(jm_borromean(1, 1, 1, 4), 2, 1, 1000000007)
    with pytest.raises(DepthExceeded):
        modp_value(HabiroElem(2), 5, 3)
    with pytest.raises(InputError, match="^modulus must be >= 1, got 0$"):
        eval_rational(M111, 2, 1, 0)
    with pytest.raises(InputError, match="^precision must be >= 1, got 0$"):
        eval_padic(M111, 2, 3, 0)


def test_is_prime():
    trial = [n for n in range(2000)
             if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(2000) if is_prime(n)] == trial
    assert is_prime(1000000007) and is_prime(2 ** 61 - 1)
    # strong pseudoprimes to the prime bases 2..23 and 2..37, and a
    # Carmichael number
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(561)


def test_trivial_moduli():
    assert eval_rational(M111, 7, 3, 1) == ResidueValue("int", 1, 0)


def test_residue_value():
    a = ResidueValue("int", 5, 4)
    assert a == ResidueValue("int", 5, 4)
    assert a != ResidueValue("int", 7, 4)
    assert a.to_json() == {"kind": "int", "modulus": 5, "value": 4}
    with pytest.raises(ValueError):
        ResidueValue("float", 5, 4)


def test_depth_stability():
    deep = jm_borromean(1, 1, 1, 12)
    assert eval_rational(deep, 2, 1, 5) == eval_rational(M111, 2, 1, 5)
    assert modp_value(deep, 5, 3) == modp_value(M111, 5, 3)


@settings(deadline=None, max_examples=30)
@given(elems, elems)
def test_eval_rational_is_ring_map(x, y):
    a = eval_rational(x, 2, 1, 5).value
    b = eval_rational(y, 2, 1, 5).value
    assert eval_rational(x + y, 2, 1, 5).value == (a + b) % 5
    assert eval_rational(x * y, 2, 1, 5).value == (a * b) % 5


@settings(deadline=None, max_examples=30)
@given(elems, elems)
def test_modp_value_is_ring_map(x, y):
    a = modp_value(x, 3, 4).value
    b = modp_value(y, 3, 4).value
    assert modp_value(x + y, 3, 4).value == a + b
    assert modp_value(x * y, 3, 4).value == a * b


@settings(deadline=None, max_examples=30)
@given(elems)
def test_modp_agrees_with_rational(x):
    # q = 4 has order 2 mod 5; Phi_2(4) = 5, so the mod-(5, Phi_2) value
    # maps onto the rational value at q = 4 mod 5
    poly = modp_value(x, 5, 2).value
    at_minus_one = sum(c * (-1) ** k for k, c in enumerate(poly.coeffs)) % 5
    assert at_minus_one == eval_rational(x, 4, 1, 5).value


@settings(deadline=None, max_examples=60)
@given(elems, st.integers(min_value=-30, max_value=30),
       st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1), (7, 1), (11, 1),
                        (15, 1), (35, 1), (1, 1)]))
def test_truncated_evaluation_matches_reduce(x, s, modulus):
    # oracle: the first n with (s)_n = 0 mod m, found on the exact
    # integers (s)_n, and the canonical representative of x mod (q)_n at
    # q = s; both evaluations must give it or raise DepthExceeded
    p, e = modulus
    m = p ** e
    assume(math.gcd(s, m) == 1)
    n, poch = 0, 1
    while poch % m and n < x.depth:
        n += 1
        poch *= 1 - s ** n
    calls = [lambda: eval_rational(x, s, 1, m).value]
    if is_prime(p):
        calls.append(lambda: eval_padic(x, s, p, e).value)
    if poch % m:
        for call in calls:
            with pytest.raises(DepthExceeded):
                call()
        return
    rep = reduce(x, n)
    want = sum(c * pow(s, (rep.min + 4 * i) // 4, m)
               for i, c in enumerate(rep.coeffs[::4])) % m
    for call in calls:
        assert call() == want
