"""Cyclotomic completion elements: reduction, evaluation, expansion."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwrt.errors import DepthExceeded, InputError, NotInQ
from uwrt.evaluate import modp_value
from uwrt.invariants import jm_borromean
from uwrt.laurent import (ONE, ZERO, LaurentU, ModPoly, cyclotomic_coeffs,
                          pochhammer, q_pow, qnum, remainder, u_pow, v_pow)
from uwrt.qhat import (DEFAULT_DEPTH, HabiroElem, equals_at_depth, eval_root,
                       phi_order, reduce, taylor)

from mirror import bar

qpolys = st.lists(st.integers(min_value=-5, max_value=5), max_size=4).map(
    lambda cs: sum((q_pow(k - 1, c) for k, c in enumerate(cs)), ZERO))


def elems(depth=6):
    return st.lists(qpolys, min_size=0, max_size=depth).map(
        lambda cs: HabiroElem(depth, cs))


def test_constructors():
    assert HabiroElem.from_polynomial(1).depth == DEFAULT_DEPTH
    assert HabiroElem(4, {2: ONE}).terms[2] == ONE
    with pytest.raises(InputError, match="^depth must be >= 1, got 0$"):
        HabiroElem(0)
    with pytest.raises(NotInQ):
        HabiroElem.from_polynomial(q_pow(1) + u_pow(1))


def test_times_an_integer():
    x = HabiroElem(4, {0: q_pow(1), 2: ONE - q_pow(-1)})
    assert (x * 3).terms == (x + x + x).terms
    assert (3 * x).terms == (x * 3).terms and (x * 3).depth == 4
    assert (x * 0).terms == (ZERO,) * 4


def test_reduce_goldens():
    q = HabiroElem.from_polynomial(q_pow(1))
    assert reduce(q, 1) == ONE                       # q = 1 mod (1 - q)
    poch1 = HabiroElem(6, {1: ONE})                  # the element (q)_1
    assert reduce(poch1, 1) == ZERO
    assert reduce(poch1, 2) == pochhammer(1)
    with pytest.raises(DepthExceeded):
        reduce(q, DEFAULT_DEPTH + 1)


@pytest.mark.parametrize("params", [(-1, -1, -1), (-1, 1, -1), (-2, -1, 1),
                                    (1, 1, 1)])
def test_reduce_by_characterisation(params):
    # r is the reduction of x mod (q)_d exactly when r is a polynomial in q
    # of degree < d(d+1)/2 and (q)_d divides sum_n c_n (q)_n - r
    x = jm_borromean(*params, 8)
    for y in (x, bar(x)):
        full = sum((c * pochhammer(n) for n, c in enumerate(y.terms)), ZERO)
        for d in range(1, 9):
            r = reduce(y, d)
            assert r.is_in_q()
            assert r.is_zero() or (r.min >= 0
                                   and (r.min + len(r.coeffs) - 1) // 4
                                   < d * (d + 1) // 2)
            (full - r).exact_div(pochhammer(d))


def test_mul_absorbs_pochhammer():
    # (q)_1 * (q)_2 lands in slot 2 and beyond, never below
    a = HabiroElem(8, {1: ONE})
    b = HabiroElem(8, {2: ONE})
    prod = a * b
    assert prod.terms[0].is_zero() and prod.terms[1].is_zero()
    assert equals_at_depth(
        prod, HabiroElem.from_polynomial(pochhammer(1) * pochhammer(2), 8), 8)


def test_mul_refuses_a_factor_not_in_q():
    # also when every product term is zero, so no term check can see it
    for x in (HabiroElem(4, [ONE]), HabiroElem(4)):
        with pytest.raises(NotInQ):
            x * u_pow(1)


def test_eval_root():
    for n in range(1, 6):
        x = HabiroElem(8, {n: ONE})
        for r in range(1, n + 1):
            val = eval_root(x, r)
            assert val == 0
    q = HabiroElem.from_polynomial(q_pow(1))
    assert eval_root(q, 1) == 1
    v3 = eval_root(q, 3)
    assert v3 == ModPoly(3, [0, 1])
    with pytest.raises(DepthExceeded):
        eval_root(HabiroElem(3), 4)


def test_taylor_golden():
    x = HabiroElem(6, {2: ONE})       # (q)_2 = 2h^2 + O(h^3) at q = 1
    c0, c1, c2 = taylor(x, 1, 3)
    assert c0 == 0 and c1 == 0 and c2 == 2
    with pytest.raises(DepthExceeded):
        taylor(x, 3, 3)


def _binom(k, j):
    """The generalized binomial C(k, j) = k(k-1)...(k-j+1)/j!, any k."""
    return prod(range(k - j + 1, k + 1)) // prod(range(1, j + 1))


def test_taylor_of_q_powers():
    # q^k = (x + h)^k: jet j is C(k, j) x^(k-j), and x = 1 at r = 1, x = -1
    # at r = 2; negative k takes the negative-power path
    for k in range(-6, 7):
        x = HabiroElem.from_polynomial(q_pow(k), 8)
        assert taylor(x, 1, 8) == [_binom(k, j) for j in range(8)]
        assert taylor(x, 2, 4) == [_binom(k, j) * (-1) ** abs(k - j)
                                   for j in range(4)]


@pytest.mark.parametrize("r, d", [(1, 4), (2, 3), (3, 2), (5, 2), (6, 1)])
def test_taylor_drops_pochhammers_past_r_d(r, d):
    # Phi_r^d divides (q)_n for n >= r*d, so such terms have no jets
    n = r * d
    x = HabiroElem(n + 3, {n: q_pow(-2) + 3, n + 1: q_pow(4), n + 2: ONE})
    assert all(c.is_zero() for c in taylor(x, r, d))


def test_phi_order():
    x = HabiroElem(8, {3: ONE})       # (q)_3
    assert phi_order(x, 1, 2) == 2    # capped by kmax
    assert phi_order(x, 2, 3) == 1
    assert phi_order(x, 3, 2) == 1
    assert phi_order(HabiroElem.from_polynomial(1, 8), 1, 3) == 0


def test_to_json_literal():
    # the CLI's JSON form of an element: its depth and every slot
    zero = {"var": "u", "min": 0, "coeffs": []}
    assert HabiroElem(4, {0: q_pow(2), 3: ONE}).to_json() == {
        "depth": 4, "terms": [{"var": "u", "min": 8, "coeffs": [1]}, zero,
                              zero, {"var": "u", "min": 0, "coeffs": [1]}]}


@settings(deadline=None, max_examples=40)
@given(elems(), elems())
def test_reduce_respects_ring_ops(x, y):
    for d in (1, 3, 6):
        s = reduce(x, d) + reduce(y, d)
        assert reduce(x + y, d) == reduce(
            HabiroElem.from_polynomial(s, 6), d)


@settings(deadline=None, max_examples=40)
@given(elems())
def test_reduce_is_canonical(x):
    # re-expanding the canonical representative reproduces the class
    for d in (2, 5):
        assert equals_at_depth(
            x, HabiroElem.from_polynomial(reduce(x, d), 6), d)


@settings(deadline=None, max_examples=30)
@given(elems(), elems(), st.integers(min_value=1, max_value=5))
def test_eval_root_is_ring_map(x, y, r):
    assert eval_root(x + y, r) == eval_root(x, r) + eval_root(y, r)
    assert eval_root(x - y, r) == eval_root(x, r) - eval_root(y, r)
    assert eval_root(x * y, r) == eval_root(x, r) * eval_root(y, r)


@settings(deadline=None, max_examples=30)
@given(elems(), st.integers(min_value=2, max_value=6))
def test_taylor_head_matches_eval_root(x, r):
    head = taylor(x, r, 1)[0]
    assert head == eval_root(x, r)


@settings(deadline=None, max_examples=30)
@given(elems(), elems(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3), st.booleans())
def test_taylor_is_ring_map(x, y, r, d, barred):
    # the jets of x*y are the truncated convolution of those of x and y
    if barred:
        x, y = bar(x), bar(y)
    x, y = HabiroElem(r * d, x.terms), HabiroElem(r * d, y.terms)
    tx, ty, txy = taylor(x, r, d), taylor(y, r, d), taylor(x * y, r, d)
    zero = ModPoly(r, [0])
    for k in range(d):
        assert txy[k] == sum((tx[i] * ty[k - i] for i in range(k + 1)),
                             zero)


@settings(deadline=None, max_examples=40)
@given(elems(8), st.integers(min_value=0, max_value=8), st.booleans())
def test_expand_matches_definition(x, d, barred):
    if barred:
        x = bar(x)
    want = sum((x.terms[n] * pochhammer(n) for n in range(d)), ZERO)
    lo, run = x.expand(d)
    assert LaurentU.from_q_coeffs(lo, run) == want


slots = st.dictionaries(st.integers(min_value=-60, max_value=60),
                        st.integers(min_value=-10**6, max_value=10**6),
                        max_size=4).map(
    lambda terms: sum((q_pow(k, c) for k, c in terms.items()), ZERO))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_eval_root_folds_as_the_whole_expansion(r, data):
    # the Horner pass mod q^r - 1 against the remainder of the whole
    # expansion by Phi_r, on slots with negative q-exponents and depth
    # past r; modp_value reads the same value mod p
    depth = data.draw(st.integers(min_value=r, max_value=r + 4))
    x = HabiroElem(depth, data.draw(st.lists(slots, max_size=depth)))
    want = remainder(*x.expand(r), cyclotomic_coeffs(r))
    got = eval_root(x, r)
    assert (ModPoly(r, [got]) if r == 1 else got).coeffs == tuple(want)
    assert modp_value(x, 101, r).value.coeffs == tuple(c % 101 for c in want)


def test_to_json_literal_of_each_grading():
    # slots in q reached from each grading: gaps, u^2 times [4], a step-2
    # product whose odd terms cancel, a u-term that cancels; the JSON is
    # the run in u with its zeros, as before the graded storage
    x = HabiroElem(4, {0: q_pow(-2) - 3 * q_pow(3),
                       1: v_pow(3) * qnum(4),
                       2: (v_pow(1) + q_pow(1)) * (v_pow(1) - q_pow(1)),
                       3: (u_pow(1) + q_pow(1)) - u_pow(1)})
    assert x.to_json() == {"depth": 4, "terms": [
        {"var": "u", "min": -8, "coeffs": [1] + [0] * 19 + [-3]},
        {"var": "u", "min": 0, "coeffs": [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0,
                                          0, 1]},
        {"var": "u", "min": 4, "coeffs": [1, 0, 0, 0, -1]},
        {"var": "u", "min": 4, "coeffs": [1]}]}
    assert repr(x) == ("HabiroElem[depth 4]((-3*q^3 + q^-2)*(q)_0 + "
                       "(q^3 + q^2 + q + 1)*(q)_1 + (-q^2 + q)*(q)_2 + "
                       "(q)*(q)_3)")
    # the other three shapes are not in q, so no slot holds them
    for y in (qnum(4), qnum(2) + qnum(3), u_pow(1) + q_pow(1)):
        with pytest.raises(NotInQ):
            HabiroElem(2, [y])
