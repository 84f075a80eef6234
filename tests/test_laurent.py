"""Exact Laurent arithmetic, q-combinatorics and quotient rings."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwrt.errors import (NonExactDivision, NonInvertibleVariable, NotAUnit,
                         NotInQ, ShapeMismatch)
from uwrt.laurent import (LaurentU, ModPoly, ONE, ZERO, cyclotomic,
                          cyclotomic_coeffs, falling_bal, falling_q, is_unit,
                          pochhammer, q_pow, qbinom_bal, qbinom_q, qfact_bal,
                          qfact_q, qint_bal, qmultinom_q, qnum, reduce_mod,
                          u_pow, v_pow)

laurents = st.builds(LaurentU,
                     st.integers(min_value=-8, max_value=8),
                     st.lists(st.integers(min_value=-9, max_value=9),
                              max_size=6))


def test_canonical_form():
    assert LaurentU(3, (0, 0, 1, 2, 0)).min == 5
    assert LaurentU(3, (0, 0, 1, 2, 0)).coeffs == (1, 2)
    assert LaurentU(7, ()).is_zero()
    assert LaurentU(7, (0, 0)).min == 0


def test_basic_arithmetic():
    x = u_pow(2) + 3
    assert x * x == u_pow(4) + 6 * u_pow(2) + 9
    assert x - x == ZERO
    assert x ** 3 == x * x * x
    assert q_pow(1) == u_pow(4)
    assert v_pow(1) == u_pow(2)


def test_negative_power_of_unit():
    assert u_pow(3) ** -2 == u_pow(-6)
    assert u_pow(1, -1) ** -3 == u_pow(-3, -1)
    with pytest.raises(NonExactDivision):
        (u_pow(1) + 1) ** -1


def test_conj():
    x = u_pow(-1) + 2 * u_pow(3)
    assert x.conj() == u_pow(1) + 2 * u_pow(-3)
    assert x.conj().conj() == x


def test_exact_div():
    assert (q_pow(2) - 1).exact_div(q_pow(1) - 1) == q_pow(1) + 1
    with pytest.raises(NonExactDivision):
        (q_pow(2) - 1).exact_div(q_pow(1) - 2)
    with pytest.raises(NonExactDivision):
        ONE.exact_div(ZERO)
    # q^2 + 1 has interior zero coefficients, in q and in u
    sparse = q_pow(2) + 1
    assert ((q_pow(1) - 1) * sparse).exact_div(sparse) == q_pow(1) - 1
    with pytest.raises(NonExactDivision):
        (q_pow(3) + 1).exact_div(sparse)


def test_variable_membership():
    assert q_pow(-2).is_in_q()
    assert v_pow(3).is_in_v() and not v_pow(3).is_in_q()
    assert not u_pow(1).is_in_v()
    assert (q_pow(2) + 5).q_coeff(2) == 1
    assert (q_pow(2) + 5).q_coeff(0) == 5


def test_qint_conventions():
    assert qint_bal(2) == v_pow(2) - v_pow(-2)
    assert qnum(2) == v_pow(1) + v_pow(-1)
    assert qnum(3) == q_pow(1) + 1 + q_pow(-1)
    # [i] = {i}/{1} as an exact division, [-i] = -[i] included
    for i in range(-7, 8):
        assert qnum(i) == (v_pow(i) - v_pow(-i)).exact_div(v_pow(1)
                                                            - v_pow(-1))


def test_balanced_vs_q_factorials():
    # {n}! and {n}_q! against their products built inline
    for n in range(7):
        bal = q = ONE
        for k in range(1, n + 1):
            bal = bal * (v_pow(k) - v_pow(-k))
            q = q * (q_pow(k) - 1)
        assert qfact_bal(n) == bal
        assert qfact_q(n) == q


def test_binomials_integral():
    for n in range(9):
        for k in range(n + 1):
            g = qbinom_q(n, k)
            assert all(c >= 0 for c in g.coeffs)
            assert qbinom_bal(n, k).is_in_v()
            assert qbinom_bal(n, k) == \
                falling_bal(n, k).exact_div(qfact_bal(k))
    assert qbinom_q(4, 2) == qbinom_q(4, 2).conj() * q_pow(4)


def test_falling_and_multinomial():
    # falling products against inline products, the arguments crossing 0
    for i in range(-3, 8):
        for n in range(5):
            fq = fb = ONE
            for k in range(n):
                fq = fq * (q_pow(i - k) - 1)
                fb = fb * (v_pow(i - k) - v_pow(k - i))
            assert falling_q(i, n) == fq
            assert falling_bal(i, n) == fb
    assert qmultinom_q(3, (1, 1, 1)) == \
        (1 + q_pow(1)) * (1 + q_pow(1) + q_pow(2))
    assert qmultinom_q(4, (2, 2)) == qbinom_q(4, 2)


def test_pochhammer():
    assert pochhammer(0) == ONE
    acc = ONE
    for n in range(1, 7):
        acc = acc * (1 - q_pow(n))
        assert pochhammer(n) == acc


def test_cyclotomic():
    assert cyclotomic(1) == q_pow(1) - 1
    assert cyclotomic(2) == q_pow(1) + 1
    assert cyclotomic(4) == q_pow(2) + 1
    assert cyclotomic(6) == q_pow(2) - q_pow(1) + 1
    prod = ONE
    for d in (1, 2, 3, 6):
        prod = prod * cyclotomic(d)
    assert prod == q_pow(6) - 1
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_modpoly_arithmetic():
    mod = [1, 1, 1]          # q^2 + q + 1
    x = ModPoly(mod, [0, 1])
    assert x * x * x == 1    # q^3 = 1 mod Phi_3
    assert (x + 1) * (-x) == 1           # -q - q^2 = 1 mod Phi_3
    assert x ** 0 == 1 and x - x == 0 and 2 * x - x == x
    y = ModPoly(mod, [0, 1], 5)
    assert (y + 1) * (4 * y) == 1 and y * 6 == y
    with pytest.raises(NotAUnit):        # not monic over Z
        ModPoly([1, 1, 2], [0])
    # over F_p a unit multiple of the modulus is the same ring
    assert ModPoly([2, 2, 2], [3, 4, 5], 7) == ModPoly(mod, [3, 4, 5], 7)
    with pytest.raises(ValueError):      # leading coefficient 0 mod 7
        ModPoly([1, 1, 7], [0], 7)


def test_modpoly_shape_guard():
    a = ModPoly([1, 0, 1], [0, 1])
    b = ModPoly([1, 1, 1], [0, 1])
    with pytest.raises(ShapeMismatch):
        a + b
    with pytest.raises(ShapeMismatch):
        b + ModPoly([1, 1, 1], [0, 1], 5)
    with pytest.raises(ShapeMismatch):
        a.as_integer()


def _brute_force_unit(a, f, p):
    """Whether some b of degree < deg f has a*b = 1 in F_p[x]/(f)."""
    one = ModPoly(f, [1], p)
    x = ModPoly(f, a, p)
    return any(x * ModPoly(f, b, p) == one
               for b in product(range(p), repeat=len(f) - 1))


@pytest.mark.parametrize("p", [3, 5])
def test_is_unit_matches_brute_force(p):
    moduli = [f for deg in (1, 2)
              for f in product(range(p), repeat=deg + 1) if f[-1]]
    for f in moduli:
        for a in product(range(p), repeat=len(f) - 1):
            assert is_unit(a, f, p) == _brute_force_unit(a, f, p), (a, f)
    phi3 = cyclotomic_coeffs(3)              # (x - 1)^2 mod 3
    assert not is_unit([-1, 1], phi3, 3)
    assert is_unit([1, 1], phi3, 3)
    assert not is_unit([0, 0], phi3, 3)


def test_reduce_mod():
    val = reduce_mod(q_pow(5) + q_pow(-1), cyclotomic_coeffs(3))
    x = ModPoly([1, 1, 1], [0, 1])
    assert val == x ** 5 + x ** 2        # q^-1 = q^2 mod Phi_3
    with pytest.raises(NotInQ):
        reduce_mod(u_pow(1), cyclotomic_coeffs(3))
    with pytest.raises(TypeError):      # not iterable, so it cannot hang
        reduce_mod(q_pow(5), cyclotomic(3))
    with pytest.raises(NotAUnit):       # the remainder is taken over Z
        reduce_mod(q_pow(5), [1, 1, 2], 7)
    with pytest.raises(NonInvertibleVariable):
        reduce_mod(q_pow(-1), [2, 1, 1])
    assert reduce_mod(q_pow(5), [2, 1, 1]) == ModPoly([2, 1, 1], [0, 1]) ** 5


_STEPS = {"q": 4, "u": 1}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([0, 7, 13]), st.sampled_from("qu"),
       st.integers(min_value=1, max_value=40),
       st.dictionaries(st.integers(min_value=-150, max_value=150),
                       st.integers(min_value=-10**6, max_value=10**6),
                       max_size=5))
def test_reduce_mod_matches_definition(p, var, n, terms):
    # sum c x^k, with x^k = x^(k mod n) a ModPoly power: Phi_n divides
    # q^n - 1
    f = cyclotomic_coeffs(n)
    x = ModPoly(f, [0, 1], p)
    want = ModPoly(f, [0], p)
    for k, c in terms.items():
        want = want + x ** (k % n) * c
    step = _STEPS[var]
    a = LaurentU.from_dict({step * k: c for k, c in terms.items()})
    assert reduce_mod(a, f, p, var) == want
    if var != "u":
        with pytest.raises(NotInQ):
            reduce_mod(a + u_pow(step * min(terms, default=0) + 1), f, p,
                       var)


@settings(deadline=None, max_examples=60)
@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(deadline=None, max_examples=60)
@given(laurents, laurents)
def test_conj_is_ring_map(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(deadline=None, max_examples=60)
@given(laurents, laurents)
def test_exact_div_round_trip(a, b):
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@settings(deadline=None, max_examples=40)
@given(laurents)
def test_json_round_trip(a):
    assert LaurentU.from_json(a.to_json()) == a
