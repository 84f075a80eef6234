"""Exact Laurent arithmetic, q-combinatorics and quotient rings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwrt.errors import (NonExactDivision, NonInvertibleVariable, NotAUnit,
                         NotInQ, ShapeMismatch)
from uwrt.laurent import (GF, LaurentU, ModPoly, ONE, QQ, ZERO,
                          ZZ, cyclotomic, cyclotomic_coeffs, falling_bal,
                          falling_q, pochhammer, q_pow, qbinom_bal, qbinom_q,
                          qfact_bal, qfact_q, qint_bal, qint_q, qmultinom_q,
                          qnum, qnum_q, reduce_mod, u_pow, v_pow)

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
    assert qint_q(3) == q_pow(3) - 1
    assert qint_bal(2) == v_pow(2) - v_pow(-2)
    assert qnum(2) == v_pow(1) + v_pow(-1)
    assert qnum(3) == q_pow(1) + 1 + q_pow(-1)
    assert qnum_q(3) == q_pow(2) + q_pow(1) + 1


def test_balanced_vs_q_factorials():
    # {n}! = v^(-n(n+1)/2) {n}_q! as polynomials in u
    for n in range(6):
        assert qfact_bal(n) == qfact_q(n) * v_pow(-n * (n + 1) // 2)


def test_binomials_integral():
    for n in range(9):
        for k in range(n + 1):
            g = qbinom_q(n, k)
            assert all(c >= 0 for c in g.coeffs)
            assert qbinom_bal(n, k).is_in_v()
    assert qbinom_q(4, 2) == qbinom_q(4, 2).conj() * q_pow(4)


def test_falling_and_multinomial():
    assert falling_q(5, 2) == qint_q(5) * qint_q(4)
    assert falling_bal(5, 2) == qint_bal(5) * qint_bal(4)
    assert qmultinom_q(3, (1, 1, 1)) == qnum_q(2) * qnum_q(3)
    assert qmultinom_q(4, (2, 2)) == qbinom_q(4, 2)


def test_pochhammer():
    assert pochhammer(0) == ONE
    assert pochhammer(2) == (1 - q_pow(1)) * (1 - q_pow(2))


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


def test_modpoly_field_inverse():
    mod = [1, 1, 1]          # q^2 + q + 1
    x = ModPoly.variable(QQ, mod)
    assert x * x * x == 1    # q^3 = 1 mod Phi_3
    inv = (x + 1).inverse()
    assert (x + 1) * inv == 1
    with pytest.raises(NonInvertibleVariable):
        ModPoly(GF(5), [0, 1], [0]).inverse()


def test_modpoly_shape_guard():
    a = ModPoly.variable(ZZ, [1, 0, 1])
    b = ModPoly.variable(ZZ, [1, 1, 1])
    with pytest.raises(ShapeMismatch):
        a + b
    with pytest.raises(ShapeMismatch):
        a.as_integer()


def test_reduce_mod():
    val = reduce_mod(q_pow(5) + q_pow(-1), cyclotomic_coeffs(3), ZZ, "q")
    x = ModPoly.variable(ZZ, [1, 1, 1])
    assert val == x ** 5 + x ** 2        # q^-1 = q^2 mod Phi_3
    with pytest.raises(NotInQ):
        reduce_mod(u_pow(1), cyclotomic_coeffs(3), ZZ, "q")
    with pytest.raises(TypeError):      # not iterable, so it cannot hang
        reduce_mod(q_pow(5), cyclotomic(3), ZZ, "q")
    with pytest.raises(NotAUnit):       # the remainder is taken over Z
        reduce_mod(q_pow(5), [1, 1, 2], QQ, "q")
    with pytest.raises(NonInvertibleVariable):
        reduce_mod(q_pow(-1), [2, 1, 1], ZZ, "q")
    assert reduce_mod(q_pow(5), [2, 1, 1], ZZ, "q") == \
        ModPoly.variable(ZZ, [2, 1, 1]) ** 5


_STEPS = {"q": 4, "v": 2, "u": 1}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([ZZ, QQ, GF(7), GF(13)]), st.sampled_from("qvu"),
       st.integers(min_value=1, max_value=40),
       st.dictionaries(st.integers(min_value=-150, max_value=150),
                       st.integers(min_value=-10**6, max_value=10**6),
                       max_size=5))
def test_reduce_mod_matches_definition(base, var, n, terms):
    # sum c x^k, with x^k = x^(k mod n) a ModPoly power: Phi_n divides
    # q^n - 1
    f = cyclotomic_coeffs(n)
    x = ModPoly.variable(base, f)
    want = ModPoly.constant(base, f, 0)
    for k, c in terms.items():
        want = want + x ** (k % n) * c
    step = _STEPS[var]
    a = LaurentU.from_dict({step * k: c for k, c in terms.items()})
    assert reduce_mod(a, f, base, var) == want
    if var != "u":
        with pytest.raises(NotInQ):
            reduce_mod(a + u_pow(step * min(terms, default=0) + 1), f,
                       base, var)


def test_base_rings():
    assert QQ.coerce(3) == Fraction(3)
    assert GF(7).inv(3) == 5
    assert GF(7).is_unit(3) and not GF(7).is_unit(0)


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
