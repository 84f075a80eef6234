"""Exact Laurent arithmetic, q-combinatorics and quotient rings."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwrt.errors import (NonExactDivision, NonInvertibleVariable, NotAUnit,
                         NotInQ, ShapeMismatch)
from uwrt.laurent import (LaurentU, ModPoly, ONE, ZERO, cyclotomic,
                          cyclotomic_coeffs, falling_bal, falling_q, is_unit,
                          packed_q_values, pochhammer, q_pow, qbinom_bal,
                          qbinom_q, qfact_bal, qfact_q, qint_bal, qnum,
                          reduce_mod, u_pow, v_pow)

from mirror import bar
from terms import coeff, from_dict

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
    # no power type inverts, not even a unit: a negative exponent is
    # refused in both rings
    with pytest.raises(ValueError):
        u_pow(3) ** -2
    with pytest.raises(ValueError):
        ModPoly([1, 1, 1], [0, 1]) ** -1
    assert u_pow(1, -1) ** 0 == ONE and ModPoly([1, 1], [5]) ** 0 == 1


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
    with pytest.raises(NonExactDivision, match="leading coefficient"):
        (q_pow(1) + 1).exact_div(q_pow(1, 2))


def test_variable_membership():
    assert q_pow(-2).is_in_q()
    assert v_pow(3).is_in_v() and not v_pow(3).is_in_q()
    assert not u_pow(1).is_in_v()
    assert coeff(q_pow(2) + 5, 4 * 2) == 1
    assert coeff(q_pow(2) + 5, 4 * 0) == 5


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
    assert qbinom_q(4, 2) == bar(qbinom_q(4, 2)) * q_pow(4)


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
    # a q-multinomial is the product of binomials along its partial
    # sums: (1, 1, 1) has partial sums 1, 2, 3 and (1, 2, 1) has 1, 3, 4
    assert qbinom_q(2, 1) * qbinom_q(3, 2) == \
        (1 + q_pow(1)) * (1 + q_pow(1) + q_pow(2))
    assert qbinom_q(3, 1) * qbinom_q(4, 3) == \
        qfact_q(4).exact_div(qfact_q(1) * qfact_q(2) * qfact_q(1))


def test_binomial_products_equal_the_division_form():
    # qbinom_q is a product of cyclotomic polynomials for 0 <= n <= i,
    # against {i}_{q,n} / {n}_q!
    for i in range(41):
        for n in range(i + 1):
            assert qbinom_q(i, n) == falling_q(i, n).exact_div(qfact_q(n)), \
                (i, n)
    # outside that range it is refused, as a negative power is, and so is
    # the balanced binomial built on it
    for i, n in ((5, -1), (0, -2), (3, 4), (-1, 0)):
        with pytest.raises(ValueError):
            qbinom_q(i, n)
    with pytest.raises(ValueError):
        qbinom_bal(4, -1)


@pytest.mark.parametrize("top", [1, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64,
                                 2 ** 71 - 1, 2 ** 71, 2 ** 200 - 1])
def test_packed_values_fit_when_q_1_attains_the_bound(top):
    # a monomial's value at q = 1 is its coefficient, so the width proved
    # from it has no slack: a digit one byte narrower cannot hold it
    def build(bits):
        return [top << bits * 3, 1 + (top << bits), 0]

    assert packed_q_values(build) == [q_pow(3, top), 1 + q_pow(1, top), ZERO]


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
        ModPoly([1, 1, 2], reduce_mod(q_pow(5), [1, 1, 2]).coeffs, 7)
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
    a = from_dict({step * k: c for k, c in terms.items()})
    assert ModPoly(f, reduce_mod(a, f, var).coeffs, p) == want
    if var != "u":
        with pytest.raises(NotInQ):
            reduce_mod(a + u_pow(step * min(terms, default=0) + 1), f, var)


@settings(deadline=None, max_examples=60)
@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(deadline=None, max_examples=60)
@given(laurents, laurents)
def test_exact_div_round_trip(a, b):
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_to_json_literal():
    # the CLI's JSON form of a Laurent polynomial: its canonical run in u
    assert (u_pow(-3, 2) - u_pow(1)).to_json() == \
        {"var": "u", "min": -3, "coeffs": [2, 0, 0, 0, -1]}
    assert ZERO.to_json() == {"var": "u", "min": 0, "coeffs": []}


# The same four value shapes as the parent's output: a q-graded value with
# gaps, one in u^2 Z[q, 1/q], one of step 2 and one mixing residues.  The
# JSON form is the run in u with its zeros, whatever the stored step.
_SHAPES = [
    (lambda: q_pow(-2) - 3 * q_pow(3), -8, [1] + [0] * 19 + [-3],
     "-3*q^3 + q^-2"),
    (lambda: qnum(4), -6, [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
     "v^3 + v + v^-1 + v^-3"),
    (lambda: qnum(2) + qnum(3), -4, [1, 0, 1, 0, 1, 0, 1, 0, 1],
     "v^2 + v + 1 + v^-1 + v^-2"),
    (lambda: u_pow(1) + q_pow(1), 1, [1, 0, 0, 1], "u^4 + u"),
]


@pytest.mark.parametrize("make, lo, run, text", _SHAPES)
def test_to_json_literal_of_each_grading(make, lo, run, text):
    x = make()
    assert x.to_json() == {"var": "u", "min": lo, "coeffs": run}
    assert (x.min, x.coeffs) == (lo, tuple(run))
    assert x.to_str() == text
    assert x == LaurentU(lo, run) and hash(x) == hash(LaurentU(lo, run))


# An independent reference: {u-exponent: coefficient} dicts, built from
# terms graded in q, v or u.
_UNIT = {"q": 4, "v": 2, "u": 1}
graded_terms = st.lists(st.tuples(st.sampled_from("qvu"),
                                  st.integers(min_value=-6, max_value=6),
                                  st.integers(min_value=-4, max_value=4)),
                        max_size=5)
gradings = st.sampled_from(["q", "qv", "qvu", "v", "u"])


def _graded_pair(terms, allowed):
    """(LaurentU, reference dict) of a sum of monomials in q, v or u; a
    variable not in allowed is read as allowed[0], so allowed bounds the
    gradings that occur."""
    x, ref = ZERO, {}
    for var, k, c in terms:
        var = var if var in allowed else allowed[0]
        e = _UNIT[var] * k
        x = x + {"q": q_pow, "v": v_pow, "u": u_pow}[var](k, c)
        ref[e] = ref.get(e, 0) + c
    return x, {e: c for e, c in ref.items() if c}


def _ref_mul(a, b):
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _matches(x, ref):
    """x equals the reference in its views, by ==, by hash and in its
    gradings."""
    lo = min(ref, default=0)
    run = tuple(ref.get(e, 0) for e in range(lo, max(ref, default=-1) + 1))
    same = from_dict(ref)
    return ((x.min, x.coeffs) == (lo, run) and x == same
            and hash(x) == hash(same) == hash(LaurentU(lo, run))
            and x.is_in_q() == all(e % 4 == 0 for e in ref)
            and x.is_in_v() == all(e % 2 == 0 for e in ref)
            and all(coeff(x, e) == c for e, c in ref.items()))


@settings(deadline=None, max_examples=300)
@given(graded_terms, gradings, graded_terms, gradings)
def test_graded_arithmetic_matches_dict_reference(ta, ga, tb, gb):
    a, ra = _graded_pair(ta, ga)
    b, rb = _graded_pair(tb, gb)
    assert _matches(a, ra) and _matches(b, rb)
    assert _matches(a + b, _ref_add(ra, rb))
    assert _matches(a - b, _ref_add(ra, rb, -1))
    assert _matches(a * b, _ref_mul(ra, rb))
    assert _matches(a * 3 - b, _ref_add(_ref_mul(ra, {0: 3}), rb, -1))
    assert (a == b) == (ra == rb)
    if rb:
        assert _matches((a * b).exact_div(b), ra)
        # a value built from its terms in another order is the same value
        assert a + b - b == a and hash(a + b - b) == hash(a)


def test_cancellation_coarsens_the_step():
    # a u-term that cancels leaves a value in q, equal and equally hashed
    x = (q_pow(1) + u_pow(1)) - u_pow(1)
    assert x == q_pow(1) and hash(x) == hash(q_pow(1)) and x.is_in_q()
    y = (qnum(2) + qnum(3)) - qnum(3)
    assert y == qnum(2) and hash(y) == hash(qnum(2))
    # a product whose odd terms cancel: (1 + u)(1 - u) = 1 - v
    z = (1 + u_pow(1)) * (1 - u_pow(1))
    assert z == 1 - v_pow(1) and z.is_in_v() and z.to_str() == "-v + 1"
    assert (v_pow(1) - q_pow(1)).exact_div(1 - u_pow(2)) == v_pow(1)


@st.composite
def factors(draw):
    """(LaurentU, reference dict) of a run of 1 to 80 entries in steps of
    u, v or q at an offset of either sign, its entries of up to 1 to 200
    bits; a run of one entry is a monomial, often +-1."""
    lo = draw(st.integers(min_value=-60, max_value=60))
    step = draw(st.sampled_from([1, 2, 4]))
    bits = st.sampled_from([1, 2, 16, 31]) | st.integers(1, 200)
    top = (1 << draw(bits)) - 1
    n = draw(st.sampled_from([1, 2, 15, 16, 17]) | st.integers(1, 80))
    entry = st.sampled_from([top, -top]) | st.integers(-top, top)
    if n == 1:
        entry = st.sampled_from([1, -1]) | entry.filter(bool)
    run = draw(st.lists(entry, min_size=n, max_size=n))
    return (LaurentU(lo, run, step),
            {lo + step * i: c for i, c in enumerate(run) if c})


@settings(deadline=None, max_examples=150)
@given(factors(), factors())
def test_products_match_dict_convolution(fa, fb):
    # every path of __mul__ (a monomial factor, the schoolbook loop, the
    # packed product past the crossover) against a dict convolution, and
    # each product canonical, so == and hash still mean equal values
    (a, ra), (b, rb) = fa, fb
    x = a * b
    assert _matches(x, _ref_mul(ra, rb))
    same = LaurentU(x.min, x.coeffs, 1)
    assert same == x and hash(same) == hash(x)
