"""Representation ring bases, the Hopf pairing and the omega elements."""

from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwrt.repring
from uwrt.errors import InputError, NonExactDivision
from uwrt.invariants import jm_borromean
from uwrt.laurent import (ONE, ZERO, falling_bal, q_pow, qbinom_q, qfact_bal,
                          qfact_q, qnum, v_pow)
from uwrt.qhat import eval_root
from uwrt.repring import (BasisCombo, omega_coeff, omega_row, omega_truncated,
                          pairing, pprime_mul, pprime_mul_unit, to_P, to_V)


def _v_product(x, y):
    """Clebsch-Gordan: V_m V_n = V_|m-n| + V_{|m-n|+2} + ... + V_{m+n},
    extended bilinearly to two V-basis combos."""
    return BasisCombo("V", [(l, a * b)
                            for m, a in x.terms.items()
                            for n, b in y.terms.items()
                            for l in range(abs(m - n), m + n + 1, 2)])


def test_combo_basics():
    x = BasisCombo("V", [(0, ONE), (2, qnum(2)), (0, -ONE), (3, ZERO)])
    assert x.terms == {2: qnum(2)}
    assert x.truncate(2) == BasisCombo("V")
    assert BasisCombo.unit("P", 1) == BasisCombo("P", {1: 1})
    for basis in ("W", "S", "P''", "t~P'"):
        with pytest.raises(ValueError):
            BasisCombo(basis)


def test_base_change_round_trip():
    # P'_n times {n}! is P_n; a bare P'_n has no integral P-coordinates
    for basis, c in (("P", lambda n: ONE), ("P'", qfact_bal)):
        for n in range(6):
            x = BasisCombo(basis, {n: c(n)})
            v = to_V(x)
            assert to_V(to_P(v)) == v
            assert to_P(x) == BasisCombo.unit("P", n)
    with pytest.raises(NonExactDivision):
        to_P(BasisCombo.unit("P'", 2))
    for n in range(6):
        v = BasisCombo.unit("V", n)
        assert to_V(to_P(v)) == v


def test_pairing_fast_paths_consistent():
    # the closed form <P_m, V_2k> = [2k+1] {k+m}_{2m} must agree with the
    # bilinear expansion through the V-basis, and {m}! must divide it, so
    # that <P'_m, V'_2k> is a Laurent polynomial
    for m in range(4):
        for k in range(3):
            got = pairing(BasisCombo.unit("P", m), BasisCombo.unit("V", 2 * k))
            assert got == qnum(2 * k + 1) * falling_bal(k + m, 2 * m)
            got.exact_div(qnum(2 * k + 1) * qfact_bal(m))


def test_pairing_symmetric():
    for m in range(4):
        for n in range(4):
            a = BasisCombo.unit("V", m)
            b = BasisCombo.unit("P", n)
            assert pairing(a, b) == pairing(b, a)
    assert pairing(BasisCombo.unit("V", 2),
                   BasisCombo.unit("V", 3)) == qnum(12)


def test_omega_coefficients():
    for l in range(6):
        assert omega_coeff(1, l) == v_pow(l * (l + 3) // 2)
    assert omega_coeff(0, 0) == ONE
    assert omega_coeff(0, 3).is_zero()


def test_omega_inverse():
    N = 5
    prod = pprime_mul(omega_truncated(1, N), omega_truncated(-1, N))
    assert prod.truncate(N) == BasisCombo.unit("P'", 0)


def test_omega_powers_multiply():
    N = 4
    lhs = pprime_mul(omega_truncated(1, N), omega_truncated(2, N)).truncate(N)
    assert lhs == omega_truncated(3, N)


def test_pprime_mul_unit_matches_v_basis():
    # P'_m P'_n = sum_l c_l P'_l, so P_m P_n = sum_l ({m}!{n}!/{l}!) c_l P_l
    for m in range(4):
        for n in range(4):
            scale = qfact_bal(m) * qfact_bal(n)
            direct = to_V(BasisCombo("P", {
                l: (scale * c).exact_div(qfact_bal(l))
                for l, c in pprime_mul_unit(m, n).items()}))
            via_v = _v_product(to_V(BasisCombo.unit("P", m)),
                               to_V(BasisCombo.unit("P", n)))
            assert direct == via_v


def _omega_by_compositions(p, n):
    """omega^p_n as the sum over the compositions c of n into |p| parts
    of the q-multinomial [n]_q! / prod [c_l]_q!, each with its own
    exponent: f = sum of s^2 + s over the interior partial sums s, and
    for p < 0 also the cross term sum_{a < b} c_a c_b."""
    acc = ZERO
    for cuts in combinations_with_replacement(range(n + 1), abs(p) - 1):
        bounds = (0,) + cuts + (n,)
        comp = [b - a for a, b in zip(bounds, bounds[1:])]
        mult = qfact_q(n)
        for c in comp:
            mult = mult.exact_div(qfact_q(c))
        f = sum(s * s + s for s in cuts)
        if p < 0:
            f += sum(comp[a] * comp[b] for a in range(len(comp))
                     for b in range(a + 1, len(comp)))
        acc = acc + mult * q_pow(f if p > 0 else -f)
    if p > 0:
        return v_pow(n * (n + 3) // 2) * acc
    return (-1) ** n * v_pow(-n * (n + 3) // 2) * acc


def test_omega_matches_composition_sum():
    for p in range(-5, 6):
        if p:
            for n in range(8):
                assert omega_coeff(p, n) == _omega_by_compositions(p, n)


def test_omega_first_coefficient_closed_form():
    # omega^p_1 = v^2 (1 + q^2 + ... + q^(2(p-1))) and
    # omega^(-p)_1 = -v^(-2) (1 + q^(-2) + ... + q^(-2(p-1)))
    for p in range(1, 51):
        assert omega_coeff(p, 1) == v_pow(2) * sum(
            (q_pow(2 * i) for i in range(p)), ZERO)
        assert omega_coeff(-p, 1) == -v_pow(-2) * sum(
            (q_pow(-2 * i) for i in range(p)), ZERO)


def test_values_trivial_at_r_dividing_2k_for_large_k():
    # criterion 9's identity at k = 10 and 20, where omega^k has more
    # than 10^4 compositions per coefficient
    for k in (10, 20):
        for i, j in ((1, -1), (2, -1)):
            x = jm_borromean(i, j, k, 10)
            for r in range(1, 11):
                if (2 * k) % r == 0:
                    assert eval_root(x, r) == 1, (i, j, k, r)


@lru_cache(maxsize=None)
def _omega_by_steps(p, n):
    """omega^p_n by one LaurentU pass over l = 1..|p| for this n alone,
    as omega_coeff computed it before rows were packed: a dict keyed by
    the partial sum s_l holds the sum over s_1..s_(l-1); the step
    s_(l-1) -> s_l multiplies by [s_l choose s_(l-1)]_q, by
    q^(+-(s_l^2 + s_l)) at an interior s_l (the sign of p) and, for
    p < 0, by q^(-(s_l - s_(l-1)) s_(l-1))."""
    if p == 0 or n == 0:
        return ONE if n == 0 else ZERO
    sign = 1 if p > 0 else -1

    def step(c, s, t):
        c = c * qbinom_q(t, s)
        return c if p > 0 else c * q_pow((s - t) * s)

    row = {0: ONE}
    for _ in range(abs(p) - 1):
        row = {t: q_pow(sign * (t * t + t))
               * sum((step(c, s, t) for s, c in row.items() if s <= t), ZERO)
               for t in range(n + 1)}
    acc = sum((step(c, s, n) for s, c in row.items()), ZERO)
    return v_pow(sign * n * (n + 3) // 2, sign ** n) * acc


@settings(deadline=None, max_examples=60)
@given(st.integers(-8, 8), st.integers(0, 10))
def test_omega_row_matches_the_steps_for_each_n(p, N):
    assert omega_row(p, N) == [_omega_by_steps(p, n) for n in range(N)]


@pytest.mark.parametrize("p, N", [(300, 3), (-300, 3), (120, 4), (-120, 5),
                                  (40, 6), (-40, 7)])
def test_omega_row_matches_the_steps_at_large_twists(p, N):
    assert omega_row(p, N) == [_omega_by_steps(p, n) for n in range(N)]


def test_omega_work_bound_refuses_before_any_work(monkeypatch):
    # the work p^2 (n^4 + 8) of omega^37 at P'_2 is 32,856: at a bound one
    # below it, every row through P'_2 is refused before the packed pass
    # starts, which it does at the bound itself
    def fail(*args):
        raise AssertionError("omega^p work started")

    want = omega_row(37, 3)
    monkeypatch.setattr(uwrt.repring, "_OMEGA_WORK", 37 ** 2 * 24)
    assert omega_row(37, 3) == want
    monkeypatch.setattr(uwrt.repring, "_omega_sums", fail)
    with pytest.raises(AssertionError, match="work started"):
        omega_row(37, 3)
    monkeypatch.setattr(uwrt.repring, "_OMEGA_WORK", 37 ** 2 * 24 - 1)
    for p in (37, -37):
        for N in (3, 4, 10):
            with pytest.raises(InputError, match=f"omega\\^{p} at P'_2"):
                omega_row(p, N)
        with pytest.raises(InputError, match=f"omega\\^{p} at P'_2"):
            omega_coeff.__wrapped__(p, 2)
    assert omega_row(10 ** 9, 1) == [ONE]      # P'_0 costs nothing
    assert omega_coeff.__wrapped__(10 ** 9, 0) == ONE
