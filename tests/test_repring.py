"""Representation ring bases, the Hopf pairing and the omega elements."""

from math import comb

import pytest

from uwrt.errors import NonExactDivision
from uwrt.laurent import ONE, ZERO, falling_bal, qfact_bal, qnum, v_pow
from uwrt.repring import (BasisCombo, _compositions, omega_coeff,
                          omega_truncated, pairing, pprime_mul,
                          pprime_mul_unit, to_P, to_V)


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


def test_compositions():
    for n in range(5):
        for parts in range(1, 4):
            combos = list(_compositions(n, parts))
            assert len(combos) == comb(n + parts - 1, parts - 1)
            assert all(sum(c) == n and len(c) == parts for c in combos)
            assert combos == sorted(combos)
