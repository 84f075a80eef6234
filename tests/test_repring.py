"""Representation ring bases, the Hopf pairing and the omega elements."""

from math import comb

import pytest

from uwrt.laurent import LaurentFrac, ONE, qnum, v_pow
from uwrt.repring import (BasisCombo, _compositions, omega_coeff,
                          omega_truncated, pairing, pprime_mul,
                          pprime_mul_unit, to_P, to_V, v_mul)


def test_combo_basics():
    x = BasisCombo("V", {0: LaurentFrac(1), 2: LaurentFrac(qnum(2))})
    assert (x - x).is_zero()
    assert x.truncate(2).terms == {0: LaurentFrac(1)}
    with pytest.raises(ValueError):
        BasisCombo("W")
    with pytest.raises(ValueError):
        x + BasisCombo.unit("P", 0)


def test_clebsch_gordan():
    v1 = BasisCombo.unit("V", 1)
    assert v_mul(v1, v1) == BasisCombo(
        "V", {0: LaurentFrac(1), 2: LaurentFrac(1)})
    v2 = BasisCombo.unit("V", 2)
    assert v_mul(v1, v2) == BasisCombo(
        "V", {1: LaurentFrac(1), 3: LaurentFrac(1)})
    # associativity on a small case
    assert v_mul(v_mul(v1, v1), v2) == v_mul(v1, v_mul(v1, v2))


def test_base_change_round_trip():
    for basis in ("P", "P'", "P''", "t~P'", "S"):
        for n in range(6):
            x = BasisCombo.unit(basis, n)
            v = to_V(x)
            assert to_V(to_P(v)) == v
    for n in range(6):
        v = BasisCombo.unit("V", n)
        assert to_V(to_P(v)) == v


def test_pairing_fast_paths_consistent():
    # closed forms for pairings against P-type elements must agree with
    # bilinear expansion through the V-basis
    for m in range(4):
        for n in range(5):
            p = BasisCombo.unit("P", m)
            v = BasisCombo.unit("V", n)
            assert pairing(p, v) == pairing(to_V(p), v)
            pp = BasisCombo.unit("P'", m)
            assert pairing(pp, v) == pairing(to_V(pp), v)


def test_pairing_symmetric():
    for m in range(4):
        for n in range(4):
            a = BasisCombo.unit("V", m)
            b = BasisCombo.unit("P'", n)
            assert pairing(a, b) == pairing(b, a)
    assert pairing(BasisCombo.unit("V", 2),
                   BasisCombo.unit("V", 3)) == LaurentFrac(qnum(12))


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
    for m in range(3):
        for n in range(3):
            direct = to_V(pprime_mul_unit(m, n))
            via_v = v_mul(to_V(BasisCombo.unit("P'", m)),
                          to_V(BasisCombo.unit("P'", n)))
            assert direct == via_v


def test_compositions():
    for n in range(5):
        for parts in range(1, 4):
            combos = list(_compositions(n, parts))
            assert len(combos) == comb(n + parts - 1, parts - 1)
            assert all(sum(c) == n and len(c) == parts for c in combos)
            assert combos == sorted(combos)
