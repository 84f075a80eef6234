"""The unified invariant, its knot-level refinement and the exact WRT
values."""

from fractions import Fraction
from itertools import product

import pytest

import uwrt.invariants
from uwrt.errors import (DepthExceeded, InputError, NonExactDivision,
                         NotAdmissible, NotAKnot, UnknownName)
from uwrt.invariants import (SurgeryPresentation, TwoVarKnot,
                             borromean_presentation, congruence_report,
                             eval_root_q, jm_borromean, jm_from_surgery,
                             knot_borromean, ohtsuki, poincare_series,
                             reduced_jones, s3_presentations, theta, theta0,
                             tilde_tau8_check, unlink_diagram, wrt)
from uwrt.laurent import ONE, q_pow
from uwrt.qhat import HabiroElem, equals_at_depth
from uwrt.tangles import builtin, closure_of_braid

BORROMEAN_WORD = [(1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, -1)]

M111 = jm_borromean(1, 1, 1, 10)


def test_s3_presentations_are_trivial():
    for pres in s3_presentations():
        x = jm_from_surgery(pres, 6)
        assert equals_at_depth(x, 1, 6)


def test_unlink_presentation():
    pres = SurgeryPresentation(diagram=unlink_diagram(3),
                               framings=(1, -1, 1))
    assert equals_at_depth(jm_from_surgery(pres, 5), 1, 5)


def test_borromean_family_matches_surgery():
    # the closed formula for M_{i,j,k} against the diagram engine
    x = jm_from_surgery(borromean_presentation((-1, 1, -1)), 6)
    y = jm_borromean(1, -1, 1, 6)
    assert equals_at_depth(x, y, 6)
    # every cyclic rotation of the builtin braid word is the same link
    # with another contraction order and state size
    for shift in range(len(BORROMEAN_WORD)):
        d = closure_of_braid(3, BORROMEAN_WORD[shift:]
                             + BORROMEAN_WORD[:shift])
        for fr in product((1, -1), repeat=3):
            x = jm_from_surgery(SurgeryPresentation(diagram=d, framings=fr),
                                4)
            assert equals_at_depth(x, jm_borromean(*(-f for f in fr), 4), 4)


def test_jm_borromean_degenerate_and_symmetric():
    assert jm_borromean(0, 0, 0, 6).terms[0] == ONE
    assert jm_borromean(0, 0, 0, 6).terms[1:] == (q_pow(0, 0),) * 5
    assert equals_at_depth(jm_borromean(2, 1, 0, 6), 1, 6)
    a = jm_borromean(2, 1, -1, 6)
    for perm in ((1, 2, -1), (-1, 1, 2), (1, -1, 2)):
        assert equals_at_depth(a, jm_borromean(*perm, 6), 6)


def test_mirror_and_connected_sum():
    assert equals_at_depth(M111.conj(),
                           jm_borromean(-1, -1, -1, 8), 8)
    cs = M111 * M111.conj()
    lams = ohtsuki(cs, 3)
    assert lams[0] == 1 and lams[1] == 0    # Casson invariant cancels


def test_poincare_series_slots():
    x = poincare_series(3)
    assert x.terms[0] == ONE
    assert x.terms[1] == q_pow(4) + 2 * q_pow(3) + 2 * q_pow(2) + q_pow(1)


def test_ohtsuki_golden():
    assert ohtsuki(M111, 6) == [1, -6, 45, -464, 6224, -102816]


def test_congruence_report():
    rep = congruence_report(ohtsuki(M111, 6))
    assert rep["all_pass"]
    assert rep["a"] == [Fraction(1, 6), Fraction(-1, 4), Fraction(17, 72),
                        Fraction(-25, 144)]
    assert rep["b"] == [Fraction(1, 12), Fraction(-5, 24), Fraction(41, 144),
                        Fraction(-77, 288)]
    trivial = congruence_report((1, 0, 0, 0, 0))
    assert trivial["all_pass"]
    with pytest.raises(ValueError):
        congruence_report((1, 0, 0))


def test_tilde_tau8():
    trivial = tilde_tau8_check(HabiroElem.from_polynomial(1, 8), 0)
    assert trivial["difference"] == [0, 0, 0, 0]
    assert trivial["in_lattice"] and trivial["conjectured_span"]
    rep = tilde_tau8_check(M111, ohtsuki(M111, 2)[1])
    assert rep["difference"] == [0, 2, 0, -2]     # the value 2*sqrt2
    assert rep["in_lattice"] and rep["conjectured_span"]


def test_wrt_trivial_values():
    assert wrt(SurgeryPresentation(diagram=None, framings=()), 1) == 1
    for r in (2, 3, 4):
        assert wrt(SurgeryPresentation(diagram=None, framings=()), r) == 1
    assert wrt(s3_presentations()[1], 3) == 1


def test_wrt_matches_unified_invariant():
    pres = borromean_presentation((-1, -1, -1))
    assert wrt(pres, 3) == eval_root_q(M111, 3)
    assert wrt(pres, 1) == 1


def test_wrt_is_checked_integral(monkeypatch):
    # doubling the unknot value halves the solution: 1/2 at S^3
    original = uwrt.invariants._unknot_I
    monkeypatch.setattr(uwrt.invariants, "_unknot_I",
                        lambda r, sign: original(r, sign) * 2)
    for pres in s3_presentations()[1:]:
        with pytest.raises(NonExactDivision):
            wrt(pres, 3)
    assert wrt(s3_presentations()[0], 3) == 1      # no framing, no U


def test_not_admissible():
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("unknot"),
                                            framings=(2,)), 4)
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("hopf"),
                                            framings=(1, 1)), 4)
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("unknot+1"),
                                            framings=(1,)), 4)
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("unknot"),
                                            framings=(1, 1)), 4)
    with pytest.raises(NotAdmissible):
        wrt(SurgeryPresentation(family="borromean", params=(2, 1, 1)), 2)


def test_from_json():
    pres = SurgeryPresentation.from_json(
        {"family": "borromean", "params": [1, 1, 1]})
    assert pres.family == "borromean" and pres.params == (1, 1, 1)
    with pytest.raises(UnknownName):
        SurgeryPresentation.from_json({"family": "whitehead"})
    with pytest.raises(InputError):
        SurgeryPresentation.from_json([{"family": "borromean"}])
    for obj in ({}, {"diagram": None, "framings": None}):
        pres = SurgeryPresentation.from_json(obj)
        assert pres.diagram is None and pres.framings == ()
    pres = SurgeryPresentation.from_json(
        {"diagram": "trefoil", "framings": [-1]})
    assert pres.diagram.name == "trefoil" and pres.framings == (-1,)


def test_knot_borromean_goldens():
    k = knot_borromean(1, 1, 6)
    assert [c.to_str() for c in k.coeffs] == \
        ["1", "-q^2", "q^5", "-q^9", "q^14", "-q^20"]
    assert all(c == ONE for c in knot_borromean(1, -1, 6).coeffs)
    k00 = knot_borromean(0, 0, 6)
    assert k00.coeffs[0] == ONE and all(c.is_zero() for c in k00.coeffs[1:])
    assert knot_borromean(1, 2, 6) == knot_borromean(2, 1, 6)


def test_reduced_jones():
    ru = reduced_jones(builtin("unknot"), 5)
    assert ru == TwoVarKnot(5, [ONE] + [ONE * 0] * 4)
    assert reduced_jones(builtin("trefoil"), 6) == knot_borromean(1, 1, 6)
    with pytest.raises(NotAKnot):
        reduced_jones(builtin("hopf"), 4)


def test_theta():
    k = knot_borromean(1, 1, 6)
    assert theta(k, 1) == ONE
    assert theta(k, 2) == -q_pow(4) + q_pow(3) + q_pow(1)
    assert theta(k, 2) == theta(k, -2)
    with pytest.raises(ValueError):
        theta(k, 0)
    with pytest.raises(DepthExceeded):
        theta(k, 7)


def test_theta0():
    ru = reduced_jones(builtin("unknot"), 5)
    assert equals_at_depth(theta0(ru), 1, 5)
    t = theta0(knot_borromean(1, 1, 4))
    assert t.terms[1] == -q_pow(2) + q_pow(1)
    assert t.terms[2] == q_pow(5) - q_pow(4) - q_pow(3) + q_pow(2)


def test_two_var_knot_json():
    k = knot_borromean(1, 1, 4)
    obj = k.to_json()
    assert obj["depth"] == 4 and len(obj["coeffs"]) == 4
    with pytest.raises(ValueError):
        TwoVarKnot(3, [ONE])
