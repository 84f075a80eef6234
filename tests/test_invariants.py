"""The unified invariant, its knot-level refinement and the exact WRT
values."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uwrt.invariants
import uwrt.tangles
from uwrt.errors import (DepthExceeded, DomainError, InputError,
                         NonExactDivision, NotAdmissible, NotAKnot,
                         UnknownName)
from uwrt.invariants import (SurgeryPresentation, borromean_presentation,
                             congruence_report, eval_root_q, jm_borromean,
                             jm_from_surgery, knot_borromean, ohtsuki,
                             poincare_series, reduced_jones, s3_presentations,
                             theta, theta0, tilde_tau8_check, unlink_diagram,
                             wrt)
from uwrt.laurent import (ONE, ZERO, cyclotomic_coeffs, cyclotomic_product,
                          falling_bal, pochhammer, q_pow, qint_bal, qnum,
                          reduce_mod, remainder, v_pow)
from uwrt.qhat import HabiroElem, equals_at_depth
from uwrt.repring import omega_coeff
from uwrt.reps import twist_eigen
from uwrt.tangles import builtin, closure_of_braid

from doubling import double
from mirror import bar

BORROMEAN_WORD = [(1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, -1)]
FIGURE_EIGHT = builtin("figure8")
# the right-handed trefoil, writhe +3
MIRROR_TREFOIL = closure_of_braid(2, [(1, 1)] * 3)

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


def _knot_surgeries():
    """(presentation, Borromean parameters of the same manifold) for +-1
    surgery on the trefoil (writhe -3), its mirror (writhe +3) and the
    figure-eight (writhe 0): M_(i,j,k) is -1/k surgery on the knot
    K_(i,j), the trefoil K_(1,1), its mirror K_(-1,-1) and the
    figure-eight K_(1,-1)."""
    trefoil = builtin("trefoil")
    return [(SurgeryPresentation(diagram=trefoil, framings=(-1,)), (1, 1, 1)),
            (SurgeryPresentation(diagram=trefoil, framings=(1,)), (1, 1, -1)),
            (SurgeryPresentation(diagram=MIRROR_TREFOIL, framings=(1,)),
             (-1, -1, -1)),
            (SurgeryPresentation(diagram=MIRROR_TREFOIL, framings=(-1,)),
             (-1, -1, 1)),
            (SurgeryPresentation(diagram=FIGURE_EIGHT, framings=(1,)),
             (1, -1, -1)),
            (SurgeryPresentation(diagram=FIGURE_EIGHT, framings=(-1,)),
             (1, 1, -1))]


def test_knot_surgery_matches_closed_form():
    for pres, ijk in _knot_surgeries():
        assert equals_at_depth(jm_from_surgery(pres, 8),
                               jm_borromean(*ijk, 8), 8), (pres, ijk)
    # the large r reach colour 22 and long packed lanes of colour_sum
    for pres, ijk in _knot_surgeries():
        large = (12,) if pres.diagram is FIGURE_EIGHT else (16, 24)
        for r in (*range(2, 8), *large):
            assert wrt(pres, r) == eval_root_q(jm_borromean(*ijk, r), r), r


# the Borromean rings with component 1 replaced by two 0-framed parallel
# copies (components 1 and 2), as a 4-strand braid closure
W4 = [(2, 1), (1, 1), (3, -1), (2, -1), (1, 1), (2, -1), (3, -1), (1, 1),
      (2, 1), (3, -1)]


def test_four_component_sum_matches_the_rolfsen_twist():
    # -1 surgery on both copies is -1/2 surgery on the component they
    # double (Rolfsen twist), +1 on both is +1/2: framings (-s, -s, f2, f3)
    # give jm_borromean(2s, -f2, -f3), a non-split four-component oracle
    d = closure_of_braid(4, W4)
    for fr in ((-1, -1, -1, -1), (-1, -1, 1, -1), (1, 1, -1, 1)):
        x = jm_from_surgery(SurgeryPresentation(diagram=d, framings=fr), 5)
        want = jm_borromean(-2 * fr[0], -fr[2], -fr[3], 5)
        assert equals_at_depth(x, want, 5), fr


def test_w4_doubles_the_first_borromean_strand():
    assert double(3, BORROMEAN_WORD, 0) == (4, W4)


@pytest.mark.parametrize("c", range(3))
def test_each_doubled_borromean_component_is_a_rolfsen_twist(c):
    # both copies of component c framed -s are -1/(2s) surgery on it, so
    # slot c of the closed form is 2s; the other two keep -f.  Each
    # doubling draws its own cut drawings, closed on the left first
    d = closure_of_braid(*double(3, BORROMEAN_WORD, c))
    assert d.writhes == (0,) * 4
    for s, *other in product((1, -1), repeat=3):
        fr = (*other[:c], -s, -s, *other[c:])
        want = [-f for f in other]
        want.insert(c, 2 * s)
        x = jm_from_surgery(SurgeryPresentation(diagram=d, framings=fr), 4)
        assert equals_at_depth(x, jm_borromean(*want, 4), 4), fr


def test_stabilised_borromean_matches_builtin():
    # a Markov stabilisation draws a kink of writhe +-1 on component 3
    for sign, fr in ((1, (1, -1, 1)), (-1, (-1, -1, -1))):
        d = closure_of_braid(4, BORROMEAN_WORD + [(3, sign)])
        pres = SurgeryPresentation(diagram=d, framings=fr)
        assert equals_at_depth(jm_from_surgery(pres, 5),
                               jm_from_surgery(borromean_presentation(fr), 5),
                               5)
        for r in range(2, 8):
            assert wrt(pres, r) == \
                eval_root_q(jm_borromean(*(-f for f in fr), r), r)


_braids = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(min_value=1, max_value=n - 1),
                  st.sampled_from([1, -1])), min_size=1, max_size=5)))


@settings(deadline=None, max_examples=25)
@given(_braids, st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_knot_surgery_invariant_under_stabilisation(braid, sign, f):
    n, word = braid
    d = closure_of_braid(n, word)
    assume(d.component_count == 1)
    stabilised = closure_of_braid(n + 1, word + [(n, sign)])
    x, y = (jm_from_surgery(SurgeryPresentation(diagram=k, framings=(f,)), 4)
            for k in (d, stabilised))
    assert equals_at_depth(x, y, 4)


def test_pprime_table_is_reused(monkeypatch):
    # one table per diagram and depth: other framings, and the knot
    # invariant of the same diagram, contract nothing more
    calls = []
    contract = uwrt.tangles._contract

    def counting(d, colors, cut=None):
        calls.append(colors)
        return contract(d, colors, cut)

    monkeypatch.setattr(uwrt.tangles, "_contract", counting)
    uwrt.tangles._closed.cache_clear()
    uwrt.tangles.pprime_table.cache_clear()
    d = builtin("borromean")
    x = jm_from_surgery(SurgeryPresentation(diagram=d, framings=(1, -1, 1)),
                        4)
    assert calls
    calls.clear()
    y = jm_from_surgery(
        SurgeryPresentation(diagram=d, framings=(-1, -1, -1)), 4)
    assert calls == []
    assert equals_at_depth(x, jm_borromean(-1, 1, -1, 4), 4)
    assert equals_at_depth(y, jm_borromean(1, 1, 1, 4), 4)
    trefoil = builtin("trefoil")
    z = jm_from_surgery(SurgeryPresentation(diagram=trefoil, framings=(-1,)),
                        6)
    assert calls and equals_at_depth(z, jm_borromean(1, 1, 1, 6), 6)
    calls.clear()
    assert reduced_jones(trefoil, 6) == knot_borromean(1, 1, 6)
    assert calls == []


def test_wrt_shares_its_contractions(monkeypatch):
    # one packed V-value cache: after wrt at r = 5 (colours 0..3), the
    # surgery sum at depth 4 and wrt under other framings contract
    # nothing more
    calls = []
    contract = uwrt.tangles._contract

    def counting(d, colors, cut=None):
        calls.append(colors)
        return contract(d, colors, cut)

    monkeypatch.setattr(uwrt.tangles, "_contract", counting)
    uwrt.tangles._closed.cache_clear()
    uwrt.tangles.pprime_table.cache_clear()
    fr = (1, -1, 1)
    assert wrt(borromean_presentation(fr), 5) == \
        eval_root_q(jm_borromean(-1, 1, -1, 5), 5)
    assert len(calls) == 4 ** 3
    calls.clear()
    x = jm_from_surgery(borromean_presentation(fr), 4)
    assert equals_at_depth(x, jm_borromean(-1, 1, -1, 4), 4)
    for other in ((-1, -1, -1), (1, 1, -1)):
        assert wrt(borromean_presentation(other), 5) == \
            eval_root_q(jm_borromean(*[-f for f in other], 5), 5)
        assert wrt(borromean_presentation(other), 4) == \
            eval_root_q(jm_borromean(*[-f for f in other], 4), 4)
    assert calls == []


def test_jm_borromean_degenerate_and_symmetric():
    assert jm_borromean(0, 0, 0, 6).terms[0] == ONE
    assert jm_borromean(0, 0, 0, 6).terms[1:] == (q_pow(0, 0),) * 5
    assert equals_at_depth(jm_borromean(2, 1, 0, 6), 1, 6)
    a = jm_borromean(2, 1, -1, 6)
    for perm in ((1, 2, -1), (-1, 1, 2), (1, -1, 2)):
        assert equals_at_depth(a, jm_borromean(*perm, 6), 6)


def test_borromean_slots_match_the_divided_product():
    # jm_borromean against the closed form as first written: each slot's
    # full product (-1)^l w_i w_j w_k {2l+1}_{l+1} / {1}, divided exactly
    # by (q)_l; every |p| <= 3 of both signs in every position
    triples = [(1, 1, 1), (-1, -1, -1)] + list(zip(
        range(-3, 4), (3, -1, 2, 0, -2, 1, -3), (-2, 3, 0, 1, -3, 2, -1)))
    for i, j, k in triples:
        x = jm_borromean(i, j, k, 12)
        for l in range(12):
            c = omega_coeff(i, l) * omega_coeff(j, l) * omega_coeff(k, l)
            bb = falling_bal(2 * l + 1, l + 1).exact_div(qint_bal(1))
            want = (c * bb).exact_div(pochhammer(l))
            assert x.terms[l] == (-want if l % 2 else want), (i, j, k, l)


def test_mirror_and_connected_sum():
    assert equals_at_depth(bar(M111), jm_borromean(-1, -1, -1, 8), 8)
    cs = M111 * bar(M111)
    lams = ohtsuki(cs, 3)
    assert lams[0] == 1 and lams[1] == 0    # Casson invariant cancels


def test_borromean_factor_equals_the_division_form():
    # the cyclotomic product against (-1)^l {2l+1}_{l+1} / ({1} (q)_l)
    for l in range(40):
        f = falling_bal(2 * l + 1, l + 1).exact_div(
            qint_bal(1) * pochhammer(l))
        assert uwrt.invariants._borromean_factor(l) == \
            (-f if l % 2 else f), l


def test_poincare_series_slots():
    x = poincare_series(3)
    assert x.terms[0] == ONE
    assert x.terms[1] == q_pow(4) + 2 * q_pow(3) + 2 * q_pow(2) + q_pow(1)
    # against the series as first written: one product of the factors
    # 1 - q^i, then two exact divisions
    want = []
    for n in range(12):
        c = ONE
        for i in range(n + 1, 2 * n + 2):
            c = c * (1 - q_pow(i))
        c = (q_pow(n) * c).exact_div(ONE - q_pow(1))
        want.append(c.exact_div(pochhammer(n)))
    assert list(poincare_series(12).terms) == want


def _borromean_factor_by_cyclotomic_product(l):
    # the factor as one cyclotomic product: the binomial's Phi_d (as in
    # qbinom_q) and the Phi_d, d > 1, dividing l + 1
    i, n = 2 * l + 1, l + 1
    return v_pow(1 - n * (3 * l + 2) // 2) * cyclotomic_product(
        [d for d in range(2, i + 1) if i // d - n // d - l // d or n % d == 0],
        comb(i, n) * n)


def test_borromean_factor_equals_the_cyclotomic_product():
    for l in [*range(60), 99]:
        assert uwrt.invariants._borromean_factor(l) == \
            _borromean_factor_by_cyclotomic_product(l), l


def test_borromean_factor_refuses_a_non_multiple(monkeypatch):
    # B_(l-1) replaced by 2 + q: (2 + q)(1 - q^(2l))(1 - q^(2l+1)) is not
    # divisible by (1 - q^l)^2 for l >= 2, as 1 - q^l does not divide
    # 1 - q^(2l+1), so the strided quotient's top entries do not vanish
    body = uwrt.invariants._borromean_factor.__wrapped__
    for l in (2, 3, 7):
        want = body(l)
        monkeypatch.setattr(uwrt.invariants, "_borromean_factor",
                            lambda k: 2 + q_pow(1))
        with pytest.raises(NonExactDivision):
            body(l)
        monkeypatch.undo()
        assert body(l) == want


def test_borromean_factor_at_the_omega_bound_from_a_cold_cache():
    # slot 110 is the last that omega^(+-1) admits; from a cold cache the
    # recurrence runs through every lower slot, without RecursionError,
    # and B_l(1) = C(2l+1, l+1) (l+1)
    uwrt.invariants._borromean_factor.cache_clear()
    lo, run = uwrt.invariants._borromean_factor(110).q_run()
    assert lo == 2 - 111 * 332 and len(run) == 111 ** 2
    assert sum(run) == comb(221, 111) * 111 and min(run) > 0


def test_ohtsuki_golden():
    assert ohtsuki(M111, 6) == [1, -6, 45, -464, 6224, -102816]


# the second Conway coefficient a_2, from the knot tables
CONWAY_A2 = {"trefoil": 1, "figure8": -1}


def test_casson_law_on_the_diagram_path():
    # lambda_1 = 6 lambda(M) (Ohtsuki) and lambda(S^3_(+-1)(K)) = +-a_2(K)
    for name, a2 in CONWAY_A2.items():
        for f in (1, -1):
            pres = SurgeryPresentation(diagram=builtin(name), framings=(f,))
            assert ohtsuki(jm_from_surgery(pres, 3), 3)[1] == 6 * f * a2, \
                (name, f)


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
    with pytest.raises(DepthExceeded, match="depth 7 < r = 8"):
        tilde_tau8_check(HabiroElem.from_polynomial(1, 7), 0)


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
    # an inverse of the framed unknot off by 1 leaves a remainder in the
    # division by (2r)^b at S^3
    original = uwrt.invariants._unknot_inverse
    monkeypatch.setattr(uwrt.invariants, "_unknot_inverse",
                        lambda r, f: original(r, f) + 1)
    for pres in s3_presentations()[1:]:
        with pytest.raises(NonExactDivision, match="not integral"):
            wrt(pres, 3)
    assert wrt(s3_presentations()[0], 3) == 1      # no framing, no U


def _unfolded(a, n):
    """The remainder of a's u-run by Phi_n(u), with no fold."""
    return tuple(remainder(a.min, a.coeffs, cyclotomic_coeffs(n)))


def test_unknot_inverse_is_the_gauss_sum_identity():
    # U_f (-U_(-f) {1}^2) = 2r mod Phi_4r for both signs
    u = uwrt.invariants._unknot_I
    for r, f in product(range(2, 61), (1, -1)):
        brace2 = reduce_mod(qint_bal(1) ** 2, 4 * r, "u")
        # the u-run folded mod u^(4r) - 1 against the unfolded remainder
        assert brace2.coeffs == _unfolded(qint_bal(1) ** 2, 4 * r)
        inv = -u(r, -f) * brace2
        assert uwrt.invariants._unknot_inverse(r, f) == inv
        assert u(r, f) * inv == 2 * r, (r, f)


def test_unknot_sum_matches_the_product_form():
    # each [c+1]^2 theta_c^sign written down coefficient by coefficient
    # equals the product of LaurentU factors, reduced mod Phi_4r
    for r, sign in product(range(1, 41), (1, -1)):
        terms = [qnum(c + 1) * qnum(c + 1) * twist_eigen(c, sign)
                 for c in range(r - 1)]
        want = _unfolded(sum(terms, ZERO), 4 * r)
        assert uwrt.invariants._unknot_I(r, sign).coeffs == want, (r, sign)
        # the u-run folded mod u^(4r) - 1 first, as wrt reduces its sum
        assert reduce_mod(sum(terms, ZERO), 4 * r, "u").coeffs == want


def test_unknot_inverse_checks_the_identity(monkeypatch):
    # a doubled unknot value makes the product 8r, refused before any
    # division
    original = uwrt.invariants._unknot_I
    monkeypatch.setattr(uwrt.invariants, "_unknot_I",
                        lambda r, sign: original(r, sign) * 2)
    uwrt.invariants._unknot_inverse.cache_clear()
    for pres in s3_presentations()[1:]:
        with pytest.raises(DomainError, match="is not 6 mod Phi_12"):
            wrt(pres, 3)


def test_knot_wrt_matches_the_closed_form_at_every_r():
    # -1 surgery on K_(i,j) is M_(i,j,1): both parities of r, against
    # eval_root of the closed formula
    for name, (i, j), top in (("trefoil", (1, 1), 24),
                              ("figure8", (1, -1), 12)):
        pres = SurgeryPresentation(diagram=builtin(name), framings=(-1,))
        for r in range(2, top + 1):
            assert wrt(pres, r) == eval_root_q(jm_borromean(i, j, 1, r),
                                               r), (name, r)


def test_not_admissible():
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("unknot"),
                                            framings=(2,)), 4)
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("hopf"),
                                            framings=(1, 1)), 4)
    with pytest.raises(NotAdmissible):
        jm_from_surgery(SurgeryPresentation(diagram=builtin("unknot"),
                                            framings=(1, 1)), 4)
    with pytest.raises(NotAdmissible):
        wrt(SurgeryPresentation(family="borromean", params=(2, 1, 1)), 2)
    with pytest.raises(NotAdmissible, match="empty link"):
        jm_from_surgery(SurgeryPresentation(framings=(1,)), 2)
    # a kink is blackboard framing, not surgery framing: +1 surgery on
    # the unknot drawn with writhe +1 is still the 3-sphere
    x = jm_from_surgery(SurgeryPresentation(diagram=builtin("unknot+1"),
                                            framings=(1,)), 6)
    assert equals_at_depth(x, 1, 6)


def test_from_json():
    pres = SurgeryPresentation.from_json(
        {"family": "borromean", "params": [1, 1, 1]})
    assert pres.family == "borromean" and pres.params == (1, 1, 1)
    with pytest.raises(UnknownName):
        SurgeryPresentation.from_json({"family": "whitehead"})
    with pytest.raises(UnknownName, match="three parameters"):
        SurgeryPresentation.from_json({"family": "borromean",
                                       "params": [1, 1]})
    with pytest.raises(InputError):
        SurgeryPresentation.from_json([{"family": "borromean"}])
    for obj in ({}, {"diagram": None, "framings": None}):
        pres = SurgeryPresentation.from_json(obj)
        assert pres.diagram is None and pres.framings == ()
    pres = SurgeryPresentation.from_json(
        {"diagram": "trefoil", "framings": [-1]})
    assert pres.diagram.name == "trefoil" and pres.framings == (-1,)


def test_presentation_repr():
    # accept prints it in its failure details
    family = SurgeryPresentation.from_json(
        {"family": "borromean", "params": [1, -1, 2]})
    knot = SurgeryPresentation.from_json(
        {"diagram": "trefoil", "framings": [-1]})
    assert repr(family) == "SurgeryPresentation(borromean, (1, -1, 2))"
    assert repr(knot) == \
        "SurgeryPresentation(Diagram(trefoil, 7 slices), framings=(-1,))"
    assert repr(SurgeryPresentation.from_json({})) == \
        "SurgeryPresentation(empty, framings=())"


def test_knot_borromean_goldens():
    k = knot_borromean(1, 1, 6)
    assert [c.to_str() for c in k] == \
        ["1", "-q^2", "q^5", "-q^9", "q^14", "-q^20"]
    assert knot_borromean(1, -1, 6) == (ONE,) * 6
    k00 = knot_borromean(0, 0, 6)
    assert k00[0] == ONE and all(c.is_zero() for c in k00[1:])
    assert knot_borromean(1, 2, 6) == knot_borromean(2, 1, 6)


def test_reduced_jones():
    ru = reduced_jones(builtin("unknot"), 5)
    assert ru == (ONE,) + (ZERO,) * 4
    assert reduced_jones(builtin("trefoil"), 6) == knot_borromean(1, 1, 6)
    stabilised = closure_of_braid(3, [(1, -1)] * 3 + [(2, 1)])
    assert reduced_jones(stabilised, 6) == knot_borromean(1, 1, 6)
    with pytest.raises(NotAKnot):
        reduced_jones(builtin("hopf"), 4)


@pytest.mark.parametrize("d, ij, depth", [
    (closure_of_braid(3, [(1, 1)] * 3 + [(2, 1), (1, -1), (2, 1)]),
     (-2, -1), 10),                                             # 5_2
    (closure_of_braid(4, [(1, 1), (1, 1), (2, 1), (1, -1), (3, -1), (2, 1),
                          (3, -1)]), (-2, 1), 8),               # 6_1
    (FIGURE_EIGHT, (1, -1), 10)], ids=("5_2", "6_1", "4_1"))
def test_twist_knots_match_the_closed_form(d, ij, depth):
    # knot_borromean(i, j) is the cyclotomic expansion of the twist knot
    # K_(i,j) (Masbaum), an oracle the engine does not compute
    assert reduced_jones(d, depth) == knot_borromean(*ij, depth)


def test_a_torus_knot_is_no_twist_knot():
    # 5_1 = T(2, 5) is not K_(i,j) for any 0 < |i|, |j| <= 3
    r = reduced_jones(closure_of_braid(2, [(1, 1)] * 5), 4)
    assert not [ij for ij in product((-3, -2, -1, 1, 2, 3), repeat=2)
                if knot_borromean(*ij, 4) == r]


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


def test_repeated_wrt_packs_nothing(monkeypatch):
    # each weight [c+1] theta_c^(f-w) is packed once (tangles caches it)
    # and the colour values stay packed in _closed's cache, so a repeated
    # wrt calls pack zero times
    packs = []
    pack = uwrt.tangles.pack
    monkeypatch.setattr(uwrt.tangles, "pack",
                        lambda x: packs.append(x) or pack(x))
    uwrt.tangles._closed.cache_clear()
    uwrt.tangles._packed_weight.cache_clear()
    pres = borromean_presentation((1, -1, 1))
    first = wrt(pres, 5)
    assert packs
    packs.clear()
    assert wrt(pres, 5) == first
    assert packs == []
