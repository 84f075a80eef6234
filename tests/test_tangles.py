"""Sliced diagrams: parsing, validation, linking data, the contraction
engine, its Kronecker packing, and the P-basis table and WRT colour sum
of a link."""

import re
from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uwrt.tangles
from uwrt.errors import (ColorCountMismatch, DiagramSyntaxError, DomainError,
                         InputError, InterfaceMismatch, NotAdmissible,
                         OpenDiagram, UnknownName, UnsupportedCrossing)
from uwrt.laurent import (ONE, ZERO, LaurentU, falling_q, q_pow, qbinom_q,
                          qnum, u_pow, v_pow)
from uwrt.repring import p_in_v
from uwrt.reps import braiding, braiding_terms, twist_eigen
from uwrt.tangles import (builtin, closure_of_braid, colored_jones,
                          colour_sum, linking_data, pack, parse_diagram,
                          pprime_table, unpack, _padd, _pmul)

from mirror import bar
from terms import from_dict

# Packed values are u^s * Z[q, 1/q]: a shift s and a Laurent polynomial in q
shifts = st.integers(min_value=-6, max_value=6)
q_polys = st.builds(LaurentU.from_q_coeffs,
                    st.integers(min_value=-3, max_value=3),
                    st.lists(st.integers(min_value=-999, max_value=999),
                             max_size=5))


BUILTIN_TEXT = {
    "hopf": """U(1)
|1_ U(2) |1^
X-(1,2) |2^ |1^
X-(2,1) |2^ |1^
|1_ A(2) |1^
A(1)
""",
    "trefoil": """U(1)
|1_ U(1) |1^
X-(1,1) |1^ |1^
X-(1,1) |1^ |1^
X-(1,1) |1^ |1^
|1_ A(1) |1^
A(1)
""",
}


def test_parse_and_print_round_trip():
    for name, text in BUILTIN_TEXT.items():
        assert parse_diagram(text) == builtin(name)


def test_diagram_repr_names_the_diagram():
    # accept prints it in its failure details
    assert repr(builtin("hopf")) == "Diagram(hopf, 6 slices)"
    assert repr(parse_diagram("U(1)\nA(1)\n")) == \
        "Diagram(1 components, 2 slices)"


def test_parse_comments_and_blanks():
    d = parse_diagram("# a round unknot\nU(1)\n\nA(1)  # done\n")
    assert d.component_count == 1


def test_syntax_error_position():
    with pytest.raises(DiagramSyntaxError) as err:
        parse_diagram("U(1)\nZ(9)\n")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(DiagramSyntaxError) as err:
        parse_diagram("U(1) U(x)\n")
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("   \n# only comments\n")


def test_validation_errors():
    with pytest.raises(InterfaceMismatch):
        parse_diagram("U(1)\nA(1) A(1)\n")        # consumes too much
    with pytest.raises(OpenDiagram):
        parse_diagram("U(1)\n")                   # strands left open
    with pytest.raises(InterfaceMismatch):
        parse_diagram("U(1) U(2)\nA(1)\nA(2)\n")  # strands unconsumed
    with pytest.raises(InterfaceMismatch):
        parse_diagram("U(2)\nA(2)\n")             # ids not contiguous
    with pytest.raises(InterfaceMismatch):
        parse_diagram("U(1)\n|1^ |1_\nA(1)\n")    # orientation mismatch
    for text, message in (
            ("U(1) U(2)\n|1_ A(1) |2^\nA(1)\n", "over components 1, 2"),
            ("U(1) U'(1)\n|1_ A(1) |1_\nA(1)\n", "opposite orientations"),
            ("U(1) U(2)\n|1_ X+(2,2) |2^\n|1_ A(2) |2^\nA(1)\n",
             "crossing labels"),
            ("U(1)\nA(1)\nU(1)\nA(1)\n", "forms 2 loops")):
        with pytest.raises(InterfaceMismatch, match=message):
            parse_diagram(text)


def test_unknot_values():
    d = builtin("unknot")
    for n in range(5):
        assert colored_jones(d, (n,)) == qnum(n + 1)
    flipped = parse_diagram("U'(1)\nA(1)\n")
    for n in range(4):
        assert colored_jones(flipped, (n,)) == qnum(n + 1)


def test_kinked_unknot():
    assert colored_jones(builtin("unknot+1"), (1,)) == \
        twist_eigen(1, 1) * qnum(2)
    assert colored_jones(builtin("unknot-1"), (2,)) == \
        twist_eigen(2, -1) * qnum(3)


def test_hopf_values():
    h = builtin("hopf")
    assert colored_jones(h, (0, 3)) == qnum(4)
    assert colored_jones(h, (1, 1)) == qnum(4)
    assert colored_jones(h, (2, 2)) == sum(
        (q_pow(k) for k in range(-4, 5)), ZERO)
    assert colored_jones(h, (1, 2)) == colored_jones(h, (2, 1))


def test_trefoil_value():
    t = builtin("trefoil")
    assert linking_data(t) == [[-3]]
    assert colored_jones(t, (1,)) == \
        -u_pow(9) + u_pow(1) + u_pow(-3) + u_pow(-7)


def test_linking_data():
    assert linking_data(builtin("trefoil")) == [[-3]]
    assert linking_data(builtin("hopf")) == [[0, -1], [-1, 0]]
    assert linking_data(builtin("borromean")) == [[0] * 3] * 3
    assert linking_data(builtin("unknot+1")) == [[1]]
    # the self-writhes are the diagonal, one per component
    assert builtin("trefoil").writhes == (-3,)
    assert builtin("hopf").writhes == (0, 0)
    stabilised = closure_of_braid(
        4, [(1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, -1), (3, -1)])
    assert stabilised.writhes == (0, 0, -1)
    # a closed diagram crosses two components an even number of times,
    # so only crossing sums made by hand reach the parity check
    odd = mock.Mock(crossing_sums=((0, 1), (1, 0)), writhes=(0, 0))
    with pytest.raises(InterfaceMismatch, match="odd mixed crossing count"):
        linking_data(odd)


def test_color_count_mismatch():
    with pytest.raises(ColorCountMismatch):
        colored_jones(builtin("hopf"), (1,))
    # a framing per component: neither fewer nor more
    for framings in ((1, -1), ()):
        with pytest.raises(ColorCountMismatch):
            colour_sum(builtin("unknot"), framings, 3)
    with pytest.raises(ColorCountMismatch):
        colour_sum(builtin("borromean"), (1, -1), 3)


def test_integrality_check_survives_optimize(monkeypatch):
    # an odd power of u on an even-framed diagram must raise, not assert
    uwrt.tangles._closed.cache_clear()
    # the fake contraction's packed value is u^1
    monkeypatch.setattr(uwrt.tangles, "_contract",
                        lambda d, colors, cut=None: (1, 1))
    with pytest.raises(DomainError):
        colored_jones(builtin("hopf"), (1, 1))


# a closed, 0-framed two-component diagram whose crossings join upward
# strands
UPWARD_CROSSINGS = """U(1)
|1_ U(2) |1^
|1_ |2_ X+(2,1)
|1_ |2_ X-(1,2)
|1_ A(2) |1^
A(1)
"""


def test_unsupported_crossing():
    # a crossing must join two downward strands: any other is refused
    # when the diagram is read, before any contraction
    for text in ("U'(1)\nX+(1,1)\nA(1)\n", UPWARD_CROSSINGS):
        with pytest.raises(UnsupportedCrossing):
            parse_diagram(text)


def test_unknown_builtin():
    with pytest.raises(UnknownName):
        builtin("figure-eight")


def test_figure8_builtin():
    d = builtin("figure8")
    assert d == closure_of_braid(3, [(1, 1), (2, -1), (1, 1), (2, -1)])
    assert d.component_count == 1 and d.writhes == (0,)
    # amphichiral: the value is bar-invariant
    assert colored_jones(d, (2,)) == bar(colored_jones(d, (2,)))


def test_closure_components():
    assert builtin("borromean").component_count == 3
    assert builtin("hopf").component_count == 2
    assert closure_of_braid(3, [(1, 1), (2, 1)]).component_count == 1


def test_distant_unlink_multiplicative():
    text = "U(1)\nA(1)\nU(2)\nA(2)\n"
    d = parse_diagram(text)
    for m in range(3):
        for n in range(3):
            assert colored_jones(d, (m, n)) == qnum(m + 1) * qnum(n + 1)


# Slices with several non-identity events: each event's position in the
# state key is its slice position shifted by the cups and caps to its left.
HOPF_BESIDE_TREFOIL = """U(1) U(3)
|1_ U(2) |1^ |3_ U(3) |3^
X-(1,2) |2^ |1^ X-(3,3) |3^ |3^
X-(2,1) |2^ |1^ X-(3,3) |3^ |3^
|1_ A(2) |1^ X-(3,3) |3^ |3^
A(1) |3_ A(3) |3^
A(3)
"""


def test_multi_event_slices_multiplicative():
    unknot = builtin("unknot")
    for text in ("U(1)\nA(1) U(2)\nA(2)\n",    # a cap, then a cup
                 "U(1) U(2)\nA(1) A(2)\n"):     # two cups, then two caps
        d = parse_diagram(text)
        for m in range(3):
            for n in range(3):
                assert colored_jones(d, (m, n)) == \
                    colored_jones(unknot, (m,)) * colored_jones(unknot, (n,))
    d = parse_diagram(HOPF_BESIDE_TREFOIL)
    hopf, trefoil = builtin("hopf"), builtin("trefoil")
    for a, b, c in ((1, 1, 1), (0, 2, 1), (2, 1, 2), (1, 2, 0)):
        assert colored_jones(d, (a, b, c)) == \
            colored_jones(hopf, (a, b)) * colored_jones(trefoil, (c,))


def test_steps_are_at_interface_positions():
    # the second cup sits after the two strands of the first; each cap
    # then finds its strands at the front of the interface of its moment
    d = parse_diagram("U(1) U(2)\nA(1) A(2)\n")
    assert d.steps == ((0, "cup", 0, 0), (2, "cup", 1, 0),
                       (0, "cap", 0, -2), (0, "cap", 1, -2))
    assert parse_diagram("U'(1)\nA(1)\n").steps == \
        ((0, "cup", 0, 2), (0, "cap", 0, 0))
    assert [s[:2] for s in builtin("hopf").steps] == \
        [(0, "cup"), (1, "cup"), (0, "x"), (0, "x"), (1, "cap"), (0, "cap")]


def braids(max_strands, min_strands=2, max_letters=5):
    """(strands, word) with min_strands..max_strands strands and up to
    max_letters letters (none on one strand)."""
    return st.integers(min_value=min_strands, max_value=max_strands).flatmap(
        lambda strands: st.tuples(
            st.just(strands),
            st.lists(st.tuples(
                st.integers(min_value=1, max_value=max(strands - 1, 1)),
                st.sampled_from((1, -1))),
                max_size=max_letters if strands > 1 else 0)))


def _closure_value(strands, word, color):
    d = closure_of_braid(strands, word)
    return colored_jones(d, (color,) * d.component_count)


@settings(deadline=None, max_examples=60)
@given(braids(3), st.integers(min_value=0, max_value=2), st.data())
def test_braid_closure_invariance(braid, color, data):
    # every component has the same color, so renumbering them is harmless
    strands, word = braid
    value = _closure_value(strands, word, color)
    mirror = [(p, -s) for p, s in word]
    assert _closure_value(strands, mirror, color) == bar(value)
    g = (data.draw(st.integers(min_value=1, max_value=strands - 1)),
         data.draw(st.sampled_from((1, -1))))
    conjugate = [g] + word + [(g[0], -g[1])]
    assert _closure_value(strands, conjugate, color) == value
    k = data.draw(st.integers(min_value=0, max_value=max(len(word) - 1, 0)))
    assert _closure_value(strands, word[k:] + word[:k], color) == value


@settings(deadline=None, max_examples=60)
@given(shifts, q_polys, st.integers(min_value=1, max_value=3),
       st.integers(min_value=-99, max_value=99).filter(bool))
def test_pack_round_trip(s, a, r, c):
    a = a * u_pow(s)
    assert unpack(pack(a)) == a
    # one more term in another residue mod 4 is refused
    if not a.is_zero():
        with pytest.raises(DomainError):
            pack(a + u_pow(a.min + r, c))


@settings(deadline=None, max_examples=60)
@given(shifts, q_polys, q_polys, st.integers(min_value=1, max_value=3))
def test_packed_arithmetic(s, a, b, r):
    a, b = a * u_pow(s), b * u_pow(s)
    assert unpack(_padd(pack(a), pack(b))) == a + b
    assert unpack(_pmul(pack(a), pack(b))) == a * b
    # a sum across residues mod 4 is refused, not computed
    if not (a.is_zero() or b.is_zero()):
        with pytest.raises(DomainError):
            _padd(pack(a), pack(b * u_pow(r)))


def test_pack_q_step_layout():
    # one digit per q-step: u^5 (1 + q) packs to the digits 1, 1
    assert pack(u_pow(5) * (1 + q_pow(1))) == (5, 1 + (1 << 64))


@settings(deadline=None, max_examples=60)
@given(shifts, shifts, q_polys, q_polys, q_polys)
def test_packed_q_graded_arithmetic(s, t, a, b, c):
    # a and b share a residue mod 4, c may have another one
    a, b, c = a * u_pow(s), b * u_pow(s), c * u_pow(t)
    pa, pb, pc = pack(a), pack(b), pack(c)
    ab = _padd(pa, pb)
    assert unpack(ab) == a + b
    assert unpack(_pmul(ab, pc)) == (a + b) * c
    assert unpack(_pmul(pc, ab)) == (a + b) * c
    assert unpack(_pmul(ab, ab)) == (a + b) * (a + b)
    assert unpack(_padd(_pmul(pa, pc), _pmul(pb, pc))) == (a + b) * c
    if (s - t) % 4 and not (c.is_zero() or (a + b).is_zero()):
        with pytest.raises(DomainError):
            _padd(ab, pc)
    else:
        assert unpack(_padd(ab, pc)) == a + b + c


def test_unpack_refuses_digits_near_the_boundary():
    # the top 8 bits of a digit are a guard band: a digit there may be a
    # coefficient that overflowed into its neighbour
    edge = uwrt.tangles._HALF - uwrt.tangles._GUARD
    assert unpack((3, edge)) == u_pow(3, edge)
    assert unpack((3, -edge)) == u_pow(3, -edge)
    for mag in (edge + 1, -edge - 1, 1 + ((edge + 1) << 64)):
        with pytest.raises(DomainError):
            unpack((3, mag))


# Diagrams beyond braid closures: a flipped cup, and slices holding several
# cups, caps and crossings.
EXTRA_TEXTS = ("U'(1)\nA(1)\n", "U(1)\nA(1) U(2)\nA(2)\n",
               "U(1) U(2)\nA(1) A(2)\n", HOPF_BESIDE_TREFOIL)

@settings(deadline=None, max_examples=60)
@given(braids(4),
       st.lists(st.integers(min_value=0, max_value=4), min_size=4,
                max_size=4))
def test_contraction_stays_in_one_residue(braid, colors):
    # every state entry is u^(C + 2P(K)) Z[q, 1/q] (the tangles docstring),
    # so no merge meets two residues and nothing raises; colored_jones,
    # which cuts a braid closure open, agrees with the uncut contraction
    strands, word = braid
    for d in [closure_of_braid(strands, word)] + \
            [parse_diagram(t) for t in EXTRA_TEXTS]:
        cs = tuple(colors[:d.component_count])
        assert colored_jones(d, cs) == unpack(uwrt.tangles._contract(d, cs))


def test_closure_keeps_the_nested_slices():
    # strand 0 outermost, every strand closed on the right: the slices
    # (hence the colored_jones cache keys) of the plain nested closure
    assert builtin("hopf").slices == (
        (("cup", 0, False),),
        (("id", 0, "d"), ("cup", 1, False), ("id", 0, "u")),
        (("x", -1, 0, 1), ("id", 1, "u"), ("id", 0, "u")),
        (("x", -1, 1, 0), ("id", 1, "u"), ("id", 0, "u")),
        (("id", 0, "d"), ("cap", 1), ("id", 0, "u")),
        (("cap", 0),))
    # component 2 outermost: strand 1 closes on the left, from a flipped
    # cup to a cap over (up, down), with no crossing added, and before
    # the cap A(2) that ends the drawing; the cut record holds the steps
    # strictly between the outer cup U(2) and that cap
    assert builtin("hopf").cuts[1] == (
        (0, "cup", 0, 2), (1, "x", -1, 0, 1), (1, "x", -1, 1, 0),
        (0, "cap", 0, 0))


def test_text_diagram_cut_only_at_a_lone_first_cup():
    # and only where the final step caps that cup's up strand: the lone
    # first cup of the distant unlink is capped by the second of three
    # steps, so its value is contracted uncut, [m+1][n+1]
    assert set(parse_diagram(BUILTIN_TEXT["hopf"]).cuts) == {0}
    for text in ("U'(1)\nA(1)\n", "U(1) U(2)\nA(1) A(2)\n"):
        assert parse_diagram(text).cuts == {}
    unlink = parse_diagram("U(1)\nA(1) U(2)\nA(2)\n")
    assert unlink.cuts == {}
    for m, n in product(range(4), repeat=2):
        assert colored_jones(unlink, (m, n)) == qnum(m + 1) * qnum(n + 1)


def test_largest_colour_is_cut(monkeypatch):
    # a component of largest colour, ties by _cut_plan and then by the
    # component: on the Borromean word it ranks the cut at 1 first, then
    # 0 and 2, whose plans are equal
    calls = []

    def recording(d, colors, cut=None):
        calls.append(cut)
        return contract(d, colors, cut)

    contract = uwrt.tangles._contract
    monkeypatch.setattr(uwrt.tangles, "_contract", recording)
    uwrt.tangles._closed.cache_clear()
    d = builtin("borromean")
    plan = uwrt.tangles._cut_plan
    assert plan(d, 0) == plan(d, 2)
    assert sorted(d.cuts, key=lambda c: (plan(d, c), c)) == [1, 0, 2]
    for colors, cut in (((1, 4, 1), 1), ((4, 1, 1), 0), ((1, 1, 4), 2),
                        ((1, 1, 1), 1), ((1, 4, 4), 1), ((2, 1, 2), 0)):
        calls.clear()
        assert colored_jones(d, colors) == unpack(contract(d, colors))
        assert calls == [cut], colors


def test_a_twin_with_one_cut_reads_no_other_cut():
    # Diagram(slices) equals the braid closure of those slices, so the
    # two share every cache, but it has only the cut at its first cup:
    # after the closure was cut at 1, the twin's value is cut at 0
    d = builtin("borromean")
    twin = uwrt.tangles.Diagram(d.slices)
    assert twin == d and set(twin.cuts) == {0}
    want = colored_jones(d, (1, 1, 1))
    uwrt.tangles._closed.cache_clear()
    assert colored_jones(twin, (1, 1, 1)) == want


@settings(deadline=None, max_examples=40)
@given(braids(4, min_strands=1, max_letters=6),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4,
                max_size=4))
def test_every_cut_drawing_gives_the_closed_value(braid, colors):
    # each component's outermost drawing, cut open and scaled by
    # v^a [a+1], against the uncut contraction of the nested drawing
    d = closure_of_braid(*braid)
    assert set(d.cuts) == set(range(d.component_count))
    cs = tuple(colors[:d.component_count])
    closed = unpack(uwrt.tangles._contract(d, cs))
    for c in d.cuts:
        a = cs[c]
        assert unpack(uwrt.tangles._contract(d, cs, c)) * v_pow(a) \
            * qnum(a + 1) == closed, c


@settings(deadline=None, max_examples=40)
@given(braids(4, min_strands=1, max_letters=6),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4,
                max_size=4))
def test_either_end_of_every_cut_gives_the_closed_value(braid, colors):
    # the cut tangle is a scalar on V_a, so the element from (a, a) is
    # the one from (0, 0), both under the cut's weight u^(-2a): each end
    # forced on every cut, against the uncut contraction
    d = closure_of_braid(*braid)
    cs = tuple(colors[:d.component_count])
    closed = unpack(uwrt.tangles._contract(d, cs))
    for e in (0, 1):
        with mock.patch.object(uwrt.tangles, "_cut_plan",
                               lambda d, c: (0, e)):
            for c in d.cuts:
                a = cs[c]
                assert unpack(uwrt.tangles._contract(d, cs, c)) \
                    * v_pow(a) * qnum(a + 1) == closed, (c, e)


def test_closure_of_braid_checks_its_letters():
    # a position off 1..strands-1 or a sign other than +-1 is refused
    # before any strand is moved, and the message names the letter
    for strands, word, letter in ((3, [(3, 1)], (3, 1)),
                                  (3, [(0, 1)], (0, 1)),
                                  (3, [(1, 2)], (1, 2)),
                                  (2, [(1, 0)], (1, 0)),
                                  (3, [(1, 1), (2, -1), (2, 3)], (2, 3)),
                                  (1, [(1, 1)], (1, 1)),
                                  # a word or letter of the wrong shape,
                                  # refused before any letter is unpacked
                                  (2, [1], 1), (2, [(1, 1, 1)], (1, 1, 1)),
                                  (2, [[1]], [1]), (2, None, None)):
        with pytest.raises(InputError, match=re.escape(str(letter))):
            closure_of_braid(strands, word)
    assert closure_of_braid(2, [[1, -1]]) == closure_of_braid(2, [(1, -1)])
    # no strand at all is an empty diagram, also an input error
    for strands in (0, -1):
        with pytest.raises(InputError):
            closure_of_braid(strands, [])
    # only ints, as in the framings schema: no float and no bool
    for strands, word in ((3, [(1.0, 1)]), (2.0, [(1, 1)]), (2, [(1, True)]),
                          (2, [(True, 1)]), (2.0, [])):
        with pytest.raises(InputError):
            closure_of_braid(strands, word)


def test_pack_refuses_a_coefficient_no_digit_holds():
    # 2^64 + 5 would wrap into its neighbour and decode as 5, 8
    with pytest.raises(DomainError):
        pack(LaurentU.from_q_coeffs(0, [2 ** 64 + 5, 7]))
    # the range that unpack accepts, and not one past it
    edge = uwrt.tangles._HALF - uwrt.tangles._GUARD
    for c in (edge, -edge):
        assert unpack(pack(u_pow(2, c))) == u_pow(2, c)
        with pytest.raises(DomainError):
            pack(u_pow(2, c + (1 if c > 0 else -1)))


@settings(deadline=None, max_examples=40)
@given(braids(4, min_strands=1, max_letters=6),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4,
                max_size=4))
def test_contraction_is_the_same_at_every_split(braid, colors):
    # the forward half ends and the transposed backward half starts at
    # any step, from all forward (the one-ended contraction) to all
    # backward, cut or uncut: the value is always colored_jones
    d = closure_of_braid(*braid)
    cs = tuple(colors[:d.component_count])
    want = colored_jones(d, cs)
    for cut in (None, *d.cuts):
        steps = d.steps if cut is None else d.cuts[cut]
        scale = 1 if cut is None else v_pow(cs[cut]) * qnum(cs[cut] + 1)
        for h in range(len(steps) + 1):
            with mock.patch.object(uwrt.tangles, "_split",
                                   lambda s: min(h, len(s))):
                value = unpack(uwrt.tangles._contract(d, cs, cut))
            assert value * scale == want, (cut, h)


def _step_slices(steps):
    """Slices drawing a step sequence, one non-identity event a slice."""
    interface, slices = [], []
    for p, kind, *rest in steps:
        left, right = interface[:p], interface[p + 2 * (kind != "cup"):]
        if kind == "cup":
            c, s = rest
            pair = [(c, "u"), (c, "d")] if s else [(c, "d"), (c, "u")]
            event = ("cup", c, bool(s))
        elif kind == "cap":
            pair, event = [], ("cap", rest[0])
        else:
            pair, event = [(rest[2], "d"), (rest[1], "d")], ("x", *rest)
        slices.append([("id", c, o) for c, o in left] + [event]
                      + [("id", c, o) for c, o in right])
        interface = left + pair + right
    return slices


@settings(deadline=None, max_examples=60)
@given(braids(5, min_strands=1, max_letters=8))
def test_a_cut_record_lies_between_the_first_cup_and_the_last_cap(braid):
    # each cut record of a braid closure, between a plain cup of its
    # component and a final cap of that component over (down, up), is a
    # closed drawing of the same link whose own cut is that record: the
    # cap closes the cup's up strand, and it is the last step
    d = closure_of_braid(*braid)
    assert d.cuts[0] == d.steps[1:-1]
    for c, record in d.cuts.items():
        steps = ((0, "cup", c, 0), *record, (0, "cap", c, -2))
        drawn = uwrt.tangles.Diagram(_step_slices(steps))
        assert drawn.steps == steps
        assert drawn.cuts == {c: record}
        assert (drawn.writhes, drawn.crossing_sums) == \
            (d.writhes, d.crossing_sums)
    text = parse_diagram(BUILTIN_TEXT["hopf"])
    assert text.cuts == {0: text.steps[1:-1]}


def _strip(strands, word, gone):
    """(strands, word) of the braid with the strands of the components in
    gone deleted: their letters go and every other letter moves left past
    the deleted strands to its left.  Components are numbered as in
    closure_of_braid, by the smallest top position of their cycle of the
    braid permutation, so the others keep their order."""
    after = list(range(strands))
    for p, _ in word:
        after[p - 1], after[p] = after[p], after[p - 1]
    low = list(range(strands))
    for _ in range(strands):
        for k, top in enumerate(after):
            low[top] = low[k] = min(low[top], low[k])
    dead = [sorted(set(low)).index(x) in gone for x in low]
    current, kept = list(range(strands)), []
    for p, sign in word:
        a, b = current[p - 1], current[p]
        if not (dead[a] or dead[b]):
            kept.append((p - sum(dead[i] for i in current[:p - 1]), sign))
        current[p - 1], current[p] = b, a
    return strands - sum(dead), kept


@settings(deadline=None, max_examples=100)
@given(braids(4, min_strands=1, max_letters=7),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4,
                max_size=4),
       st.integers(min_value=0, max_value=3))
def test_blank_components_are_deleted_strands(braid, colors, zero):
    # V_0 is the trivial module, so a component of colour 0 counts as
    # absent: the value is that of the braid with its strands deleted,
    # on the other colours, and 1 when no strand is left
    d = closure_of_braid(*braid)
    cs = colors[:d.component_count]
    cs[zero % len(cs)] = 0
    strands, word = _strip(*braid, {c for c, n in enumerate(cs) if not n})
    rest = tuple(n for n in cs if n)
    want = colored_jones(closure_of_braid(strands, word), rest) \
        if strands else ONE
    assert colored_jones(d, tuple(cs)) == want, (braid, cs)


def test_borromean_rings_less_a_blank_component_are_an_unlink():
    d = builtin("borromean")
    for a, b in product(range(7), repeat=2):
        for cs in ((a, b, 0), (a, 0, b), (0, a, b)):
            assert colored_jones(d, cs) == qnum(a + 1) * qnum(b + 1), cs


def test_sums_refuse_a_linked_diagram_before_packing(monkeypatch):
    # the Hopf closure: the residue argument needs zero linking numbers,
    # so both sums name the components before any contraction instead of
    # failing in _padd
    def fail(*args):
        raise AssertionError("contraction started")

    monkeypatch.setattr(uwrt.tangles, "_contract", fail)
    uwrt.tangles._closed.cache_clear()
    hopf = closure_of_braid(2, [(1, 1), (1, 1)])
    for call in (lambda: pprime_table(hopf, 2),
                 lambda: colour_sum(hopf, (1, -1), 4)):
        with pytest.raises(NotAdmissible, match="components 1 and 2"):
            call()


@settings(deadline=None, max_examples=25)
@given(braids(3), st.integers(min_value=1, max_value=3))
def test_pprime_table_matches_the_laurent_sum(braid, N):
    # the packed table against its definition in LaurentU arithmetic:
    # prod_i p_in_v(k_i)[a_i] * colored_jones(d, a) * prod_i
    # theta_(a_i)^(-w_i), summed over the V-colours a; 1-3 components,
    # any writhe, zero linking numbers (the table's domain)
    d = closure_of_braid(*braid)
    lk = linking_data(d)
    assume(all(lk[i][j] == 0 for i in range(len(lk)) for j in range(i)))
    table = pprime_table(d, N)
    ranks = list(product(range(N), repeat=d.component_count))
    assert set(table) == set(ranks)
    for k in ranks:
        want = ZERO
        for a in ranks:
            term = colored_jones(d, a)
            for ki, ai, w in zip(k, a, d.writhes):
                term = term * p_in_v(ki).get(ai, ZERO) * twist_eigen(ai, -w)
            want = want + term
        assert table[k] == want, k


@settings(deadline=None, max_examples=25)
@given(braids(3), st.integers(min_value=2, max_value=5))
def test_colour_sum_matches_the_laurent_sum(braid, r):
    # the packed lane sum against wrt's colour sum in LaurentU arithmetic:
    # prod_i [c_i+1] theta_(c_i)^(f_i-w_i) * colored_jones(d, c) over the
    # colours c < r - 1, for every +-1 framing; any writhe, zero linking
    # numbers
    d = closure_of_braid(*braid)
    lk = linking_data(d)
    assume(all(lk[i][j] == 0 for i in range(len(lk)) for j in range(i)))
    colours = list(product(range(r - 1), repeat=d.component_count))
    for fr in product((1, -1), repeat=d.component_count):
        want = ZERO
        for c in colours:
            term = colored_jones(d, c)
            for ci, f, w in zip(c, fr, d.writhes):
                term = term * qnum(ci + 1) * twist_eigen(ci, f - w)
            want = want + term
        assert colour_sum(d, fr, r) == want, fr


def test_packed_blocks_match_the_laurent_blocks():
    # the blocks built from packed q-factors against pack of each term of
    # reps.braiding, on every colour pair <= 8 and both signs: the same
    # pairs and, for each, the same terms in order, offsets and digits
    for m, n, s in product(range(9), range(9), (1, -1)):
        want = {pair: tuple(((j2, i2),) + pack(c) for j2, i2, c in terms)
                for pair, terms in braiding(m, n, s).items()}
        block, back = uwrt.tangles._packed_block(m, n, s)
        assert block == want, (m, n, s)
        # the backward block reads each term from its output pair
        transposed = {}
        for pair, terms in want.items():
            for out, off, mag in terms:
                transposed.setdefault(out, set()).add((pair, off, mag))
        assert {out: set(terms) for out, terms in back.items()} == \
            transposed, (m, n, s)


def test_packed_binomials_are_the_q_binomials():
    # the q-Pascal rule against pack of the cyclotomic product, for every
    # binomial of a block under the colour cap, past the blocks above
    for b in range(42):
        for t in range(b + 1):
            assert uwrt.tangles.pbinom(b, t) == pack(qbinom_q(b, t))[1]


def test_block_bound_refuses_a_block_before_building_it(monkeypatch):
    tangles = uwrt.tangles
    # C(b, t) 2^t bounds every coefficient of every term to colour 8
    for m, n, s in product(range(9), range(9), (1, -1)):
        for *_, b, a, t in braiding_terms(m, n, s):
            c = qbinom_q(b, t) * falling_q(a, t)
            assert max(map(abs, c.coeffs)) <= comb(b, t) << t
    # and first passes the digit's edge in the colour-42 blocks
    edge = tangles._HALF - tangles._GUARD
    assert max(comb(b, t) << t for b in range(42)
               for t in range(b + 1)) <= edge

    def fail(*args):
        raise AssertionError("packed factor formed")

    build = tangles._packed_block.__wrapped__
    monkeypatch.setattr(tangles, "pfall", fail)
    monkeypatch.setattr(tangles, "pbinom", fail)
    for s in (1, -1):
        with pytest.raises(DomainError, match="colours 42, 42"):
            build(42, 42, s)
    # with the edge at 1000, a colour-8 block (C(8, 4) 2^4 = 1120) is
    # refused before any factor exists, and a colour-4 one is not
    monkeypatch.undo()
    want = tangles._packed_block(4, 4, 1)
    monkeypatch.setattr(tangles, "_GUARD", tangles._HALF - 1000)
    assert build(4, 4, 1) == want
    monkeypatch.setattr(tangles, "pfall", fail)
    monkeypatch.setattr(tangles, "pbinom", fail)
    for s in (1, -1):
        with pytest.raises(DomainError, match="colours 8, 8"):
            build(8, 8, s)


def test_sums_refuse_the_block_cap_at_the_first_contraction(monkeypatch):
    # the colours run from the top, so the first contraction asks for the
    # largest braiding block, and one past the digit cap is refused
    # before any other colour is contracted
    calls = []

    def recording(d, colors, cut=None):
        calls.append(colors)
        return contract(d, colors, cut)

    contract = uwrt.tangles._contract
    monkeypatch.setattr(uwrt.tangles, "_contract", recording)
    d = builtin("trefoil")
    with pytest.raises(DomainError, match="colours 42, 42"):
        colour_sum(d, (-1,), 44)
    assert calls == [(42,)]
    calls.clear()
    with pytest.raises(DomainError, match="colours 43, 43"):
        pprime_table(d, 44)
    assert calls == [(43,)]


def test_closed_pairs_are_canonical():
    # cancelling low digits leave zeros that _padd keeps, and where they
    # appear depends on the split; _closed strips them, so every split
    # gives pack of the value, on a conjugated Borromean word (where the
    # raw pairs differ) at colours <= 3
    d = closure_of_braid(3, [(1, 1), (1, 1), (2, -1), (1, 1), (2, -1),
                             (1, 1), (2, -1), (1, -1)])
    steps = max(map(len, d.cuts.values()))
    for cs in product(range(4), repeat=3):
        pairs = set()
        for h in range(steps + 1):
            uwrt.tangles._closed.cache_clear()
            with mock.patch.object(uwrt.tangles, "_split",
                                   lambda s: min(h, len(s))):
                pairs.add(uwrt.tangles._closed(d, cs))
        (value,) = pairs
        assert value == pack(unpack(value)), cs


@settings(deadline=None, max_examples=40)
@given(braids(4, min_strands=1, max_letters=6),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4,
                max_size=4))
def test_closed_pairs_are_canonical_on_any_closure(braid, colors):
    d = closure_of_braid(*braid)
    cs = tuple(colors[:d.component_count])
    uwrt.tangles._closed.cache_clear()
    value = uwrt.tangles._closed(d, cs)
    assert value == pack(unpack(value))
    assert not value[1] or value[1] & uwrt.tangles._MASK


def _decode_by_digit(value):
    """The reference decoder: one digit at a time off the bottom of the
    magnitude, each a shift of the whole integer ({u-exponent: digit})."""
    tangles = uwrt.tangles
    e, m = value
    coeffs = {}
    while m:
        d = m & ((1 << tangles._BITS) - 1)
        if d >= tangles._HALF:
            d -= 1 << tangles._BITS
        if abs(d) > tangles._HALF - tangles._GUARD:
            raise DomainError("packed coefficient near digit boundary")
        coeffs[e] = d
        e += 4
        m = (m - d) >> tangles._BITS
    return coeffs


def _edge():
    return uwrt.tangles._HALF - uwrt.tangles._GUARD


digit_lists = st.lists(st.one_of(
    st.integers(min_value=-99, max_value=99),
    st.sampled_from(["edge", "-edge", "past", "-past", "half", "-half"]),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)),
    max_size=12)


@settings(deadline=None, max_examples=300)
@given(shifts, digit_lists)
def test_decoder_matches_the_digit_by_digit_loop(s, digits):
    # digits at the edge +-(HALF - GUARD) decode; one past it, or at
    # -HALF, raises DomainError in both decoders
    edge = _edge()
    named = {"edge": edge, "-edge": -edge, "past": edge + 1,
             "-past": -edge - 1, "half": uwrt.tangles._HALF - 1,
             "-half": -uwrt.tangles._HALF}
    digits = [named.get(d, d) for d in digits]
    mag = sum(d << (64 * k) for k, d in enumerate(digits))
    if any(abs(d) > edge for d in digits):
        with pytest.raises(DomainError):
            _decode_by_digit((s, mag))
        with pytest.raises(DomainError):
            unpack((s, mag))
        return
    assert unpack((s, mag)) == from_dict(_decode_by_digit((s, mag)))
    assert unpack((s, mag)) == sum((u_pow(s + 4 * k, d)
                                    for k, d in enumerate(digits)), ZERO)
    # and pack matches the shifted sum of its digits, the reference encoder
    lo, run = unpack((s, mag)).q_run()
    assert pack(unpack((s, mag))) == (
        lo, sum(c << (64 * k) for k, c in enumerate(run)))


def test_large_unknot_matches_the_closed_form():
    # 20,001 packed digits: the decoder is linear in their number, and
    # the encoder in the 40,001 of a round trip
    assert colored_jones(builtin("unknot"), (20000,)) == qnum(20001)
    assert unpack(pack(qnum(40001))) == qnum(40001)
