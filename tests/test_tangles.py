"""Sliced diagrams: parsing, validation, linking data, the contraction
engine and its Kronecker packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwrt.tangles
from uwrt.errors import (ColorCountMismatch, DiagramSyntaxError, DomainError,
                         InterfaceMismatch, OpenDiagram, UnknownName,
                         UnsupportedCrossing)
from uwrt.laurent import LaurentU, q_pow, qnum, u_pow
from uwrt.reps import twist_eigen
from uwrt.tangles import (builtin, closure_of_braid, colored_jones,
                          linking_data, pack, parse_diagram, unpack, _padd,
                          _pmul)

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
        (q_pow(k) for k in range(-4, 5)), LaurentU.zero())
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


def test_color_count_mismatch():
    with pytest.raises(ColorCountMismatch):
        colored_jones(builtin("hopf"), (1,))


def test_integrality_check_survives_optimize(monkeypatch):
    # an odd power of u on an even-framed diagram must raise, not assert
    monkeypatch.setattr(uwrt.tangles, "_jones_cache", {})
    monkeypatch.setattr(uwrt.tangles, "_contract",
                        lambda d, colors, cut=False: u_pow(1))
    with pytest.raises(DomainError):
        colored_jones(builtin("hopf"), (1, 1))


def test_unsupported_crossing():
    d = parse_diagram("U'(1)\nX+(1,1)\nA(1)\n")
    with pytest.raises(UnsupportedCrossing):
        colored_jones(d, (1,))


def test_unknown_builtin():
    with pytest.raises(UnknownName):
        builtin("figure-eight")


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


def braids(max_strands):
    """(strands, word) with 2..max_strands strands and up to 5 letters."""
    return st.integers(min_value=2, max_value=max_strands).flatmap(
        lambda strands: st.tuples(
            st.just(strands),
            st.lists(st.tuples(
                st.integers(min_value=1, max_value=strands - 1),
                st.sampled_from((1, -1))), max_size=5)))


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
    assert _closure_value(strands, mirror, color) == value.conj()
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
        assert colored_jones(d, cs) == uwrt.tangles._contract(d, cs)
