"""Framed link diagrams as sliced words of fundamental tangles.

A diagram is a list of slices read top to bottom; each slice is a list
of events drawn left to right:

    |c^  |c_    identity strand of component c, oriented up / down
    U(c)        cup creating a (down, up) pair of component-c strands
    U'(c)       cup creating an (up, down) pair
    A(c)        cap closing two adjacent component-c strands
    X+(a,b)     positive crossing of components a and b
    X-(a,b)     negative crossing

Strand interfaces between consecutive slices must match in count,
component and orientation; the whole word must be closed.  Crossings
are evaluated only between two downward-oriented strands: every link
used here is presented as a nested closure of a braid, which needs no
other crossing type.

The contraction engine keeps a sparse state vector over the current
interface, keyed by one weight index per strand, and applies the
non-identity events one at a time.  Each rewrites only the indices at
its own position: its position in the slice, shifted by the strands
that the cups and caps to its left in the same slice have added or
removed.  Identity strands cost nothing.

Coefficients are Laurent polynomials in u packed into big integers with
one balanced 64-bit digit per q-step, q = u^4 (Kronecker substitution),
so that polynomial multiplication rides on native bigint
multiplication.  A value whose u-exponents span several residues mod 4
keeps one q-step part per residue.  Decoding is exact whenever the
decoded coefficients fit in a digit; the decoder raises OverflowError
otherwise.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import (ColorCountMismatch, DiagramSyntaxError, DomainError,
                     InputError, InterfaceMismatch, OpenDiagram, UnknownName,
                     UnsupportedCrossing)
from .laurent import LaurentU, qnum, v_pow
from .reps import braiding

# -- packed Laurent coefficients ------------------------------------------
#
# A packed value is a pair (offset, mag) with one balanced base-2^64 digit
# of mag per q-step: digit k is the coefficient of u^(offset + 4k).  Every
# engine and surgery-sum value checked is u^s times a polynomial in q, but
# nothing relies on it: a value spanning several residues mod 4 gets a
# _Lanes mag, whose lane r packs the q-steps of u^(offset + r).  _Lanes
# multiplies and tests for zero like an int, so the engine's inline
# products need no branch.  Packing is a ring map, so decoding is exact
# whenever the decoded coefficients fit in a digit, however large the
# intermediate digits grow; sums spanning several residues are formed on
# decoded values, so they too must fit.  unpack raises OverflowError near
# the digit boundary.

_BITS = 64
_BASE = 1 << _BITS
_HALF = 1 << (_BITS - 1)
_MASK = _BASE - 1
_GUARD = 1 << (_BITS - 8)

PACKED_ZERO = (0, 0)
PACKED_ONE = (0, 1)


class _Lanes:
    """Mixed-residue magnitude: lanes[r] packs u^(offset + r + 4k)."""

    __slots__ = ("lanes",)

    def __init__(self, lanes):
        self.lanes = tuple(lanes)

    def __bool__(self):
        return any(self.lanes)

    def __mul__(self, other):
        if not isinstance(other, _Lanes):
            return _Lanes(m * other for m in self.lanes)
        out = [0] * 4
        for r, a in enumerate(self.lanes):
            for s, b in enumerate(other.lanes):
                # u^(r + s) with r + s >= 4 carries a q: one digit up
                out[(r + s) % 4] += (a * b) << (_BITS * ((r + s) // 4))
        return _Lanes(out)

    __rmul__ = __mul__


def pack(x):
    lanes = [sum(c << (_BITS * k) for k, c in enumerate(x.coeffs[r::4]))
             for r in range(4)]
    # lane 0 holds the lowest coefficient, which is nonzero unless x = 0
    return (x.min, _Lanes(lanes) if any(lanes[1:]) else lanes[0])


def unpack(value):
    offset, mag = value
    coeffs = {}
    for r, m in enumerate(mag.lanes if isinstance(mag, _Lanes) else (mag,)):
        e = offset + r
        while m:
            d = m & _MASK
            if d >= _HALF:
                d -= _BASE
            if abs(d) > _HALF - _GUARD:
                raise OverflowError("packed coefficient near digit boundary")
            coeffs[e] = d
            e += 4
            m = (m - d) >> _BITS
    return LaurentU.from_dict(coeffs)


def _padd(a, b):
    oa, ma = a
    ob, mb = b
    if not ma:
        return b
    if not mb:
        return a
    if (ob - oa) % 4 or type(ma) is not int or type(mb) is not int:
        return pack(unpack(a) + unpack(b))
    if oa <= ob:
        return (oa, ma + (mb << (_BITS * ((ob - oa) // 4))))
    return (ob, mb + (ma << (_BITS * ((oa - ob) // 4))))


def _pmul(a, b):
    return (a[0] + b[0], a[1] * b[1])


# -- diagram structure ------------------------------------------------------

_ARITY = {"id": 1, "cup": 0, "cap": 2, "x": 2}


class Diagram:
    """A validated closed sliced diagram.

    Events are tuples: ("id", c, o), ("cup", c, flipped), ("cap", c),
    ("x", sign, a, b) with 0-based component ids and o in "du".
    crossing_sums[a][b] is the signed number of crossings between
    components a and b: twice their linking number for a != b, the
    self-writhe of a on the diagonal.
    """

    __slots__ = ("slices", "component_count", "crossing_sums", "name")

    def __init__(self, slices, name=None):
        self.slices = tuple(tuple(s) for s in slices)
        self.name = name
        self.component_count, self.crossing_sums = _validate(self.slices)

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.slices == other.slices

    def __hash__(self):
        return hash(self.slices)

    def __repr__(self):
        tag = self.name or f"{self.component_count} components"
        return f"Diagram({tag}, {len(self.slices)} slices)"


def _validate(slices):
    interface = []        # list of (comp, orient, segment)
    seg_count = 0
    parent = {}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    comps = set()
    loops = {}
    signed = {}
    for row, events in enumerate(slices):
        pos = 0
        out = []
        for ev in events:
            kind = ev[0]
            need = _ARITY[kind]
            if pos + need > len(interface):
                raise InterfaceMismatch(
                    f"slice {row + 1} consumes more strands than available")
            below = interface[pos:pos + need]
            pos += need
            if kind == "id":
                _, c, o = ev
                bc, bo, seg = below[0]
                if (bc, bo) != (c, o):
                    raise InterfaceMismatch(
                        f"slice {row + 1}: identity strand expects "
                        f"component {c + 1} {o}, found {bc + 1} {bo}")
                out.append((c, o, seg))
            elif kind == "cup":
                _, c, flipped = ev
                s1, s2 = seg_count, seg_count + 1
                seg_count += 2
                parent[s1] = s1
                parent[s2] = s1
                comps.add(c)
                if flipped:
                    out.append((c, "u", s1))
                    out.append((c, "d", s2))
                else:
                    out.append((c, "d", s1))
                    out.append((c, "u", s2))
            elif kind == "cap":
                _, c = ev
                (c1, o1, sg1), (c2, o2, sg2) = below
                if c1 != c or c2 != c:
                    raise InterfaceMismatch(
                        f"slice {row + 1}: cap of component {c + 1} over "
                        f"components {c1 + 1}, {c2 + 1}")
                if {o1, o2} != {"d", "u"}:
                    raise InterfaceMismatch(
                        f"slice {row + 1}: cap needs opposite orientations")
                r1, r2 = find(sg1), find(sg2)
                if r1 == r2:
                    loops[c] = loops.get(c, 0) + 1
                else:
                    parent[r2] = r1
            else:
                _, sign, a, b = ev
                (c1, o1, sg1), (c2, o2, sg2) = below
                if (c1, c2) != (a, b):
                    raise InterfaceMismatch(
                        f"slice {row + 1}: crossing labels ({a + 1},{b + 1}) "
                        f"do not match strands ({c1 + 1},{c2 + 1})")
                s = sign if o1 == o2 else -sign
                signed[a, b] = signed.get((a, b), 0) + s
                if a != b:
                    signed[b, a] = signed.get((b, a), 0) + s
                out.append((c2, o2, sg2))
                out.append((c1, o1, sg1))
        if pos != len(interface):
            raise InterfaceMismatch(
                f"slice {row + 1} leaves {len(interface) - pos} strands "
                "unconsumed")
        interface = out
    if interface:
        raise OpenDiagram(f"{len(interface)} strands open at the bottom")
    if not comps:
        raise OpenDiagram("empty diagram")
    m = max(comps) + 1
    if comps != set(range(m)):
        raise InterfaceMismatch("component ids are not contiguous from 1")
    for c in range(m):
        if loops.get(c, 0) != 1:
            raise InterfaceMismatch(
                f"component {c + 1} forms {loops.get(c, 0)} loops, "
                "expected a single closed loop")
    return m, tuple(tuple(signed.get((a, b), 0) for b in range(m))
                    for a in range(m))


# -- parser -----------------------------------------------------------------

_TOKEN = re.compile(
    r"\|(\d+)(\^|_)|U('?)\((\d+)\)|A\((\d+)\)|X([+-])\((\d+),(\d+)\)")


def parse_diagram(text):
    slices = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        if not stripped.strip():
            continue
        events = []
        col = 0
        for raw in stripped.split(" "):
            if not raw:
                col += 1
                continue
            m = _TOKEN.fullmatch(raw)
            if m is None:
                raise DiagramSyntaxError(f"bad event {raw!r}",
                                         lineno, col + 1)
            if m.group(1) is not None:
                c = int(m.group(1))
                events.append(("id", c - 1, "u" if m.group(2) == "^" else "d"))
            elif m.group(4) is not None:
                events.append(("cup", int(m.group(4)) - 1, m.group(3) == "'"))
            elif m.group(5) is not None:
                events.append(("cap", int(m.group(5)) - 1))
            else:
                sign = 1 if m.group(6) == "+" else -1
                events.append(("x", sign, int(m.group(7)) - 1,
                               int(m.group(8)) - 1))
            col += len(raw) + 1
        slices.append(events)
    if not slices:
        raise DiagramSyntaxError("no slices in input")
    return Diagram(slices)


# -- linking data -----------------------------------------------------------


def linking_data(d):
    """Linking matrix with self-writhes on the diagonal."""
    matrix = [list(row) for row in d.crossing_sums]
    for i, row in enumerate(matrix):
        for j, s in enumerate(row):
            if i != j:
                row[j], rem = divmod(s, 2)
                if rem:
                    raise InterfaceMismatch(
                        "odd mixed crossing count between components "
                        f"{i + 1} and {j + 1}")
    return matrix


# -- contraction engine -----------------------------------------------------


@lru_cache(maxsize=None)
def _packed_block(m, n, sign):
    block = braiding(m, n, sign)
    return {key: tuple(((j2, i2),) + pack(c) for (j2, i2, c) in terms)
            for key, terms in block.entries.items()}


def _contract(d, colors, cut=False):
    """Contract the diagram bottom-up, one non-identity event at a time.

    The slice word is compiled into steps (p, width, block): the step
    replaces the width indices at position p of each state key by each
    (pair, offset, mag) term that block lists for them.  A crossing maps
    (i, j) to its output pairs (j2, i2), a cup maps () to every (i, i),
    and a cap maps (i, i) to () and drops the other keys.  Cup and cap
    weights are pure u-shifts.  The events of a slice act on disjoint
    strands, so they apply one after another, left to right; p is the
    event's position in the interface of that moment: its position in
    the slice plus the net strands that the cups (+2) and caps (-2) to
    its left in the same slice have added.  Identity strands cost
    nothing.

    With cut=True the first slice must be a single plain cup; that cup
    is removed, the two strands it created become a fixed (v~_0, v~^0)
    boundary, and the result is the (0,0) matrix element of the cut-open
    tangle operator.  Since the operator on an irreducible color is a
    scalar, the closed value is that element times [n+1]; the caller is
    responsible for the factor.  This avoids carrying one spectator
    index through the whole contraction.
    """
    slices = d.slices
    if cut:
        state = {(0, 0): PACKED_ONE}
        c = slices[0][0][1]
        interface = [(c, "d"), (c, "u")]
        slices = slices[1:]
    else:
        state = {(): PACKED_ONE}
        interface = []
    steps = []
    for events in slices:
        pos = shift = 0
        out = []
        for ev in events:
            kind = ev[0]
            below = interface[pos:pos + _ARITY[kind]]
            p = pos + shift
            pos += _ARITY[kind]
            if kind == "id":
                out.append(below[0])
            elif kind == "x":
                _, sign, a, b = ev
                if below != [(a, "d"), (b, "d")]:
                    raise UnsupportedCrossing(
                        "crossings are evaluated only between two "
                        "downward strands")
                steps.append((p, 2, _packed_block(colors[a], colors[b],
                                                  sign)))
                out += [(b, "d"), (a, "d")]
            else:
                # index i carries u^(s(n - 2i)): kappa on a flipped cup,
                # its inverse on a cap closing (d, u), 1 otherwise
                c = ev[1]
                n = colors[c]
                if kind == "cup":
                    s = 2 if ev[2] else 0
                    terms = tuple(((i, i), s * (n - 2 * i), 1)
                                  for i in range(n + 1))
                    steps.append((p, 0, {(): terms}))
                    pair = [(c, "d"), (c, "u")]
                    out += pair[::-1] if ev[2] else pair
                    shift += 2
                else:
                    s = -2 if below[0][1] == "d" else 0
                    steps.append((p, 2, {(i, i): (((), s * (n - 2 * i), 1),)
                                         for i in range(n + 1)}))
                    shift -= 2
        interface = out

    for p, width, block in steps:
        q = p + width
        new = {}
        for key, (o, mag) in state.items():
            head, tail = key[:p], key[q:]
            for pair, off, m in block.get(key[p:q], ()):
                k = head + pair + tail
                v = (o + off, mag * m)
                old = new.get(k)
                new[k] = v if old is None else _padd(old, v)
        # only merges can cancel: a cup's terms land on distinct keys
        state = {k: v for k, v in new.items() if v[1]} if width else new
    return unpack(state.get((), PACKED_ZERO))


_jones_cache = {}


def colored_jones(d, colors):
    """Exact colored Jones value of a closed diagram with V-weights.

    Includes the blackboard framing contribution of the diagram as
    drawn (kinks count).
    """
    colors = tuple(colors)
    if len(colors) != d.component_count:
        raise ColorCountMismatch(
            f"{d.component_count} components, {len(colors)} colors")
    if any(c < 0 for c in colors):
        raise InputError(f"colors must be >= 0, got {colors}")
    cache_key = (d.slices, colors)
    hit = _jones_cache.get(cache_key)
    if hit is not None:
        return hit
    first = d.slices[0]
    if len(first) == 1 and first[0][0] == "cup" and not first[0][2]:
        # Cut the outermost component open: the cut tangle acts on the
        # irreducible V_a as a scalar, so one matrix element determines
        # the closed value (the v^a undoes the kappa weight sitting at
        # the quantum-trace cap, [a+1] restores the trace).
        a = colors[first[0][1]]
        element = _contract(d, colors, cut=True)
        value = element * v_pow(a) * qnum(a + 1)
    else:
        value = _contract(d, colors)
    writhes = [row[i] for i, row in enumerate(d.crossing_sums)]
    if all(w % 2 == 0 for w in writhes) and not value.is_in_v():
        raise DomainError("even-framed value left Z[v, 1/v]")
    _jones_cache[cache_key] = value
    return value


# -- builtin diagrams -------------------------------------------------------


def closure_of_braid(strands, word, name=None):
    """Nested closure of a braid on the given number of strands.

    word is a sequence of (position, sign) pairs, position 1-based as
    sigma_i.  Components are the cycles of the braid permutation,
    numbered by their smallest top position.
    """
    perm = list(range(strands))
    for p, _ in word:
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    comp_of = [None] * strands
    m = 0
    for start in range(strands):
        if comp_of[start] is not None:
            continue
        j = start
        while comp_of[j] is None:
            comp_of[j] = m
            j = perm.index(j)
        m += 1
    slices = []
    for k in range(strands):
        row = [("id", comp_of[i], "d") for i in range(k)]
        row.append(("cup", comp_of[k], False))
        row += [("id", comp_of[i], "u") for i in range(k - 1, -1, -1)]
        slices.append(row)
    current = list(range(strands))
    for p, sign in word:
        row = []
        for i in range(strands):
            if i == p - 1:
                row.append(("x", sign, comp_of[current[p - 1]],
                            comp_of[current[p]]))
            elif i != p:
                row.append(("id", comp_of[current[i]], "d"))
        row += [("id", comp_of[i], "u") for i in range(strands - 1, -1, -1)]
        slices.append(row)
        current[p - 1], current[p] = current[p], current[p - 1]
    for k in range(strands - 1, -1, -1):
        row = [("id", comp_of[current[i]], "d") for i in range(k)]
        row.append(("cap", comp_of[current[k]]))
        row += [("id", comp_of[i], "u") for i in range(k - 1, -1, -1)]
        slices.append(row)
    return Diagram(slices, name=name)


BUILTIN_NAMES = ("unknot", "unknot+1", "unknot-1", "hopf", "trefoil",
                 "borromean")


def builtin(name):
    if name == "unknot":
        return closure_of_braid(1, [], name=name)
    if name == "unknot+1":
        return closure_of_braid(2, [(1, 1)], name=name)
    if name == "unknot-1":
        return closure_of_braid(2, [(1, -1)], name=name)
    if name == "hopf":
        return closure_of_braid(2, [(1, -1), (1, -1)], name=name)
    if name == "trefoil":
        # the left-handed trefoil: the one arising from the Borromean
        # rings by -1-framed surgery on two components
        return closure_of_braid(2, [(1, -1), (1, -1), (1, -1)], name=name)
    if name == "borromean":
        return closure_of_braid(
            3, [(1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, -1)],
            name=name)
    raise UnknownName(name)
