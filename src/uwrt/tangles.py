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
component and orientation; the whole word must be closed.  A crossing
must join two downward-oriented strands, and any other is rejected
when the diagram is read: every link used here is presented as a
nested closure of a braid, which needs no other crossing type.

Validation walks the interface once and records each non-identity
event as a step at its position in the interface of that moment.  The
contraction engine keeps a sparse state vector over the current
interface, keyed by one weight index per strand, and applies the steps
one at a time; each rewrites only the indices at its own position.
Identity strands cost nothing.  The steps above the middle crossing
run forward from the top and the rest backward from the bottom, each
transposed (a crossing's block read from outputs to inputs, a cap as a
cup, a cup as a cap); the two vectors meet in one dot product, the same
matrix product associated differently.  _closed cuts the link open at
the outer cup of one component; only an arc on the outer face can be
cut, so a braid closure is also drawn with each component outermost.
The cut's up strand crosses nothing and is closed by the last step, a
cap over (down, up); the cut keeps the steps strictly between, and both
halves start from the key (e, e).  The cut tangle T is a scalar on V_a,
so <e|T|e> is the same for every e.  The cup weighs 1 and the cap
u^(-2a) q^e, so the closed value is u^(-2a) <e|T|e> (1 + q + ... + q^a):
_contract adds the u^(-2a), _closed the sum, and _cut_plan picks the
cheaper end e = 0 or a.

Strands of colour 0 cost nothing either.  V_0 has the one index 0, and
in reps.braiding_terms with m or n zero only t = 0 is left, whose
exponent +-(m - 2i)(n - 2j) vanishes: a crossing with a V_0 strand is
the swap (i, j) -> (j, i) with offset 0 and coefficient 1.  A V_0 cup or
cap inserts or closes (0, 0) with weight 1.  So _weighted drops these
steps and moves every other one left past the V_0 strands to its left.

Coefficients are Laurent polynomials in u packed into big integers with
one balanced 64-bit digit per q-step, q = u^4 (Kronecker substitution),
so that polynomial multiplication rides on native bigint multiplication.
A packed value is one pair (offset, int): it holds u^offset times a
Laurent polynomial in q, so every value packed must lie in one residue
class of u-exponents mod 4.  Decoding is exact whenever the decoded
coefficients fit in a digit; the decoder raises DomainError otherwise.
A crossing block is built packed from the terms s u^e [b choose t]_q
{a}_{q,t} of reps.braiding_terms and the cached packed factors pbinom (by
the q-Pascal rule) and pfall: u^e times a q-polynomial with constant
term +-1, one residue, offset e.

The engine's values have one residue by construction.  Let mu_s be the
color of strand s mod 2 and alpha_s its weight index mod 2, and put

    P(K) = sum over strands s left of t of mu_s alpha_t
           + sum over upward strands s of mu_s alpha_s      (mod 2).

Then every state entry at key K lies in u^(C + 2 P(K)) Z[q, 1/q], with C
fixed for the whole contraction.  By the exponent formula in
reps.braiding_terms, a crossing term on colors (m, n) has u-exponent
+-mn + 2 dP (mod 4), dP the change of P it makes; a cup or cap term has
exponent s(n - 2i) = sn (mod 4) and leaves P unchanged.  So the terms
merged at one key never mix residues, and _padd raises DomainError
instead of computing with a value that does.  The rule is
local to each term, so backward entries lie in u^(C' - 2P(K)) Z[q, 1/q]
and every term of the dot product in u^(C + C') Z[q, 1/q].

The closed value of an algebraically split diagram on V-colours a has
u-exponents sum_X 2(w + 1)a + w a^2 (mod 4) over its components X, w
the self-writhe of X and a its colour: the cup and cap events of X with
a nonzero shift (the invariant above, P = 0 at the empty key) count the
rotation number of X mod 2, which is w + 1 by Whitney's formula; each
self-crossing adds +-a^2 and mixed crossings 2 lk a_X a_Y = 0.  In
pprime_table, theta_a^(-w) = u^(-w a(a+2)) leaves 2a, and p_in_v(k)[a]
lies in u^(2(a+k)) Z[q, 1/q]: the term for V_a and P_k has residue 2k.
In colour_sum, wrt's weight [a+1] theta_a^(f-w) adds -2a + (f - w)
a(a+2), for f a(a+2) in all: 0 mod 4 for even a, -f for odd a, so each
lane a mod 2 lies in one residue; the lanes are added packed, one sum
per residue.  Both sums are _table_sum, one packed product per axis;
check_split refuses a nonzero linking number before any packing, and
_padd still raises DomainError if a residue ever mixed.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import combinations, product
from math import comb

from .errors import (ColorCountMismatch, DiagramSyntaxError, DomainError,
                     InputError, InterfaceMismatch, NotAdmissible,
                     OpenDiagram, UnknownName, UnsupportedCrossing)
from .laurent import ZERO, LaurentU, decode_run, encode_run, qnum
from .repring import p_in_v
from .reps import braiding_terms, twist_eigen

# -- packed Laurent coefficients ------------------------------------------
#
# Digit k of mag in a packed pair (offset, mag), in laurent's codec at 8
# bytes, is the coefficient of u^(offset + 4k) (module docstring).

_BITS = 64
_HALF = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1
_GUARD = 1 << (_BITS - 8)

PACKED_ZERO = (0, 0)
PACKED_ONE = (0, 1)


def pack(x):
    lo, run = x.q_run()
    if run and max(max(run), -min(run)) > _HALF - _GUARD:
        raise DomainError("coefficient too large for a packed digit")
    return (lo, encode_run(run, _BITS // 8))


def unpack(value):
    """The LaurentU of a packed value, its balanced digits decoded."""
    digits = decode_run(value[1], _BITS // 8)
    if max(digits) > _HALF - _GUARD or min(digits) < _GUARD - _HALF:
        raise DomainError("packed coefficient near digit boundary")
    return LaurentU(value[0], digits, 4)


def _padd(a, b):
    oa, ma = a
    ob, mb = b
    if not ma:
        return b
    if not mb:
        return a
    if (ob - oa) % 4:
        raise DomainError("sum of packed values in different residues mod 4")
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
    crossing_sums[a][b] is twice the linking number of components a != b
    (0 if a = b), writhes[a] the self-writhe (blackboard framing) of a.
    steps lists the non-identity events in contraction order, each at
    its interface position (see _validate).  cuts[c], the cut record of
    component c, holds the steps of a drawing strictly between the outer
    plain cup of c that opens it and the cap that closes the cup's up
    strand last: for the slices (see _validate), and for the drawings
    given (see closure_of_braid).  A Diagram equals and hashes as its
    slices, their hash computed once.
    """

    __slots__ = ("slices", "component_count", "crossing_sums", "writhes",
                 "steps", "cuts", "name", "_hash")

    def __init__(self, slices, name=None, cuts=()):
        self.slices = tuple(tuple(s) for s in slices)
        self._hash = hash(self.slices)
        self.name = name
        (self.component_count, self.crossing_sums, self.writhes,
         self.steps, cut) = _validate(self.slices)
        self.cuts = dict(cuts)
        if cut is not None:
            self.cuts[self.steps[0][2]] = cut

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.slices == other.slices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tag = self.name or f"{self.component_count} components"
        return f"Diagram({tag}, {len(self.slices)} slices)"


def _validate(slices):
    """(components, crossing sums, writhes, steps, cut) of a closed slice
    word; cut = steps[1:-1], the record (Diagram.cuts) of a lone plain
    cup in the first slice whose up strand the final step caps, else None.

    Each non-identity event becomes one step (p, kind, ...), p its
    position in the interface of that moment: the strands that the
    events to its left in the same slice put out.  A crossing is
    (p, "x", sign, a, b); a cup or cap is (p, kind, c, s), its index i
    carrying u^(s(n - 2i)) on colour n: s = 2 on a flipped cup (kappa),
    -2 on a cap closing (d, u) (its inverse), 0 otherwise.
    """
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
    steps, closes = [], False
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
            p = len(out)
            if kind == "id":
                _, c, o = ev
                bc, bo, _ = below[0]
                if (bc, bo) != (c, o):
                    raise InterfaceMismatch(
                        f"slice {row + 1}: identity strand expects "
                        f"component {c + 1} {o}, found {bc + 1} {bo}")
                out += below
            elif kind == "cup":
                _, c, flipped = ev
                parent[seg_count] = seg_count      # one arc, two ends
                pair = [(c, "d", seg_count), (c, "u", seg_count)]
                seg_count += 1
                comps.add(c)
                steps.append((p, "cup", c, 2 if flipped else 0))
                out += pair[::-1] if flipped else pair
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
                closes = (c, "u", 0) in below
                r1, r2 = find(sg1), find(sg2)
                if r1 == r2:
                    loops[c] = loops.get(c, 0) + 1
                else:
                    parent[r2] = r1
                steps.append((p, "cap", c, -2 if o1 == "d" else 0))
            else:
                _, sign, a, b = ev
                (c1, o1, _), (c2, o2, _) = below
                if (c1, c2) != (a, b):
                    raise InterfaceMismatch(
                        f"slice {row + 1}: crossing labels ({a + 1},{b + 1}) "
                        f"do not match strands ({c1 + 1},{c2 + 1})")
                if o1 != "d" or o2 != "d":
                    raise UnsupportedCrossing(
                        f"slice {row + 1}: crossings are evaluated only "
                        "between two downward strands")
                signed[a, b] = signed.get((a, b), 0) + sign
                if a != b:
                    signed[b, a] = signed.get((b, a), 0) + sign
                steps.append((p, "x", sign, a, b))
                out += below[::-1]
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
    writhes = tuple(signed.pop((c, c), 0) for c in range(m))
    sums = tuple(tuple(signed.get((a, b), 0) for b in range(m))
                 for a in range(m))
    steps = tuple(steps)
    lone = len(slices[0]) == 1 and not steps[0][3]
    return m, sums, writhes, steps, steps[1:-1] if closes and lone else None


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
            row[j], rem = divmod(s, 2)
            if rem:
                raise InterfaceMismatch(
                    "odd mixed crossing count between components "
                    f"{i + 1} and {j + 1}")
        row[i] = d.writhes[i]
    return matrix


def check_split(d):
    """NotAdmissible naming the first two components of d that link."""
    lk = linking_data(d)
    for i, j in combinations(range(d.component_count), 2):
        if lk[i][j] != 0:
            raise NotAdmissible(
                f"components {i + 1} and {j + 1} have linking number "
                f"{lk[i][j]}, expected an algebraically split link")


# -- contraction engine -----------------------------------------------------


@lru_cache(maxsize=None)
def pfall(a, t):
    """{a}_{q,t} packed: one factor q^(a-t+1) - 1 per new length."""
    return pfall(a, t - 1) * ((1 << (_BITS * (a - t + 1))) - 1) if t else 1


@lru_cache(maxsize=None)
def pbinom(b, t):
    """[b choose t]_q packed, 0 <= t <= b, by the q-Pascal rule [b, t] =
    [b-1, t-1] + q^t [b-1, t]."""
    if t in (0, b):
        return 1
    return pbinom(b - 1, t - 1) + (pbinom(b - 1, t) << _BITS * t)


@lru_cache(maxsize=None)
def _packed_block(m, n, sign):
    """(forward, backward): reps.braiding(m, n, sign) packed (module
    docstring), input pair -> terms, and read backward, output pair ->
    terms over the inputs.  C(b, t) 2^t bounds a term's coefficients (the
    binomial's are nonnegative and sum to C(b, t); the t factors q^k - 1
    have L1 norm 2), so DomainError before any factor is formed if a
    block's largest bound passes a digit."""
    terms = tuple(braiding_terms(m, n, sign))
    if max(comb(b, t) << t for *_, b, _, t in terms) > _HALF - _GUARD:
        raise DomainError(f"braiding block on colours {m}, {n} passes a digit")
    block, back = {}, {}
    for pair, out, e, s, b, a, t in terms:
        mag = s * pbinom(b, t) * pfall(a, t)
        block[pair] = block.get(pair, ()) + ((out, e, mag),)
        back[out] = back.get(out, ()) + ((pair, e, mag),)
    return block, back


def _split(steps):
    """Index of the first backward step: crossing #crossings // 2, if any."""
    xs = [k for k, step in enumerate(steps) if step[1] == "x"]
    return (xs or [len(steps)])[len(xs) // 2]


@lru_cache(maxsize=None)
def _cup_cap(n, s):
    """(insert, close) blocks of a cup or cap on colour n with shift s."""
    return ({(): tuple(((i, i), s * (n - 2 * i), 1) for i in range(n + 1))},
            {(i, i): (((), s * (n - 2 * i), 1),) for i in range(n + 1)})


def _block(step, colors, back):
    """(p, q, block) of a step, the block mapping key[p:q] to its terms;
    transposed if back."""
    p, kind, *rest = step
    if kind == "x":
        return p, p + 2, _packed_block(colors[rest[1]], colors[rest[2]],
                                       rest[0])[back]
    close = (kind == "cup") == back
    return p, p + 2 * close, _cup_cap(colors[rest[0]], rest[1])[close]


@lru_cache(maxsize=None)
def _weighted(d, cut, blank):
    """The steps of d uncut or of its cut record d.cuts[cut], with the
    strands of the components in blank taken out (module docstring);
    comps holds the component of each interface strand, from the cut's
    pair if there is a cut."""
    steps = d.steps if cut is None else d.cuts[cut]
    comps = [] if cut is None else [cut, cut]
    kept = []
    for p, kind, *rest in steps:
        shift = sum(c in blank for c in comps[:p])
        touched = rest[1:] if kind == "x" else rest[:1]
        if kind == "x":
            comps[p:p + 2] = comps[p + 1], comps[p]
        elif kind == "cup":
            comps[p:p] = touched * 2
        else:
            del comps[p:p + 2]
        if blank.isdisjoint(touched):
            kept.append((p - shift, kind, *rest))
    return tuple(kept)


def _contract(d, colors, cut=None):
    """Packed value of the closed diagram, contracted from both ends.

    A step replaces the indices key[p:q] of each state key by each term
    (pair, offset, mag) of its block (_block): a crossing maps (i, j) to
    its output pairs (j2, i2), a cup maps () to every (i, i), a cap maps
    (i, i) to () and drops the other keys.  A new key is stored as is;
    a merge runs _padd and deletes a sum that cancels to 0 on the spot.
    The steps before the middle crossing (_split) run forward from the
    initial key to a ket, the rest backward from the empty key, each
    transposed, to a bra on the same interface (_halves).  sum_K ket[K]
    bra[K], over the smaller half, is the same product of step matrices
    associated at the middle: exact.  Its products are summed as plain
    ints per offset, and _padd folds the few offsets.

    With cut=c, of colour a, both halves of the record d.cuts[c] run
    from the key (e, e), e = 0 or a as _cut_plan(d, c) says, and the
    products take the cut's weight u^(-2a): the (e, e) element of the
    link cut open at the outer cup of c (module docstring, _closed).
    _weighted first takes out the strands of colour 0, a cut's pair too.
    """
    blank = frozenset(c for c, n in enumerate(colors) if not n)
    steps = _weighted(d, cut, blank)
    a = 0 if cut is None else colors[cut]
    end = a * _cut_plan(d, cut)[1] if a else None
    ket, bra = sorted(_halves(steps, colors, end)[:2], key=len)
    sums = {}
    for key, (o, mag) in ket.items():
        if (b := bra.get(key)) is not None:
            o += b[0] - 2 * a
            sums[o] = sums.get(o, 0) + mag * b[1]
    return reduce(_padd, sums.items(), PACKED_ZERO)


def _halves(steps, colors, end):
    """(ket, bra, entries) of _contract, both halves from the key
    (end, end), or () if end is None, and the number of state entries
    made on the way."""
    h = _split(steps)
    halves, entries = [], 0
    start = {() if end is None else (end, end): PACKED_ONE}
    for back, run in ((False, steps[:h]), (True, reversed(steps[h:]))):
        state = start
        for step in run:
            p, q, block = _block(step, colors, back)
            new = {}
            for key, (o, mag) in state.items():
                terms = block.get(key[p:q])
                if terms is None:
                    continue
                head, tail = key[:p], key[q:]
                for pair, off, m in terms:
                    nk = head + pair + tail
                    v = (o + off, mag * m)
                    old = new.setdefault(nk, v)
                    if old is not v:
                        new[nk] = v = _padd(old, v)
                        if not v[1]:
                            del new[nk]
            state = new
            entries += len(new)
        halves.append(state)
    return (*halves, entries)


@lru_cache(maxsize=None)
def _cut_plan(d, c):
    """(entries, e): the fewer state entries of _halves at colour 1, a
    count (not a timing), from the ends e = 0, 1 of the cut at c.  Keyed
    by c, as a Diagram of a braid closure's slices has its first cut only."""
    return min((_halves(d.cuts[c], (1,) * d.component_count, e)[2], e)
               for e in (0, 1))


@lru_cache(maxsize=None)
def _closed(d, colors):
    """Packed value of the closed diagram with V-weights, cached (the one
    V-value cache; a Diagram hashes by its slices).  Cut open at the
    outer cup of a component in d.cuts of largest colour a (_cut_plan's
    on a tie), for 1/(a+1) of the work: the cut tangle is a scalar on
    V_a, so one matrix element times v^a [a+1] = 1 + q + ... + q^a, one
    product with the all-ones digit number, is the closed value (v^a
    undoes the kappa weight at the trace cap).  Zero low digits (_padd
    keeps them when sums cancel) are stripped: the pair is pack of the
    value.  An odd offset on an even-framed diagram raises DomainError:
    it left Z[v, 1/v]."""
    cut = min(d.cuts, key=lambda c: (-colors[c], _cut_plan(d, c), c),
              default=None)
    o, mag = _contract(d, colors, cut)
    if cut is not None:
        mag *= ((1 << (_BITS * (colors[cut] + 1))) - 1) // _MASK
    while mag and not mag & _MASK:
        o, mag = o + 4, mag >> _BITS
    if mag and o % 2 and all(w % 2 == 0 for w in d.writhes):
        raise DomainError("even-framed value left Z[v, 1/v]")
    return (o, mag) if mag else PACKED_ZERO


def colored_jones(d, colors):
    """Exact colored Jones value of a closed diagram with V-weights.

    Includes the blackboard framing contribution of the diagram as
    drawn (kinks count): the unpacked value of _closed."""
    colors = tuple(colors)
    if len(colors) != d.component_count:
        raise ColorCountMismatch(
            f"{d.component_count} components, {len(colors)} colors")
    if any(c < 0 for c in colors):
        raise InputError(f"colors must be >= 0, got {colors}")
    return unpack(_closed(d, colors))


@lru_cache(maxsize=None)
def _packed_weight(w):
    return pack(w)


def _table_sum(d, maps):
    """{(k_1, ..., k_m): packed value} summing, over the V-colours a that
    maps covers, the value of _closed(d, a) times w_1 ... w_m, where
    (k_i, w_i) runs over the pairs of maps[i][a_i]: one packed mode-n
    product per axis, each weight packed once (_packed_weight).
    check_split runs first, as the residues of the module docstring need
    zero linking numbers."""
    check_split(d)
    table = {a: _closed(d, a) for a in product(*map(range, map(len, maps)))}
    for axis, to in enumerate(maps):
        to = [[(k, _packed_weight(w)) for k, w in pairs] for pairs in to]
        new = {}
        for key, val in table.items():
            for k, c in to[key[axis]]:
                nk = key[:axis] + (k,) + key[axis + 1:]
                new[nk] = _padd(new.get(nk, PACKED_ZERO), _pmul(c, val))
        table = new
    return table


@lru_cache(maxsize=None)
def pprime_table(d, N):
    """J of the 0-framed link of d with colors P_{k_1}, ..., P_{k_m} as
    LaurentU, keyed by (k_1, ..., k_m) in range(N)^m, cached: the values
    of _closed changed to the P basis (_table_sum), with each V_a
    coefficient of P_k times theta_a^(-w), w its component's writhe."""
    return {key: unpack(val) for key, val in _table_sum(d, [
        [[(k, p_in_v(k)[a] * twist_eigen(a, -w)) for k in range(N)
          if a in p_in_v(k)] for a in range(N)] for w in d.writhes]).items()}


def colour_sum(d, framings, r):
    """wrt's colour sum: over the colours c < r - 1, the value of d as
    drawn at V-colours c times prod_i [c_i+1] theta_(c_i)^(f_i-w_i), f_i
    the framing and w_i the writhe of component i.  These weights put
    each of the 2^m lanes c mod 2 of _table_sum in one residue mod 4
    (module docstring), so the lanes are added packed per residue."""
    if len(framings) != d.component_count:
        raise ColorCountMismatch(
            f"{d.component_count} components, {len(framings)} framings")
    sums = {}
    for o, mag in _table_sum(d, [
            [[(c % 2, qnum(c + 1) * twist_eigen(c, f - w))]
             for c in range(r - 1)]
            for f, w in zip(framings, d.writhes)]).values():
        sums[o % 4] = _padd(sums.get(o % 4, PACKED_ZERO), (o, mag))
    return sum(map(unpack, sums.values()), ZERO)


# -- builtin diagrams -------------------------------------------------------


def closure_of_braid(strands, word, name=None):
    """Nested closure of a braid on the given number of strands.

    word is a sequence of (position, sign) pairs, position 1-based as
    sigma_i.  Components are the cycles of the braid permutation,
    numbered by their smallest top position.  The slices close each
    strand on the right, strand 0 outermost.  Only an arc on the outer
    face can be cut, so Diagram.cuts also keeps, for each other
    component, the steps of the link drawn with its first strand t
    outermost: strands left of t close on the left (a flipped cup at
    the top, a cap over (up, down) at the bottom), with no crossing added,
    and before the strands right of t, so that t's cap is the last step.
    A word that is not a sequence, a letter that is not a list or tuple
    of two ints, a strand count that is not an int, or a letter off
    1 <= position < strands or sign +-1, is an InputError.
    """
    if type(strands) is not int:
        raise InputError(f"braid on {strands!r} strands, not an integer")
    if not isinstance(word, Sequence):
        raise InputError(f"braid word {word!r} is not a sequence")
    for x in word:
        if (type(x) not in (list, tuple) or len(x) != 2
                or any(type(i) is not int for i in x)
                or x[0] not in range(1, strands) or x[1] not in (1, -1)):
            raise InputError(f"braid letter {x!r} on {strands} strands")
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

    def ids(o, tops):
        return [("id", comp_of[i], o) for i in tops]

    def drawing(t):
        # the returns in interface order: n-1 .. t right, t-1 .. 0 left
        right = ids("u", range(strands - 1, t - 1, -1))
        left = ids("u", range(t - 1, -1, -1))
        slices = [ids("d", range(t, k)) + [("cup", comp_of[k], False)]
                  + right[strands - k:] for k in range(t, strands)]
        slices += [left[:t - 1 - k] + [("cup", comp_of[k], True)]
                   + ids("d", range(k + 1, strands)) + right
                   for k in range(t - 1, -1, -1)]
        current = list(range(strands))
        for p, sign in word:
            a, b = current[p - 1], current[p]
            slices.append(left + ids("d", current[:p - 1])
                          + [("x", sign, comp_of[a], comp_of[b])]
                          + ids("d", current[p + 1:]) + right)
            current[p - 1], current[p] = b, a
        slices += [left[:t - 1 - k] + [("cap", comp_of[current[k]])]
                   + ids("d", current[k + 1:]) + right for k in range(t)]
        slices += [ids("d", current[t:k]) + [("cap", comp_of[current[k]])]
                   + right[strands - k:]
                   for k in range(strands - 1, t - 1, -1)]
        return slices

    cuts = {c: _validate(drawing(comp_of.index(c)))[4] for c in range(1, m)}
    return Diagram(drawing(0), name=name, cuts=cuts)


# the trefoil is left-handed: the one arising from the Borromean rings by
# -1-framed surgery on two components
_BRAIDS = {"unknot": (1, []), "unknot+1": (2, [(1, 1)]),
           "unknot-1": (2, [(1, -1)]), "hopf": (2, [(1, -1)] * 2),
           "trefoil": (2, [(1, -1)] * 3),
           "figure8": (3, [(1, 1), (2, -1)] * 2),
           "borromean": (3, [(1, 1), (2, -1)] * 3)}
BUILTIN_NAMES = tuple(_BRAIDS)


def builtin(name):
    if name not in BUILTIN_NAMES:
        raise UnknownName(name)
    return closure_of_braid(*_BRAIDS[name], name=name)
