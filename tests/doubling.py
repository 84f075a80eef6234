"""Blackboard-parallel doubling of a one-strand component of a braid
closure, the tests' route from a link to its cables: -1 surgery on both
copies is -1/2 surgery on the component they double (Rolfsen twist)."""


def double(strands, word, c):
    """(strands + 1, word) of the braid with the one strand of component
    c, numbered as in tangles.closure_of_braid (by the smallest top
    position of its cycle), replaced by two parallel copies.  Each letter
    that crossed the strand becomes two, one for each copy, of the same
    sign; the copies never cross each other, so each keeps framing 0 and
    they have linking number 0.  A component of two or more strands is
    an AssertionError."""
    perm = list(range(strands))
    for p, _ in word:
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    firsts, seen = [], set()
    for start in range(strands):
        if start not in seen:
            firsts.append(start)
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    pos = firsts[c]
    assert perm[pos] == pos, f"component {c} has more than one strand"
    out = []
    for p, sign in word:             # sigma_p swaps positions p - 1, p
        if pos == p - 1:             # the copies cross the strand right
            out += [(p + 1, sign), (p, sign)]
            pos = p
        elif pos == p:               # the strand left crosses the copies
            out += [(p, sign), (p + 1, sign)]
            pos = p - 1
        else:
            out.append((p + (p > pos), sign))
    return strands + 1, out
