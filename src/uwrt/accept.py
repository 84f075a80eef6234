"""Self-contained acceptance checks exercising every module end to end.

Each criterion function returns (ok, detail).  run() prints one
PASS/FAIL line per criterion and returns True when all pass.  All
comparisons are exact; no tolerances anywhere.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import (InterfaceMismatch, NonExactDivision, NotAdmissible,
                     OpenDiagram)
from .evaluate import eval_padic, eval_rational, modp_value
from .invariants import (borromean_presentation, jm_borromean,
                         jm_from_surgery, knot_borromean, ohtsuki,
                         poincare_series, reduced_jones, s3_presentations,
                         theta, theta0, tilde_tau8_check, congruence_report,
                         wrt, SurgeryPresentation)
from .laurent import (LaurentU, ModPoly, ONE, ZERO, cyclotomic_coeffs,
                      falling_bal, q_pow, qbinom_q, qfact_bal, qint_bal,
                      qnum, reduce_mod)
from .qhat import HabiroElem, equals_at_depth, eval_root, phi_order, taylor
from .repring import (BasisCombo, _p_in_v, omega_truncated, pairing,
                      pprime_mul, to_P, to_V)
from .reps import braiding, twist_eigen
from .tangles import builtin, colored_jones, parse_diagram

TEST_PARAMS = ((1, 1, 1), (1, 1, -1), (1, -1, -1), (2, 1, 1))


def criterion_1():
    """Hopf link pairing values."""
    hopf = builtin("hopf")
    for m in range(7):
        for n in range(7):
            if colored_jones(hopf, (m, n)) != qnum((m + 1) * (n + 1)):
                return False, f"hopf ({m},{n})"
    return True, "colored_jones(hopf, (m,n)) = [(m+1)(n+1)] for m,n <= 6"


def _borromean_closed(i, j, k):
    acc = LaurentU.zero()
    for p in range(min(i, j, k) + 1):
        c = ONE
        for n in (i, j, k):
            c = c * falling_bal(n + 1 + p, 2 * p + 1).exact_div(
                qfact_bal(2 * p + 1))
        c = c * qfact_bal(p) * qfact_bal(p) * falling_bal(2 * p + 1, 2 * p)
        if p % 2:
            c = -c
        acc = acc + c
    return acc


def criterion_2():
    """Borromean rings against both closed forms."""
    d = builtin("borromean")
    for i, j, k in product(range(4), repeat=3):
        if colored_jones(d, (i, j, k)) != _borromean_closed(i, j, k):
            return False, f"V-colors ({i},{j},{k})"
    # J(P'_i, P'_j, P'_k) = J(P_i, P_j, P_k) / ({i}!{j}!{k}!), compared
    # after multiplying both sides by {i}!{j}!{k}!: Z[u^+-1] is a domain
    for i, j, k in product(range(4), repeat=3):
        got = ZERO
        for (a, x), (b, y), (c, z) in product(
                *(_p_in_v(n).items() for n in (i, j, k))):
            got = got + x * y * z * colored_jones(d, (a, b, c))
        if i == j == k:
            want = falling_bal(2 * i + 1, i + 1).exact_div(qint_bal(1))
            if i % 2:
                want = -want
        else:
            want = ZERO
        if got != want * qfact_bal(i) * qfact_bal(j) * qfact_bal(k):
            return False, f"P'-colors ({i},{j},{k})"
    return True, "V-colored and P'-colored values for all colors <= 3"


def criterion_3():
    """Twist element identities."""
    unit = BasisCombo.unit("P'", 0)
    w_plus = omega_truncated(1, 10)
    w_minus = omega_truncated(-1, 10)
    if pprime_mul(w_plus, w_minus).truncate(10) != unit:
        return False, "omega * omega^-1 != 1"
    for p in (2, 3, -2, -3):
        step = omega_truncated(1 if p > 0 else -1, 8)
        acc = unit
        for _ in range(abs(p)):
            acc = pprime_mul(acc, step).truncate(8)
        if omega_truncated(p, 8) != acc:
            return False, f"omega^{p} vs iterated product"
    # <omega^p, V'_2k> with V'_2k = V_2k / [2k+1]: each term
    # <P'_m, V'_2k> = <P_m, V_2k> / ([2k+1] {m}!) is a Laurent polynomial
    for p in range(-3, 4):
        for k in range(6):
            v = BasisCombo.unit("V", 2 * k)
            got = ZERO
            for m, c in omega_truncated(p, 2 * k + 2).terms.items():
                pm = pairing(BasisCombo.unit("P", m), v)
                got = got + c * pm.exact_div(qnum(2 * k + 1) * qfact_bal(m))
            if got != q_pow(p * k * (k + 1)):
                return False, f"<omega^{p}, V'_{2 * k}>"
    return True, "inverse, power and pairing identities for omega"


def criterion_4():
    """Poincare sphere: three independent computations at depth 8."""
    a = jm_from_surgery(borromean_presentation((-1, -1, -1)), 8)
    b = jm_borromean(1, 1, 1, 8)
    c = poincare_series(8)
    if not equals_at_depth(a, b, 8):
        return False, "surgery sum vs closed form"
    if not equals_at_depth(b, c, 8):
        return False, "closed form vs one-variable series"
    return True, "surgery sum = closed form = q-series at depth 8"


def criterion_5():
    """Specialization: eval_root(J_M, r) = wrt(presentation, r), r <= 8."""
    presentations = [
        SurgeryPresentation(diagram=builtin("unknot"), framings=(1,)),
        SurgeryPresentation(diagram=builtin("unknot"), framings=(-1,)),
    ] + [borromean_presentation(fr) for fr in product((1, -1), repeat=3)]
    for pres in presentations:
        j = jm_from_surgery(pres, 8)
        for r in range(1, 9):
            if eval_root(j, r) != wrt(pres, r):
                return False, f"{pres} at r = {r}"
    return True, "eval_root = wrt for 10 presentations, 1 <= r <= 8"


def criterion_6():
    """Known WRT values and presentation independence."""
    elements = [jm_borromean(i, j, k, 10) for i, j, k in TEST_PARAMS]
    for x in elements:
        if eval_root(x, 1) != 1:
            return False, "value at r = 1"
        for r in (3, 6):
            if eval_root(x, r) != 1:
                return False, f"value at r = {r}"
        for r in (2, 4):
            val = eval_root(x, r)
            if val != 1 and val != -1:
                return False, f"value at r = {r} not a sign"
    s3 = s3_presentations()
    js = [jm_from_surgery(p, 10) for p in s3]
    for j in js[1:]:
        if not equals_at_depth(js[0], j, 10):
            return False, "S^3 presentations disagree at depth 10"
    for p in s3:
        for r in range(1, 9):
            if wrt(p, r) != 1:
                return False, f"wrt(S^3) != 1 at r = {r}"
    return True, "signs at r <= 6 and four equal S^3 presentations"


def criterion_7():
    """Cyclotomic divisibility of J_M - 1 and the order-8 lattice."""
    for params in TEST_PARAMS:
        x = jm_borromean(*params, 10)
        lam1 = ohtsuki(x, 2)[1]
        for n in (1, 2, 3, 6):
            if phi_order(x - 1, n, 1) != 1:
                return False, f"Phi_{n} order for {params}"
        xt = x * q_pow(-lam1) - 1
        if phi_order(xt, 1, 2) != 2:
            return False, f"Phi_1^2 order for {params}"
        if phi_order(xt, 4, 1) != 1:
            return False, f"Phi_4 order for {params}"
        if not tilde_tau8_check(x, lam1)["in_lattice"]:
            return False, f"order-8 lattice membership for {params}"
    return True, "Phi-orders and order-8 lattice for four manifolds"


def criterion_8():
    """Ohtsuki coefficient congruences."""
    for params in TEST_PARAMS:
        lams = ohtsuki(jm_borromean(*params, 10), 6)
        report = congruence_report(lams)
        if not report["all_pass"]:
            return False, f"congruences for {params}: {report}"
    return True, "integrality and mod-6/mod-12 relations for four manifolds"


def criterion_9():
    """Triviality of values at r dividing twice a surgery parameter."""
    for k in (1, 2, 3):
        for r in range(1, 2 * k + 1):
            if (2 * k) % r:
                continue
            for i in (-1, 0, 1):
                for j in (-1, 0, 1):
                    val = eval_root(jm_borromean(i, j, k, 10), r)
                    if val != 1:
                        return False, f"({i},{j},{k}) at r = {r}"
    return True, "eval_root = 1 whenever r | 2k, k <= 3"


def criterion_10():
    """Two-variable and Kashaev coherence for the trefoil."""
    rj = reduced_jones(builtin("trefoil"), 6)
    if rj != knot_borromean(1, 1, 6):
        return False, "engine vs closed form at depth 6"
    d = builtin("trefoil")
    for i in range(1, 5):
        normalized = (colored_jones(d, (i - 1,))
                      * twist_eigen(i - 1, 3)).exact_div(qnum(i))
        if theta(rj, i) != normalized:
            return False, f"theta at i = {i}"
    kash = theta0(rj)
    for r in range(1, 7):
        want = reduce_mod(theta(rj, r), cyclotomic_coeffs(r))
        got = eval_root(kash, r)
        if r == 1:
            want = want.as_integer()
        if got != want:
            return False, f"theta0 at r = {r}"
    return True, "reduced_jones = K_(1,1), theta and theta0 agree"


def _apply_braiding(state, colors, pos, sign):
    """One braiding at strand pos of a 3-fold tensor state."""
    block = braiding(colors[pos], colors[pos + 1], sign)
    out = {}
    for key, coeff in state.items():
        for (j2, i2, c) in block[(key[pos], key[pos + 1])]:
            new = list(key)
            new[pos], new[pos + 1] = j2, i2
            new = tuple(new)
            val = out.get(new, LaurentU.zero()) + coeff * c
            out[new] = val
    swapped = list(colors)
    swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
    return {k: v for k, v in out.items() if not v.is_zero()}, tuple(swapped)


def _braid_word_map(colors, word):
    maps = {}
    for start in product(*[range(n + 1) for n in colors]):
        state, cur = {start: ONE}, colors
        for pos, sign in word:
            state, cur = _apply_braiding(state, cur, pos, sign)
        maps[start] = state
    return maps


def criterion_11():
    """Exhaustive and randomized structural properties."""
    for a, b, c in product(range(3), repeat=3):
        lhs = _braid_word_map((a, b, c), [(0, 1), (1, 1), (0, 1)])
        rhs = _braid_word_map((a, b, c), [(1, 1), (0, 1), (1, 1)])
        if lhs != rhs:
            return False, f"Yang-Baxter at colors ({a},{b},{c})"
    for m in range(5):
        for n in range(5):
            ident = _braid_word_map((m, n, 0), [(0, 1), (0, -1)])
            for start, state in ident.items():
                if state != {start: ONE}:
                    return False, f"psi psi^-1 != id at ({m},{n})"
    rng = random.Random(20260823)
    elems = []
    for _ in range(6):
        terms = [LaurentU.from_q_coeffs(rng.randint(-2, 0),
                                        [rng.randint(-3, 3)
                                         for _ in range(4)])
                 for _ in range(5)]
        elems.append(HabiroElem(10, terms))
    for x, y in zip(elems[::2], elems[1::2]):
        if eval_root(x * y, 5) != eval_root(x, 5) * eval_root(y, 5):
            return False, "eval_root not multiplicative"
        if eval_root(x + y, 5) != eval_root(x, 5) + eval_root(y, 5):
            return False, "eval_root not additive"
        tx, ty, txy = taylor(x, 2, 3), taylor(y, 2, 3), taylor(x * y, 2, 3)
        conv = [sum((tx[i] * ty[k - i] for i in range(k + 1)),
                    tx[0] * 0) for k in range(3)]
        if txy != conv:
            return False, "taylor not multiplicative"
        if eval_rational(x * y, 2, 3, 7).value != \
                eval_rational(x, 2, 3, 7).value \
                * eval_rational(y, 2, 3, 7).value % 7:
            return False, "eval_rational not multiplicative"
        if eval_padic(x * y, 2, 3, 2).value != \
                eval_padic(x, 2, 3, 2).value \
                * eval_padic(y, 2, 3, 2).value % 9:
            return False, "eval_padic not multiplicative"
        if modp_value(x * y, 3, 5).value != \
                modp_value(x, 3, 5).value * modp_value(y, 3, 5).value:
            return False, "modp_value not multiplicative"
    for n in range(13):
        for k in range(n + 1):
            g = qbinom_q(n, k)
            if any(c < 0 for c in g.coeffs):
                return False, f"Gaussian binomial ({n},{k}) not positive"
    for n in range(9):
        v = BasisCombo.unit("V", n)
        if to_V(to_P(v)) != v:
            return False, f"base-change round trip at V_{n}"
        p = BasisCombo.unit("P", n)
        if to_P(to_V(p)) != p:
            return False, f"base-change round trip at P_{n}"
    x = jm_borromean(1, 1, -1, 10)
    for p, r in ((3, 5), (5, 4), (7, 3)):
        e = eval_root(x, r)
        red = ModPoly(e.modulus, e.coeffs, p)
        if red != modp_value(x, p, r).value:
            return False, f"pi-compatibility at (p,r)=({p},{r})"
    deeper = jm_borromean(1, 1, -1, 12)
    if eval_rational(x, 2, 1, 5) != eval_rational(deeper, 2, 1, 5):
        return False, "eval_rational depth unstable"
    if eval_padic(x, 2, 5, 2) != eval_padic(deeper, 2, 5, 2):
        return False, "eval_padic depth unstable"
    if modp_value(x, 3, 5) != modp_value(deeper, 3, 5):
        return False, "modp_value depth unstable"
    if eval_root(x, 5) != eval_root(deeper, 5):
        return False, "eval_root depth unstable"
    return True, "Yang-Baxter, inverses, homomorphisms, round trips"


def criterion_12():
    """Negative controls: malformed inputs are rejected."""
    try:
        (q_pow(2) - 1).exact_div(q_pow(1) - 1 + q_pow(3))
        return False, "exact_div accepted a non-divisible pair"
    except NonExactDivision:
        pass
    try:
        parse_diagram("U(1)\nA(1) A(1)\n")
        return False, "parser accepted a mismatched interface"
    except (InterfaceMismatch, OpenDiagram):
        pass
    try:
        wrt(SurgeryPresentation(diagram=builtin("hopf"), framings=(1, 1)), 3)
        return False, "wrt accepted a linked presentation"
    except NotAdmissible:
        pass
    try:
        wrt(SurgeryPresentation(diagram=builtin("unknot"), framings=(2,)), 3)
        return False, "wrt accepted a framing outside +-1"
    except NotAdmissible:
        pass
    return True, "non-exact division, bad diagram and bad surgery rejected"


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
]


def run(out=print):
    all_ok = True
    for idx, crit in enumerate(CRITERIA, start=1):
        ok, detail = crit()
        out(f"{'PASS' if ok else 'FAIL'} criterion {idx}: {detail}")
        all_ok = all_ok and ok
    return all_ok
