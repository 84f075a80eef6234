"""Seeded inputs, operations and exact oracles for the three workloads.

Each workload has three parts:

- ``generate(seed)`` returns the inputs as plain JSON data.  The seed
  draws parameters inside fixed strata, so every seed carries the same
  mix of work and runs stay comparable across seeds.
- ``build(uwrt, inputs)`` parses the inputs against a freshly imported
  ``uwrt`` and returns the list of ``Op`` objects that make up one pass.
- ``Op.check(output)`` is the exact oracle for one output.  It raises
  ``Mismatch`` on a wrong value; it runs outside the timed region.

The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))

# The builtin Borromean braid word of ``tangles.builtin("borromean")``.
BORROMEAN_WORD = ((1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, -1))
SIGNS3 = tuple(itertools.product((1, -1), repeat=3))


class Mismatch(Exception):
    """An output differs from its oracle."""


class Op:
    """One timed call.  ``cold`` ops start from cleared caches."""

    __slots__ = ("label", "run", "cold", "check")

    def __init__(self, label, run, cold, check):
        self.label = label
        self.run = run
        self.cold = cold
        self.check = check


def _free_reduce(word):
    out = []
    for g in word:
        if out and out[-1][0] == g[0] and out[-1][1] == -g[1]:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def braid_variants():
    """Cyclic rotations of the Borromean word and their conjugates by one
    generator, freely reduced and deduplicated, in a fixed order.

    All are the same link; they differ in contraction order and in the
    size of the engine state."""
    out = []
    for k in range(len(BORROMEAN_WORD)):
        rot = BORROMEAN_WORD[k:] + BORROMEAN_WORD[:k]
        for g in (None, (1, 1), (1, -1), (2, 1), (2, -1)):
            word = rot if g is None else _free_reduce(
                (g,) + rot + ((g[0], -g[1]),))
            if word not in out:
                out.append(word)
    return out


def variant_diagram(uwrt, word):
    """The closed Borromean diagram of a variant word, after checking it
    is 3-component, 0-framed and algebraically split."""
    d = uwrt.tangles.closure_of_braid(3, word)
    if d.component_count != 3:
        raise ValueError(f"variant {word} has {d.component_count} components")
    lk = uwrt.tangles.linking_data(d)
    if any(any(row) for row in lk):
        raise ValueError(f"variant {word} has linking data {lk}")
    return d


def _same_habiro(a, b):
    return a.depth == b.depth and a.terms == b.terms


# -- surgery: cold Borromean surgery sums -------------------------------------
#
# Every op clears all caches, so contraction (tangles) and the P' basis
# change with the (q)_K division (invariants) do all the work, with no
# reuse.  Depth 5 keeps one op near 0.7 s at the parent commit; depth 6
# costs 2.4-4.2 s per op depending on the variant, which leaves too few
# ops per run for a stable tail.

SURGERY_DEPTHS = (5,)


def surgery_generate(seed):
    rng = random.Random(seed)
    variants = braid_variants()
    rng.shuffle(variants)
    return [{"word": [list(g) for g in w],
             "framings": list(rng.choice(SIGNS3)),
             "depth": rng.choice(SURGERY_DEPTHS)} for w in variants]


def surgery_build(uwrt, inputs):
    inv, qhat = uwrt.invariants, uwrt.qhat
    ops = []
    for item in inputs:
        d = variant_diagram(uwrt, tuple(tuple(g) for g in item["word"]))
        fr = tuple(item["framings"])
        depth = item["depth"]
        pres = inv.SurgeryPresentation(diagram=d, framings=fr)

        def run(pres=pres, depth=depth):
            return inv.jm_from_surgery(pres, depth)

        def check(x, fr=fr, depth=depth):
            # M_{i,j,k} is surgery on framings -1/i, -1/j, -1/k.
            want = inv.jm_borromean(*[-f for f in fr], depth)
            if not qhat.equals_at_depth(x, want, depth):
                raise Mismatch("J_M differs from jm_borromean"
                               f"{tuple(-f for f in fr)}")

        label = (f"jm_from_surgery word={item['word']} "
                 f"framings={list(fr)} depth={depth}")
        ops.append(Op(label, run, True, _memo_check(check, _same_habiro)))
    return ops


# -- wrt_sweep: warm WRT sweeps -----------------------------------------------
#
# A session clears caches once, then runs wrt(pres, r) for r = 2..R over
# several framings of one diagram.  Colours reach R-2 and the colored
# Jones table is reused across framings and r, so the time goes to the
# Laurent sums, reduce_mod over Q and ModPoly inversion.

WRT_R = 6
WRT_FRAMINGS = 3


def wrt_generate(seed):
    """One session on a 6-crossing word and one on an 8-crossing word, so
    every pass contracts the same mix of state sizes."""
    rng = random.Random(seed)
    variants = braid_variants()
    words = [rng.choice([w for w in variants if len(w) == n]) for n in (6, 8)]
    return [{"word": [list(g) for g in w],
             "framings": [list(f) for f in rng.sample(SIGNS3, WRT_FRAMINGS)],
             "r_max": WRT_R} for w in words]


def wrt_build(uwrt, inputs):
    inv = uwrt.invariants
    ops = []
    for item in inputs:
        d = variant_diagram(uwrt, tuple(tuple(g) for g in item["word"]))
        first = True
        for fr in item["framings"]:
            fr = tuple(fr)
            pres = inv.SurgeryPresentation(diagram=d, framings=fr)
            for r in range(2, item["r_max"] + 1):
                def run(pres=pres, r=r):
                    return inv.wrt(pres, r)

                def check(val, fr=fr, r=r):
                    want = inv.eval_root_q(
                        inv.jm_borromean(*[-f for f in fr], r), r)
                    if val != want:
                        raise Mismatch(
                            f"wrt differs from eval_root_q at r={r}")

                label = f"wrt word={item['word']} framings={list(fr)} r={r}"
                ops.append(Op(label, run, first, _memo_check(check, _eq)))
                first = False
    return ops


# -- cli_specialize: in-process CLI commands ----------------------------------
#
# Each op runs cli.main(argv) with stdout captured and caches cleared,
# emulating a fresh `uwrt` process.  The commands are those the README
# lists.  Borromean parameters of both signs are drawn: a negative
# parameter gives J_M negative q-exponents and sends `jm` and `kashaev`
# over the reduce cliff.  One command is drawn from every stratum below;
# the commands in a stratum cost about the same at the parent commit, so
# the seed changes the inputs but not the mix of work.  The stratum at the
# median cost (ohtsuki) is kept apart in cost from its neighbours, so
# op_p50_s measures one kind of command.


def _family(params):
    return json.dumps({"family": "borromean", "params": list(params)},
                      separators=(",", ":"))


def _perms(*params):
    return sorted(set(itertools.permutations(params)))


def _surgery_cmd(command, params, *rest):
    return [command, "--surgery", _family(params)] + [str(x) for x in rest]


CLI_STRATA = (
    ("jm_positive", [_surgery_cmd("jm", p, "--depth", 8)
                     for p in _perms(1, 1, 2) + _perms(1, 2, 2)]),
    ("jm_one_negative", [_surgery_cmd("jm", p, "--depth", 7)
                         for p in _perms(-1, 1, 2)]),
    ("jm_two_negative", [_surgery_cmd("jm", p, "--depth", 6)
                         for p in _perms(-1, -1, 1) + _perms(-1, -1, 2)]),
    ("jm_minus_two", [_surgery_cmd("jm", p, "--depth", 5)
                      for p in _perms(-2, -1, 1)]),
    ("eval_root", [_surgery_cmd("eval", p, "root", r)
                   for p in _perms(-1, 1, 1) + _perms(-1, -1, 1)
                   for r in (5, 6)]),
    ("eval_rational", [_surgery_cmd("eval", p, "rational", a, 1, m)
                       for p in _perms(-1, 1, 2)
                       for a, m in ((3, 7), (2, 11), (2, 7))]),
    ("eval_padic", [_surgery_cmd("eval", p, "padic", s, q, e)
                    for p in _perms(-2, -1, 1)
                    for s, q, e in ((5, 2, 5), (3, 2, 4), (2, 3, 2))]),
    ("eval_modp", [_surgery_cmd("eval", p, "modp", q, 10)
                   for p in _perms(-1, 1, 2) for q in (7, 11, 13)]),
    ("eval_modp_scan", [_surgery_cmd("eval", p, "modp-scan", q, 10)
                        for p in _perms(-2, -1, 1) for q in (11, 13)]),
    ("ohtsuki", [_surgery_cmd("ohtsuki", p, 6)
                 for p in _perms(-1, -1, 2)]),
    ("taylor", [_surgery_cmd("taylor", p, 3, 3)
                for p in _perms(-1, 1, 2)]),
    ("kashaev_negative", [["kashaev", str(i), str(j), "--depth", "6"]
                          for i, j in ((-2, 1), (1, -2))]),
    ("kashaev_mixed", [["kashaev", str(i), str(j), "--depth", "7"]
                       for i, j in ((1, -1), (-1, 1), (-1, 2), (2, -1))]),
)

DIGESTS_FILE = os.path.join(HERE, "digests.json")


def cli_catalogue():
    return [argv for _, options in CLI_STRATA for argv in options]


def cli_generate(seed):
    rng = random.Random(seed)
    cmds = [rng.choice(options) for _, options in CLI_STRATA]
    rng.shuffle(cmds)
    return cmds


def argv_key(argv):
    return " ".join(argv)


def stdout_digest(rc, text):
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()


def load_digests():
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(cli, argv):
    """cli.main(argv) with stdout and stderr captured: (rc, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects argv
            rc = exc.code
    return rc, out.getvalue()


def cli_build(uwrt, inputs, digests=None):
    if digests is None:
        digests = load_digests()
    parser = uwrt.cli.build_parser()
    ops = []
    for argv in inputs:
        args = parser.parse_args(argv)
        want = digests[argv_key(argv)]
        semantic = _cli_oracle(uwrt, args)

        def run(argv=argv):
            return run_cli(uwrt.cli, argv)

        def check(result, want=want, semantic=semantic):
            rc, text = result
            if rc != 0:
                raise Mismatch(f"exit code {rc}")
            if stdout_digest(rc, text) != want:
                raise Mismatch("stdout digest differs from the recorded one")
            if semantic is not None:
                semantic(text)

        ops.append(Op(argv_key(argv), run, True,
                      _memo_check(check, _eq)))
    return ops


def _ints(text):
    return [int(t) for t in re.findall(r"-?\d+", text)]


def _coeff_list(line):
    """The coefficient list of a `[c0, c1] with modulus [...]` line."""
    head = line.split(" with modulus ")[0]
    return _ints(head)


def _cli_oracle(uwrt, args):
    """An independent check of the printed value, where one exists."""
    inv, qhat, ev = uwrt.invariants, uwrt.qhat, uwrt.evaluate
    if args.command not in ("eval", "ohtsuki", "taylor"):
        return None
    params = json.loads(args.surgery)["params"]

    def element(depth):
        return inv.jm_borromean(*params, depth)

    if args.command == "ohtsuki":
        def ohtsuki_check(text):
            lams = _ints(text)
            if len(lams) != args.count or lams[0] != 1:
                raise Mismatch(f"bad Ohtsuki series {lams}")
            if not inv.congruence_report(lams)["all_pass"]:
                raise Mismatch("Ohtsuki series fails the congruences")
        return ohtsuki_check
    if args.command == "taylor":
        def taylor_check(text):
            # The h^0 jet is the value at the root itself.
            x = element(max(args.depth, args.r * args.count))
            first = text.splitlines()[0].split(": ", 1)[1]
            if _coeff_list(first) != list(qhat.eval_root(x, args.r).coeffs):
                raise Mismatch("taylor h^0 differs from eval_root")
        return taylor_check
    mode, p = args.mode, args.params
    depth = args.depth
    if mode == "root":
        def root_check(text):
            # WRT of the +-1 diagram form: framing -1/i = -i.
            pres = inv.borromean_presentation([-i for i in params])
            want = inv.wrt(pres, p[0])
            if _coeff_list(text) != list(want.coeffs):
                raise Mismatch("eval root differs from wrt")
        return root_check
    if mode == "rational":
        a, _, m = p

        def rational_check(text):
            got = _ints(text.split(" (mod")[0])[0]
            if got != ev.eval_padic(element(depth), a, m, 1).value:
                raise Mismatch("eval_rational differs from eval_padic")
        return rational_check
    if mode == "padic":
        s, q, e = p

        def padic_check(text):
            # The catalogue keeps the order of s mod p^e within the depth,
            # so eval_rational reaches the same residue another way.
            got = _ints(text.split(" (mod")[0])[0]
            if got != ev.eval_rational(element(depth), s, 1, q ** e).value:
                raise Mismatch("eval_padic differs from eval_rational")
        return padic_check
    if mode == "modp":
        q, r = p

        def modp_check(text):
            want = [int(c) % q for c in
                    qhat.eval_root(element(max(depth, r)), r).coeffs]
            if _coeff_list(text.splitlines()[0]) != want:
                raise Mismatch("modp_value differs from eval_root mod p")
        return modp_check
    q, rmax = p

    def scan_check(text):
        x = element(depth)
        rows = text.splitlines()[1:]
        want_rs = [r for r in range(1, rmax + 1) if r % q]
        if len(rows) != len(want_rs):
            raise Mismatch("modp-scan row count")
        for row, r in zip(rows, want_rs):
            enc = row.split(",")[3]
            got = [int(c) for c in enc.split(";")]
            val = qhat.eval_root(x, r)
            want = [val % q] if r == 1 else [int(c) % q for c in val.coeffs]
            if got != want:
                raise Mismatch(f"modp-scan row r={r} differs from eval_root")
    return scan_check


# -- shared -------------------------------------------------------------------


def _eq(a, b):
    return a == b


def _memo_check(check, same):
    """Run the full oracle on the first output; later outputs of the same
    op must then be identical to that first, checked output."""
    seen = []

    def memo(output):
        if seen:
            if not same(seen[0], output):
                raise Mismatch("output differs from the first, checked one")
            return
        check(output)
        seen.append(output)
    return memo


WORKLOADS = {
    "surgery": (surgery_generate, surgery_build),
    "wrt_sweep": (wrt_generate, wrt_build),
    "cli_specialize": (cli_generate, cli_build),
}
