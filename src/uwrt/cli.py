"""Command-line interface.

COMMANDS is the one command table (jones, jm, eval, ohtsuki, taylor, wrt,
kashaev, check): each row gives a command's help, arguments and handler.
Results go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 1 domain error (mathematically invalid request or a
failed internal integrality assertion), 2 input error (bad files,
syntax, unknown names).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import accept
from .errors import DomainError, InputError, UnknownName, require_positive
from .evaluate import (check_modp, eval_padic, eval_rational,
                       modp_nonvanishing, modp_value, padic_point,
                       rational_point, truncation_index)
from .invariants import (SurgeryPresentation, jm_from_surgery,
                         knot_borromean, ohtsuki, read_text, theta0, wrt)
from .qhat import DEFAULT_DEPTH, eval_root, reduce, taylor
from .tangles import BUILTIN_NAMES, builtin, colored_jones, parse_diagram


def _load_diagram(args):
    if args.builtin:
        return builtin(args.builtin)
    if args.diagram:
        return parse_diagram(read_text(args.diagram))
    raise UnknownName("no diagram given; use --builtin or --diagram")


def _load_presentation(args):
    raw = args.surgery
    if raw is None:
        raise UnknownName("no presentation given; use --surgery")
    text = raw if _is_inline_json(raw) else read_text(raw)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UnknownName(f"bad surgery file: {exc}")
    return SurgeryPresentation.from_json(obj)


def _is_inline_json(raw):
    """An object, or any JSON text that names no existing file, is inline
    (so that from_json, not the file reader, reports a non-object)."""
    if raw.lstrip().startswith("{"):
        return True
    if os.path.exists(raw):
        return False
    try:
        json.loads(raw)
    except json.JSONDecodeError:
        return False
    return True


def _emit(args, human_lines, payload):
    if args.format == "json":
        print(json.dumps({"command": args.command, **payload},
                         sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)
    return 0


def _habiro_lines(x, depth, reduced):
    lines = [f"slot {n}: {c.to_str()}" for n, c in enumerate(x.terms)
             if not c.is_zero()] or ["0"]
    return lines + [f"reduced mod (q)_{depth}: {reduced.to_str()}"]


def _modpoly_str(m):
    coeffs = ", ".join(str(c) for c in m.coeffs)
    modulus = ", ".join(str(c) for c in m.modulus)
    return f"[{coeffs}] with modulus [{modulus}]"


def cmd_jones(args):
    d = _load_diagram(args)
    value = colored_jones(d, tuple(args.colors))
    return _emit(args, [value.to_str()], {"value": value.to_json()})


def cmd_jm(args):
    pres = _load_presentation(args)
    x = jm_from_surgery(pres, args.depth)
    reduced = reduce(x, args.depth)
    return _emit(args, _habiro_lines(x, args.depth, reduced),
                 {"element": x.to_json(), "reduced": reduced.to_json()})


# per eval mode: the parameter count, and the number of terms of J_M the
# value reads, found after the checks of the parameters alone (so that
# they run before the surgery sum is paid for): r at an r-th root, and at
# a point s mod m the first n <= --depth with (s)_n = 0 mod m
_EVAL_MODES = {
    "root": (1, lambda r, depth: require_positive("r", r)),
    "rational": (3, lambda a, b, m, depth:
                 truncation_index(*rational_point(a, b, m), depth)),
    "padic": (3, lambda s, p, e, depth:
              truncation_index(*padic_point(s, p, e), depth)),
    "modp": (2, lambda p, r, depth: check_modp(p, r) or r),
    "modp-scan": (2, lambda p, rmax, depth: check_modp(p, 1)
                  or require_positive("rmax", rmax))}


def cmd_eval(args):
    mode = args.mode
    params = args.params
    need, reads = _EVAL_MODES[mode]
    if len(params) != need:
        raise UnknownName(f"mode {mode} takes {need} parameters")
    pres = _load_presentation(args)
    # an element has depth >= 1, also where the value reads no term
    x = jm_from_surgery(pres, max(reads(*params, args.depth), 1))
    if mode == "root":
        val = eval_root(x, params[0])
        human = str(val) if isinstance(val, int) else _modpoly_str(val)
        payload = val if isinstance(val, int) else val.to_json()
        return _emit(args, [human], {"mode": mode, "params": params,
                                     "value": payload})
    if mode == "rational":
        rv = eval_rational(x, *params)
    elif mode == "padic":
        rv = eval_padic(x, *params)
    elif mode == "modp":
        rv = modp_value(x, *params)
        flag = modp_nonvanishing(rv.value)
        lines = [_modpoly_str(rv.value), f"nonvanishing: {flag}"]
        return _emit(args, lines, {"mode": mode, "params": params,
                                   "value": rv.to_json(),
                                   "nonvanishing": flag})
    else:
        p, rmax = params
        lines = ["modulus-type,p,r,value-encoding,nonvanishing-flag"]
        rows = []
        for r in range(1, rmax + 1):
            if r % p == 0:
                continue
            rv = modp_value(x, p, r)
            flag = modp_nonvanishing(rv.value)
            enc = ";".join(str(int(c)) for c in rv.value.coeffs)
            lines.append(f"modp,{p},{r},{enc},{int(flag)}")
            rows.append({"p": p, "r": r, "value": enc,
                         "nonvanishing": flag})
        return _emit(args, lines, {"mode": mode, "params": params,
                                   "rows": rows})
    return _emit(args, [f"{rv.value} (mod descriptor {rv.modulus})"],
                 {"mode": mode, "params": params, "value": rv.to_json()})


def cmd_ohtsuki(args):
    require_positive("coefficient count", args.count)
    pres = _load_presentation(args)
    x = jm_from_surgery(pres, args.count)
    lams = ohtsuki(x, args.count)
    return _emit(args, [" ".join(str(v) for v in lams)],
                 {"coefficients": lams})


def cmd_taylor(args):
    require_positive("r", args.r)
    require_positive("coefficient count", args.count)
    pres = _load_presentation(args)
    x = jm_from_surgery(pres, args.r * args.count)
    coeffs = taylor(x, args.r, args.count)
    lines = [f"h^{k}: {_modpoly_str(c)}" for k, c in enumerate(coeffs)]
    return _emit(args, lines, {"r": args.r, "coefficients":
                               [c.to_json() for c in coeffs]})


def cmd_wrt(args):
    pres = _load_presentation(args)
    val = wrt(pres, args.r)
    human = str(val) if isinstance(val, int) else _modpoly_str(val)
    payload = val if isinstance(val, int) else val.to_json()
    return _emit(args, [human], {"r": args.r, "value": payload})


def cmd_kashaev(args):
    x = theta0(knot_borromean(args.i, args.j, args.depth))
    return _emit(args, _habiro_lines(x, args.depth, reduce(x, args.depth)),
                 {"i": args.i, "j": args.j, "element": x.to_json()})


def cmd_check(args):
    if args.suite != "spec-accept":
        raise UnknownName(f"unknown check suite {args.suite!r}")
    return 0 if accept.run() else 1


def _args(*names, **options):
    """Arguments with the same options, each a group of its own."""
    return [[(name, options)] for name in names]


def common(surgery=False, diagram=False):
    """The arguments a command shares: --depth and --format, and
    --surgery or the mutually exclusive --builtin and --diagram."""
    args = (_args("--depth", type=int, default=DEFAULT_DEPTH,
                  help="truncation depth (default %(default)s); caps eval "
                       "rational and padic, unused by eval root, modp, "
                       "modp-scan, jones, wrt, ohtsuki and taylor")
            + _args("--format", choices=("human", "json"), default="human"))
    if surgery:
        args += _args("--surgery",
                      help="surgery presentation JSON (file or inline)")
    if diagram:
        args.append([("--builtin", dict(choices=BUILTIN_NAMES)),
                     ("--diagram", dict(help="diagram file"))])
    return args


# The one command table: name -> (help, argument groups, handler).  A
# group of two or more arguments is mutually exclusive.
COMMANDS = {
    "jones": ("colored Jones value of a diagram",
              common(diagram=True) + _args("colors", type=int, nargs="+"),
              cmd_jones),
    "jm": ("unified invariant from a presentation", common(surgery=True),
           cmd_jm),
    "eval": ("specialize the unified invariant", common(surgery=True)
             + _args("mode", choices=tuple(_EVAL_MODES))
             + _args("params", type=int, nargs="*"), cmd_eval),
    "ohtsuki": ("Taylor coefficients at q = 1",
                common(surgery=True) + _args("count", type=int), cmd_ohtsuki),
    "taylor": ("expansion at a root of unity",
               common(surgery=True) + _args("r", "count", type=int),
               cmd_taylor),
    "wrt": ("WRT invariant at a primitive r-th root",
            common(surgery=True) + _args("r", type=int), cmd_wrt),
    "kashaev": ("unified Kashaev invariant of the knot K_(i,j)",
                common() + _args("i", "j", type=int), cmd_kashaev),
    "check": ("run a verification suite",
              _args("suite", nargs="?", default="spec-accept"), cmd_check),
}


def build_parser(only=None):
    """The parser of every command, or of `only` alone (as main builds it:
    argparse set-up is slow next to a quick command); usage names them all."""
    parser = argparse.ArgumentParser(
        prog="uwrt",
        description="Exact quantum invariants of links and integral "
                    "homology spheres")
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in COMMANDS if only is None else (only,):
        help_, groups, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for group in groups:
            target = p if len(group) == 1 else p.add_mutually_exclusive_group()
            for arg, options in group:
                target.add_argument(arg, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        require_positive("depth", getattr(args, "depth", 1))
        return args.func(args)
    except (InputError, ValueError) as exc:   # ValueError: undecodable input
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
