"""Command-line interface.

Subcommands: jones, jm, eval, ohtsuki, taylor, wrt, kashaev, check.
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
from .errors import DomainError, InputError, UnknownName
from .evaluate import (check_modp, check_padic, check_rational, eval_padic,
                       eval_rational, modp_nonvanishing, modp_value)
from .invariants import (SurgeryPresentation, jm_from_surgery,
                         knot_borromean, ohtsuki, read_text, theta0, wrt)
from .qhat import eval_root, reduce, taylor
from .tangles import BUILTIN_NAMES, builtin, colored_jones, parse_diagram



def _load_diagram(args):
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    if getattr(args, "diagram", None):
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


def _check_positive(name, value):
    """Reject a bad count or order before any surgery sum is paid for."""
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")


def _emit(args, human_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)
    return 0


def _habiro_lines(x, depth):
    lines = []
    for n, c in enumerate(x.terms):
        if not c.is_zero():
            lines.append(f"slot {n}: {c.to_str()}")
    if not lines:
        lines.append("0")
    lines.append(f"reduced mod (q)_{depth}: {reduce(x, depth).to_str()}")
    return lines


def _modpoly_str(m):
    coeffs = ", ".join(str(c) for c in m.coeffs)
    modulus = ", ".join(str(c) for c in m.modulus)
    return f"[{coeffs}] with modulus [{modulus}]"


def cmd_jones(args):
    d = _load_diagram(args)
    value = colored_jones(d, tuple(args.colors))
    return _emit(args, [value.to_str()],
                 {"command": "jones", "value": value.to_json()})


def cmd_jm(args):
    pres = _load_presentation(args)
    x = jm_from_surgery(pres, args.depth)
    return _emit(args, _habiro_lines(x, args.depth),
                 {"command": "jm", "element": x.to_json(),
                  "reduced": reduce(x, args.depth).to_json()})


# what each mode rejects in its parameters alone, checked before the
# surgery sum is paid for
_EVAL_CHECKS = {"root": lambda r: _check_positive("r", r),
                "rational": check_rational,
                "padic": check_padic,
                "modp": check_modp,
                "modp-scan": lambda p, rmax: check_modp(p, 1)}


def _depth_for_eval(mode, params, default):
    if mode == "root":
        return max(default, params[0])
    if mode == "modp":
        return max(default, params[1])
    return default


def cmd_eval(args):
    mode = args.mode
    params = args.params
    need = {"root": 1, "rational": 3, "padic": 3, "modp": 2,
            "modp-scan": 2}.get(mode)
    if need is None:
        raise UnknownName(f"unknown eval mode {mode!r}")
    if len(params) != need:
        raise UnknownName(f"mode {mode} takes {need} parameters")
    pres = _load_presentation(args)
    _EVAL_CHECKS[mode](*params)
    x = jm_from_surgery(pres, _depth_for_eval(mode, params, args.depth))
    if mode == "root":
        val = eval_root(x, params[0])
        human = str(val) if isinstance(val, int) else _modpoly_str(val)
        payload = val if isinstance(val, int) else val.to_json()
        return _emit(args, [human], {"command": "eval", "mode": mode,
                                     "params": params, "value": payload})
    if mode == "rational":
        rv = eval_rational(x, *params)
    elif mode == "padic":
        rv = eval_padic(x, *params)
    elif mode == "modp":
        rv = modp_value(x, *params)
        flag = modp_nonvanishing(rv.value)
        lines = [_modpoly_str(rv.value), f"nonvanishing: {flag}"]
        return _emit(args, lines, {"command": "eval", "mode": mode,
                                   "params": params,
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
        return _emit(args, lines, {"command": "eval", "mode": mode,
                                   "params": params, "rows": rows})
    return _emit(args, [f"{rv.value} (mod descriptor {rv.modulus})"],
                 {"command": "eval", "mode": mode, "params": params,
                  "value": rv.to_json()})


def cmd_ohtsuki(args):
    _check_positive("coefficient count", args.count)
    pres = _load_presentation(args)
    x = jm_from_surgery(pres, args.count)
    lams = ohtsuki(x, args.count)
    return _emit(args, [" ".join(str(v) for v in lams)],
                 {"command": "ohtsuki", "coefficients": lams})


def cmd_taylor(args):
    _check_positive("r", args.r)
    _check_positive("coefficient count", args.count)
    pres = _load_presentation(args)
    x = jm_from_surgery(pres, args.r * args.count)
    coeffs = taylor(x, args.r, args.count)
    lines = [f"h^{k}: {_modpoly_str(c)}" for k, c in enumerate(coeffs)]
    return _emit(args, lines,
                 {"command": "taylor", "r": args.r,
                  "coefficients": [c.to_json() for c in coeffs]})


def cmd_wrt(args):
    pres = _load_presentation(args)
    val = wrt(pres, args.r)
    human = str(val) if isinstance(val, int) else _modpoly_str(val)
    payload = val if isinstance(val, int) else val.to_json()
    return _emit(args, [human],
                 {"command": "wrt", "r": args.r, "value": payload})


def cmd_kashaev(args):
    x = theta0(knot_borromean(args.i, args.j, args.depth))
    return _emit(args, _habiro_lines(x, args.depth),
                 {"command": "kashaev", "i": args.i, "j": args.j,
                  "element": x.to_json()})


def cmd_check(args):
    if args.suite != "spec-accept":
        raise UnknownName(f"unknown check suite {args.suite!r}")
    return 0 if accept.run() else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uwrt",
        description="Exact quantum invariants of links and integral "
                    "homology spheres")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surgery=False, diagram=False):
        p.add_argument("--depth", type=int, default=10,
                       help="truncation depth (default 10)")
        p.add_argument("--format", choices=("human", "json"),
                       default="human")
        if surgery:
            p.add_argument("--surgery",
                           help="surgery presentation JSON (file or inline)")
        if diagram:
            p.add_argument("--builtin", choices=BUILTIN_NAMES)
            p.add_argument("--diagram", help="diagram file")

    p = sub.add_parser("jones", help="colored Jones value of a diagram")
    common(p, diagram=True)
    p.add_argument("colors", type=int, nargs="+")
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("jm", help="unified invariant from a presentation")
    common(p, surgery=True)
    p.set_defaults(func=cmd_jm)

    p = sub.add_parser("eval", help="specialize the unified invariant")
    common(p, surgery=True)
    p.add_argument("mode",
                   choices=("root", "rational", "padic", "modp",
                            "modp-scan"))
    p.add_argument("params", type=int, nargs="*")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ohtsuki", help="Taylor coefficients at q = 1")
    common(p, surgery=True)
    p.add_argument("count", type=int)
    p.set_defaults(func=cmd_ohtsuki)

    p = sub.add_parser("taylor", help="expansion at a root of unity")
    common(p, surgery=True)
    p.add_argument("r", type=int)
    p.add_argument("count", type=int)
    p.set_defaults(func=cmd_taylor)

    p = sub.add_parser("wrt", help="WRT invariant at a primitive r-th root")
    common(p, surgery=True)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_wrt)

    p = sub.add_parser("kashaev",
                       help="unified Kashaev invariant of the knot K_(i,j)")
    common(p)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_kashaev)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", nargs="?", default="spec-accept")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "depth", 1) < 1:
        print("error: depth must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
