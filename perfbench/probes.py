"""Cache reset and layer tracing, applied to ``uwrt`` from outside.

Nothing under ``src/`` is edited.  Caches are found by introspection and
layers are timed by wrapping their public functions: the wrapper is
bound under every ``uwrt.*`` module attribute that holds the original,
because the modules import each other's functions by name.
"""

from __future__ import annotations

import sys
from time import perf_counter


def uwrt_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "uwrt" or name.startswith("uwrt."))]


def _unwrap_to_cache(obj):
    """The lru_cache wrapper under any tracing wrappers, or None."""
    for _ in range(8):
        if callable(getattr(obj, "cache_clear", None)):
            return obj
        obj = getattr(obj, "__wrapped__", None)
        if obj is None:
            return None
    return None


def find_caches():
    """Every module-level cache in ``uwrt.*``: lru_cache wrappers (also
    under tracing wrappers) and containers whose name contains "cache"."""
    found = {}
    for mod in uwrt_modules():
        for attr, value in vars(mod).items():
            cached = _unwrap_to_cache(value)
            if cached is not None:
                label = f"{cached.__module__}.{cached.__qualname__}"
                found.setdefault(id(cached), (label, cached))
            elif ("cache" in attr.lower()
                  and callable(getattr(value, "clear", None))
                  and hasattr(value, "__len__")):
                found.setdefault(id(value), (f"{mod.__name__}.{attr}", value))
    return sorted(found.values(), key=lambda item: item[0])


def _size(cache):
    if hasattr(cache, "cache_info"):
        return cache.cache_info().currsize
    return len(cache)


def reset_caches(caches):
    """Clear every cache and fail loudly if one is not empty afterwards,
    so a cold workload can never run warm without notice."""
    for name, cache in caches:
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
        else:
            cache.clear()
    left = [name for name, cache in caches if _size(cache)]
    if left:
        raise RuntimeError(f"caches not empty after reset: {left}")


# -- tracing ------------------------------------------------------------------

# (metric prefix, module, attribute path); a path with a dot is a method.
PROBES = (
    ("tangles.colored_jones", "tangles", "colored_jones"),
    ("reps.braiding", "reps", "braiding"),
    ("invariants.jm_from_surgery", "invariants", "jm_from_surgery"),
    ("invariants.wrt", "invariants", "wrt"),
    ("invariants.jm_borromean", "invariants", "jm_borromean"),
    ("invariants.knot_borromean", "invariants", "knot_borromean"),
    ("repring.omega_coeff", "repring", "omega_coeff"),
    ("qhat.reduce", "qhat", "reduce"),
    ("qhat.eval_root", "qhat", "eval_root"),
    ("qhat.taylor", "qhat", "taylor"),
    ("evaluate.eval_rational", "evaluate", "eval_rational"),
    ("evaluate.eval_padic", "evaluate", "eval_padic"),
    ("evaluate.modp_value", "evaluate", "modp_value"),
    ("laurent.mul", "laurent", "LaurentU.__mul__"),
    ("laurent.exact_div", "laurent", "LaurentU.exact_div"),
    ("laurent.reduce_mod", "laurent", "reduce_mod"),
    ("laurent.modpoly_mul", "laurent", "ModPoly.__mul__"),
    ("cli.main", "cli", "main"),
)

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = (
    ("tangles.colored_jones.calls", "count"),
    ("tangles.colored_jones.self_s", "s"),
    ("tangles.colored_jones.repeat_ratio", "ratio"),
    ("tangles.colored_jones.max_coeff_bits", "bits"),
    ("tangles.colored_jones.zero_coeff_ratio", "ratio"),
    ("reps.braiding.calls", "count"),
    ("reps.braiding.self_s", "s"),
    ("invariants.jm_from_surgery.self_s", "s"),
    ("invariants.wrt.calls", "count"),
    ("invariants.wrt.self_s", "s"),
    ("invariants.jm_borromean.self_s", "s"),
    ("invariants.knot_borromean.self_s", "s"),
    ("repring.omega_coeff.calls", "count"),
    ("repring.omega_coeff.self_s", "s"),
    ("repring.omega_coeff.repeat_ratio", "ratio"),
    ("qhat.reduce.calls", "count"),
    ("qhat.reduce.self_s", "s"),
    ("qhat.reduce.total_s", "s"),
    ("qhat.reduce.max_neg_q_exp", "count"),
    ("qhat.eval_root.calls", "count"),
    ("qhat.eval_root.self_s", "s"),
    ("qhat.taylor.calls", "count"),
    ("qhat.taylor.self_s", "s"),
    ("evaluate.eval_rational.self_s", "s"),
    ("evaluate.eval_padic.self_s", "s"),
    ("evaluate.modp_value.self_s", "s"),
    ("laurent.mul.calls", "count"),
    ("laurent.mul.coeff_products", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.exact_div.self_s", "s"),
    ("laurent.reduce_mod.calls", "count"),
    ("laurent.reduce_mod.self_s", "s"),
    ("laurent.modpoly_mul.calls", "count"),
    ("laurent.modpoly_mul.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Stat:
    """Counts of one probe; ``rows`` holds per-call records."""

    __slots__ = ("calls", "self_s", "repeats", "seen", "extra", "rows")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.repeats = 0
        self.seen = set()
        self.extra = {}
        self.rows = []

    def bump(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n

    def peak(self, key, n):
        self.extra[key] = max(self.extra.get(key, 0), n)


def _coeffs(x):
    return getattr(x, "coeffs", None) or ()


# Observers record counts at the wrapper:
# observe(stat, args, result, total seconds, self seconds).

def _observe_jones(stat, args, result, total_s, self_s):
    d, colors = args[0], args[1]
    _repeat(stat, (getattr(d, "slices", id(d)), tuple(colors)))
    coeffs = _coeffs(result)
    stat.bump("coeff_entries", len(coeffs))
    stat.bump("zero_coeffs", sum(1 for c in coeffs if not c))
    stat.peak("max_coeff_bits", max((abs(c).bit_length() for c in coeffs),
                                    default=0))


def _observe_omega(stat, args, result, total_s, self_s):
    _repeat(stat, tuple(args))


def _observe_reduce(stat, args, result, total_s, self_s):
    x, d = args[0], args[1]
    # J_M's lowest q-exponent over the summed slots; (q)_n has none below 0.
    lows = [t.min for t in x.terms[:d] if _coeffs(t)]
    neg = max(0, -(min(lows) // 4)) if lows else 0
    stat.peak("max_neg_q_exp", neg)
    # Most of reduce's time is in its laurent.mul children, so its total
    # time is kept next to its self time.
    stat.bump("total_s", total_s)
    stat.rows.append((neg, self_s, total_s))


def _observe_mul(stat, args, result, total_s, self_s):
    a, b = args
    stat.bump("coeff_products", len(_coeffs(a)) * len(_coeffs(b)))


def _observe_main(stat, args, result, total_s, self_s):
    out = sys.stdout
    if hasattr(out, "getvalue"):
        stat.bump("stdout_bytes", len(out.getvalue().encode()))


def _repeat(stat, key):
    if key in stat.seen:
        stat.repeats += 1
    else:
        stat.seen.add(key)


OBSERVERS = {
    "tangles.colored_jones": _observe_jones,
    "repring.omega_coeff": _observe_omega,
    "qhat.reduce": _observe_reduce,
    "laurent.mul": _observe_mul,
    "cli.main": _observe_main,
}


class Tracer:
    """Spans and counts recorded at the probe wrappers.

    A span is (name, start, end, parent span index, op id); self time is
    a span's duration minus the time of its child spans.
    """

    def __init__(self):
        self.names = [p[0] for p in PROBES]
        self.stats = {name: Stat() for name in self.names}
        self.spans = []
        self.stack = []     # [span index, child seconds] per open span
        self.op_id = -1
        self._restore = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self.stack
        tracer = self

        def probe(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name_id, start, end, parent, tracer.op_id)
                stat.calls += 1
                stat.self_s += dur - frame[1]
            if observe is not None:
                observe(stat, args, result, dur, dur - frame[1])
            return result

        probe.__wrapped__ = fn
        probe.__name__ = getattr(fn, "__name__", name)
        return probe

    def install(self, uwrt):
        """Bind a probe in place of every original, wherever it is bound."""
        mods = uwrt_modules()
        for name, module, path in PROBES:
            mod = getattr(uwrt, module)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                probe = self._wrap(name, orig)
                for attr, value in list(vars(cls).items()):
                    if value is orig:
                        self._restore.append((cls, attr, value))
                        setattr(cls, attr, probe)
                continue
            orig = getattr(mod, path)
            probe = self._wrap(name, orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, probe)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def new_session(self):
        """Caches were cleared: repeats count from here."""
        for stat in self.stats.values():
            stat.seen.clear()

    def metrics(self):
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.repeat_ratio"] = (stat.repeats / stat.calls
                                           if stat.calls else 0.0)
            for key, value in stat.extra.items():
                out[f"{name}.{key}"] = value
        jones = self.stats["tangles.colored_jones"].extra
        entries = jones.get("coeff_entries", 0)
        out["tangles.colored_jones.zero_coeff_ratio"] = (
            jones.get("zero_coeffs", 0) / entries if entries else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def span_columns(self):
        """The spans as columns; times in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        cols = list(zip(*self.spans)) or [()] * 5
        return {"names": self.names,
                "name": list(cols[0]),
                "start_us": [round((t - t0) * 1e6) for t in cols[1]],
                "end_us": [round((t - t0) * 1e6) for t in cols[2]],
                "parent": list(cols[3]),
                "op": list(cols[4])}
