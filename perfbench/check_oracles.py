"""Check that every workload's checker counts wrong outputs as failures.

For each workload, the first op of seed 1 is run once.  Its real output
must pass; a deliberately wrong value, fed both to a fresh checker and
after the real output, must each count as one failure; an op that raises
must count as one failure.  Each independent CLI oracle must also catch a
wrong value when the stdout digest is forged to match it.  Run from the
repository root:

    python3 perfbench/check_oracles.py
"""

from __future__ import annotations

import sys

import probes
import run
import workloads


def _wrong_habiro(x):
    return type(x)(x.depth, [x.terms[0] + 1] + list(x.terms[1:]))


def _wrong_modpoly(v):
    return v + 1


def _wrong_stdout(result):
    """Change one digit of the printed value."""
    rc, text = result
    if text.startswith("modulus-type"):      # modp-scan: the value column
        start = text.index("\n") + 1
        start = text.index(",", text.index(",", text.index(",", start) + 1)
                           + 1) + 1
    else:
        start = text.find("[") + 1           # 0 when there is no list
    i = next(k for k in range(start, len(text)) if text[k].isdigit())
    return rc, text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


WRONG = {"surgery": _wrong_habiro, "wrt_sweep": _wrong_modpoly,
         "cli_specialize": _wrong_stdout}


def failures(ops, outputs):
    return run.check_pass(ops, [(0.0, out, None) for out in outputs], [])


def check(workload):
    generate, build = workloads.WORKLOADS[workload]
    uwrt = run.fresh_import()
    inputs = generate(1)
    caches = probes.find_caches()
    probes.reset_caches(caches)
    ops = build(uwrt, inputs)[:1]
    _, _, results = run.run_pass(ops, caches)
    real = results[0][1]
    wrong = WRONG[workload](real)
    fresh = build(uwrt, inputs)[:1]
    raising = [workloads.Op("raises", lambda: 1 // 0, False, ops[0].check)]
    _, _, raised = run.run_pass(raising, caches)
    counts = {
        "real output": (failures(ops, [real]), 0),
        "wrong output, fresh checker": (failures(fresh, [wrong]), 1),
        "wrong output after the real one": (failures(ops, [wrong]), 1),
        "op that raises": (run.check_pass(raising, raised, []), 1),
    }
    ok = True
    for case, (got, want) in counts.items():
        status = "ok" if got == want else "WRONG"
        ok &= got == want
        print(f"{workload}: {case}: {got} failure(s), expected {want}: "
              f"{status}")
    return ok


def check_cli_semantics():
    """Each independent CLI oracle must catch a wrong value on its own,
    with the digest forged to match the wrong stdout."""
    uwrt = run.fresh_import()
    caches = probes.find_caches()
    ok = True
    for stratum, options in workloads.CLI_STRATA:
        argv = options[0]
        if argv[0] not in ("eval", "ohtsuki", "taylor"):
            continue
        probes.reset_caches(caches)
        wrong = _wrong_stdout(workloads.run_cli(uwrt.cli, argv))
        forged = {workloads.argv_key(argv): workloads.stdout_digest(*wrong)}
        ops = workloads.cli_build(uwrt, [argv], forged)
        got = failures(ops, [wrong])
        ok &= got == 1
        print(f"cli_specialize: {stratum} oracle with a forged digest: "
              f"{got} failure(s), expected 1: {'ok' if got == 1 else 'WRONG'}")
    return ok


def main():
    results = [check(w) for w in workloads.WORKLOADS]
    results.append(check_cli_semantics())
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
