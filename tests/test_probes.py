"""The benchmark's cache finder sees the caches of the contraction
engine, so none of them can turn a cold workload warm unnoticed, and
every name that its probes and workloads bind still resolves."""

import importlib.util
from pathlib import Path

import uwrt
from uwrt.invariants import borromean_presentation, jm_borromean, wrt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PROBES = PERFBENCH / "probes.py"

CACHES = ("uwrt.tangles._packed_block",
          "uwrt.tangles.pfall", "uwrt.tangles.pbinom",
          "uwrt.tangles._packed_weight", "uwrt.tangles._closed",
          "uwrt.tangles._weighted", "uwrt.tangles._cut_plan")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_probes():
    return _load("perfbench_probes", PROBES)


def _size(cache):
    return cache.cache_info().currsize if hasattr(cache, "cache_info") \
        else len(cache)


def test_probes_find_and_clear_the_packed_caches():
    probes = _load_probes()
    wrt(borromean_presentation((1, -1, 1)), 4)
    caches = probes.find_caches()
    found = dict(caches)
    for name in CACHES:
        assert _size(found[name]), name
    probes.reset_caches(caches)
    assert [name for name in CACHES if _size(found[name])] == []


def test_probes_find_and_clear_the_borromean_factor():
    probes = _load_probes()
    caches = probes.find_caches()
    factor = dict(caches)["uwrt.invariants._borromean_factor"]
    probes.reset_caches(caches)
    jm_borromean(1, -1, 2, 4)
    assert _size(factor) == 4
    probes.reset_caches(caches)
    assert _size(factor) == 0


# the top-level call of each workload's ops, probed by the tracer
ENTRY_PROBES = {"surgery": "invariants.jm_from_surgery",
                "wrt_sweep": "invariants.wrt", "cli_specialize": "cli.main"}


def test_benchmark_names_resolve():
    # the tracer binds a probe to every name in probes.PROBES and each
    # workload builds its ops from uwrt's names: a name deleted from uwrt
    # fails here, not first in a traced benchmark run
    probes = _load_probes()
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    for _, module, _ in probes.PROBES:
        importlib.import_module(f"uwrt.{module}")
    tracer = probes.Tracer()
    tracer.install(uwrt)
    try:
        for name, (generate, build) in workloads.WORKLOADS.items():
            op = build(uwrt, generate(1))[0]
            op.check(op.run())
            assert tracer.stats[ENTRY_PROBES[name]].calls, name
    finally:
        tracer.uninstall()
    assert not hasattr(uwrt.invariants.wrt, "__wrapped__")
