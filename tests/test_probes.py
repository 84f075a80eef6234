"""The benchmark's cache finder sees the caches of the contraction
engine, so none of them can turn a cold workload warm unnoticed."""

import importlib.util
from pathlib import Path

from uwrt.invariants import borromean_presentation, jm_borromean, wrt

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"

CACHES = ("uwrt.tangles._packed_block", "uwrt.tangles._transposed",
          "uwrt.tangles.pfall", "uwrt.tangles.pbinom",
          "uwrt.tangles._packed_weight", "uwrt.tangles._closed",
          "uwrt.tangles._weighted")


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes


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
