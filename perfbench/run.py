"""Benchmark of the uwrt pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): surgery, wrt_sweep, cli_specialize.  One
process runs one workload on one thread.  The run repeats the seeded op
list ("pass") until --seconds have gone by, checks every output exactly
outside the timed region, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: job_s and job_cpu_s
(median wall and CPU time of one pass), op_p50_s and op_tail_s (median
and tail of single op times), peak_rss_mb and setup_s (median time to
import uwrt and generate and parse the inputs).  Times are scaled to a
reference machine speed; see REFERENCE_S.  With --trace 1 the run times
untraced passes for half of --seconds, then one pass with every layer
probed, and reports the per-layer metrics of probes.LAYER_METRICS.
Inputs, op results and spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
LAYERS = ("laurent", "reps", "tangles", "repring", "invariants", "qhat",
          "evaluate", "cli")
SETUP_REPEATS = 25

# The tail percentile of op times per workload.  Each leaves at least ten
# samples beyond it in a run of MIN_PASSES passes, and falls inside a group
# of ops of like cost rather than between two (at p85, cli_specialize
# would sit on the edge of its two costliest commands).  It is fixed so
# that a faster program, which takes more samples, reports the same
# percentile.
TAIL_PERCENTILE = {"surgery": 70, "wrt_sweep": 90, "cli_specialize": 80}
# Enough passes for ten samples beyond every tail percentile above, also
# when the machine is slow: 36 surgery ops at p70 leave 10.
MIN_PASSES = 6

sys.path.insert(0, os.path.join(ROOT, "src"))

import probes  # noqa: E402
import workloads  # noqa: E402


class Uwrt:
    """The freshly imported layer modules, by name."""

    def __init__(self):
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"uwrt.{name}"))


def fresh_import():
    for name in [n for n in sys.modules
                 if n == "uwrt" or n.startswith("uwrt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    uwrt = Uwrt()
    src = os.path.join(ROOT, "src", "uwrt")
    if os.path.dirname(os.path.abspath(uwrt.cli.__file__)) != src:
        raise ImportError(f"uwrt resolved outside {src}")
    return uwrt


def setup(workload, seed):
    """Import uwrt afresh, generate and parse the inputs; repeated, so the
    reported set-up time is a median."""
    generate, build = workloads.WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        uwrt = fresh_import()
        inputs = generate(seed)
        ops = build(uwrt, inputs)
        times.append(time.perf_counter() - start)
    return uwrt, inputs, ops, statistics.median(times)


# The machine this runs on changes speed by up to a third between runs a
# minute apart, and within a run from one second to the next; a fixed
# pure-Python kernel slows down with it.  Each run times that kernel
# between ops and scales its times by REFERENCE_S / (kernel time), so every
# time metric is stated at the kernel speed measured when the benchmark
# was defined.  The raw times go to the run record.  The kernel does not
# touch uwrt, so no change to the program can move it.
REFERENCE_S = 0.0060
REFERENCE_REPEATS = 3
SEGMENT_S = 0.5


def reference_kernel():
    """Interpreter loop plus big-integer arithmetic, like uwrt's work."""
    acc = 0
    for i in range(75000):
        acc += i * i % 7
    x = 3 ** 4000
    for i in range(190):
        x = (x * 7 + i) % (1 << 6000)
    return acc + x


def machine_speed():
    """Median wall and CPU seconds of the reference kernel."""
    walls, cpus = [], []
    for _ in range(REFERENCE_REPEATS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_kernel()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return statistics.median(walls), statistics.median(cpus)


def run_pass(ops, caches, tracer=None, after_op=None):
    """Run every op once; return (wall s, cpu s, [(op s, output, error)]).

    The pass's wall and CPU time are the sums over its ops, each counted
    from its cache reset to its end.  after_op(wall, cpu, op s) runs after
    each op, outside the timed intervals.
    """
    results = []
    pass_wall = pass_cpu = 0.0
    for i, op in enumerate(ops):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if op.cold:
            probes.reset_caches(caches)
            if tracer is not None:
                tracer.new_session()
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        end, cpu = time.perf_counter(), time.process_time()
        results.append((end - start, output, error))
        pass_wall += end - wall0
        pass_cpu += cpu - cpu0
        if after_op is not None:
            after_op(end - wall0, cpu - cpu0, end - start)
    return pass_wall, pass_cpu, results


def check_pass(ops, results, log):
    """Apply each op's oracle; return the number of failed ops."""
    failed = 0
    for op, (seconds, output, error) in zip(ops, results):
        if error is None:
            try:
                op.check(output)
            except workloads.Mismatch as exc:
                error = f"Mismatch: {exc}"
            except Exception as exc:  # an oracle that raises is a failure
                error = f"oracle {type(exc).__name__}: {exc}"
        failed += error is not None
        log.append({"op": op.label, "seconds": seconds, "error": error})
    return failed


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


class Timings:
    """Pass and op times of one run, raw and at reference speed.

    Ops are grouped into segments of at least SEGMENT_S seconds; the kernel
    is timed at every segment boundary, and the ops of a segment are scaled
    by the mean kernel time at its two ends.
    """

    def __init__(self):
        self.speeds = [machine_speed()]   # kernel (wall, cpu) per boundary
        self.walls, self.cpus, self.op_times = [], [], []
        self.raw_walls, self.raw_cpus = [], []
        self._segment = []                # (wall, cpu, op s) not yet scaled
        self._pass = [0.0, 0.0]           # scaled wall and CPU of the pass

    def after_op(self, wall, cpu, seconds):
        self._segment.append((wall, cpu, seconds))
        if sum(w for w, _, _ in self._segment) >= SEGMENT_S:
            self._close_segment()

    def _close_segment(self):
        if not self._segment:
            return
        self.speeds.append(machine_speed())
        (w0, c0), (w1, c1) = self.speeds[-2:]
        wall_scale = 2 * REFERENCE_S / (w0 + w1)
        cpu_scale = 2 * REFERENCE_S / (c0 + c1)
        for wall, cpu, seconds in self._segment:
            self._pass[0] += wall * wall_scale
            self._pass[1] += cpu * cpu_scale
            self.op_times.append(seconds * wall_scale)
        self._segment = []

    def end_pass(self, raw_wall, raw_cpu):
        self._close_segment()
        self.walls.append(self._pass[0])
        self.cpus.append(self._pass[1])
        self._pass = [0.0, 0.0]
        self.raw_walls.append(raw_wall)
        self.raw_cpus.append(raw_cpu)


def measure(ops, caches, seconds, log, min_passes=1):
    """Untraced passes until `seconds` have gone by and at least
    `min_passes` passes have run."""
    timings = Timings()
    failed = attempted = 0
    start = time.perf_counter()
    while (len(timings.walls) < min_passes
           or time.perf_counter() - start < seconds):
        wall, cpu, results = run_pass(ops, caches,
                                      after_op=timings.after_op)
        timings.end_pass(wall, cpu)
        attempted += len(results)
        failed += check_pass(ops, results, log)
    return timings, attempted, failed


def end_to_end(workload, timings, setup_s, setup_speed):
    """setup_speed: kernel wall time measured just before set-up."""
    op_times = timings.op_times
    pct = TAIL_PERCENTILE[workload]
    beyond = sum(1 for t in op_times if t > percentile(op_times, pct))
    setup_scale = 2 * REFERENCE_S / (setup_speed + timings.speeds[0][0])
    print(f"{workload}: {len(timings.walls)} passes, {len(op_times)} ops; "
          f"op_tail_s is p{pct} with {beyond} samples beyond it")
    print(f"raw median pass: {statistics.median(timings.raw_walls):.4f} s "
          f"wall, {statistics.median(timings.raw_cpus):.4f} s CPU; "
          f"reference kernel {timings.speeds[0][0]:.5f}.."
          f"{timings.speeds[-1][0]:.5f} s (nominal {REFERENCE_S} s)")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s": (statistics.median(timings.walls), "s"),
        "job_cpu_s": (statistics.median(timings.cpus), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_tail_s": (percentile(op_times, pct), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s * setup_scale, "s"),
    }


def traced(uwrt, ops, caches, seconds, log):
    """Untraced passes for half the time, then one probed pass."""
    timings, attempted, failed = measure(ops, caches, seconds / 2, log)
    tracer = probes.Tracer()
    tracer.install(uwrt)
    try:
        traced_wall, _, traced_results = run_pass(ops, caches, tracer)
    finally:
        tracer.uninstall()
    failed += check_pass(ops, traced_results, log)
    values = tracer.metrics()
    values["trace.overhead_s"] = (traced_wall
                                  - statistics.median(timings.raw_walls))
    metrics = {name: (values.get(name, 0), unit)
               for name, unit in probes.LAYER_METRICS}
    return metrics, attempted + len(ops), failed, tracer


def reduce_table(tracer):
    """qhat.reduce self time grouped by the input's max negative q-exponent."""
    table = {}
    for neg, self_s, total_s in tracer.stats["qhat.reduce"].rows:
        row = table.setdefault(neg, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += total_s
    return {str(k): table[k] for k in sorted(table)}


def write_record(name, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    opener = gzip.open if name.endswith(".gz") else open
    with opener(os.path.join(OUT_DIR, name), "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_speed = machine_speed()[0]
    try:
        uwrt, inputs, ops, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import uwrt from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    caches = probes.find_caches()
    if not caches:
        print("error: no uwrt caches found to reset", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = []
    record = {"workload": args.workload, "seed": args.seed,
              "inputs": inputs, "caches": [name for name, _ in caches]}
    if args.trace:
        metrics, attempted, failed, tracer = traced(
            uwrt, ops, caches, args.seconds, log)
        record["reduce_by_neg_q_exp"] = reduce_table(tracer)
        write_record(f"{tag}-spans.json.gz", tracer.span_columns())
    else:
        timings, attempted, failed = measure(ops, caches, args.seconds, log,
                                             MIN_PASSES)
        metrics = end_to_end(args.workload, timings, setup_s, setup_speed)
        record["passes"] = {"wall_s": timings.raw_walls,
                            "cpu_s": timings.raw_cpus,
                            "reference_s": timings.speeds,
                            "raw_setup_s": setup_s}
    record["ops"] = log
    write_record(f"{tag}.json", record)
    for entry in log:
        if entry["error"]:
            print(f"FAILED {entry['op']}: {entry['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
