"""gradedk benchmark: one seeded workload, closed loop, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gradedk checkout; it imports gradedk from ./src and
refuses to run without it. One caller in one process and one thread sends
each operation after the previous one returns. Batches of operations repeat
until --seconds have passed. Every result is checked against an expected
value computed without gradedk (see oracles.py). Times are reported at a
nominal host speed: each batch's times are divided by the host factor that a
reference job, run after every operation, measures (see hostspeed.py); the
raw times are printed beside them.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs untraced batches for half the time, then installs the tracer, repeats
the set-up and runs traced batches for the other half, and reports the
per-layer metrics named there, including the tracing overhead. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from hostspeed import HostGauge

SETUP_REPEATS = 3   # setup_s is the import time plus the median of these
MIN_BATCHES = 3     # with --trace 0, so wall_s is a median of at least three


def percentile(sorted_xs, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


class Outcomes:
    """The operations of one batch and how they fared over its repeats.

    An operation is one position in the seeded batch. It is attempted once
    however often the batch repeats, and it fails if any of its runs fails,
    so `attempted` and `failed` depend on the seed only, not on how many
    batches fit in the time."""

    def __init__(self):
        self.ops = {}                      # batch position -> operation
        self.failing = {}                  # batch position -> first reason
        self.latency = defaultdict(list)   # kind -> seconds of every run

    def record(self, position, op, seconds, reason):
        self.ops[position] = op
        self.latency[op.kind].append(seconds)
        if reason is not None:
            self.failing.setdefault(position, reason)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return len(self.failing)

    @property
    def unexpected(self):
        """Failures outside the known defects."""
        return sum(1 for i in self.failing if not self.ops[i].known_defect)


def check(op, result, exc):
    if exc is not None:
        return "raised %s: %s" % (type(exc).__name__, exc)
    try:
        return op.check(result)
    except Exception as err:   # a result the check cannot read is a wrong result
        return "unreadable result (%s: %s)" % (type(err).__name__, err)


@dataclass
class Batch:
    latencies: list   # raw seconds of each operation, ascending
    factor: float     # host factor over the batch

    @property
    def seconds(self):
        """Raw wall time of the batch's operations, run back to back."""
        return sum(self.latencies)


def run_batches(ops, seconds, min_batches, outcomes, tracer=None):
    """Repeat the batch `ops` until `seconds` have passed and at least
    `min_batches` ran. Only the calls into gradedk are timed; the reference
    job after each call and the checks after the batch are not."""
    from sympy.core.cache import clear_cache
    batches = []
    op_id = 0
    start = time.perf_counter()
    while len(batches) < min_batches or time.perf_counter() - start < seconds:
        clear_cache()   # every batch starts with sympy's cache empty
        gc.collect()
        gauge = HostGauge()
        results = []
        for op in ops:
            if tracer is not None:
                tracer.op = op_id
            op_id += 1
            t = time.perf_counter()
            try:
                res, exc = op.call(), None
            except Exception as err:
                res, exc = None, err
            results.append((time.perf_counter() - t, res, exc))
            gauge.run()
        batches.append(Batch(sorted(r[0] for r in results), gauge.factor()))
        for i, (op, (seconds_taken, res, exc)) in enumerate(zip(ops, results)):
            outcomes.record(i, op, seconds_taken, check(op, res, exc))
    return batches


def normalized(batches, value):
    """Median over batches of value(batch) / host factor."""
    return statistics.median(value(b) / b.factor for b in batches)


def print_outcomes(outcomes):
    failures = Counter(outcomes.ops[i].kind for i in outcomes.failing)
    reasons, defects = {}, Counter()
    for i, reason in sorted(outcomes.failing.items()):
        op = outcomes.ops[i]
        reasons.setdefault(op.kind, reason)
        if op.known_defect:
            defects[op.known_defect] += 1
    print("%-44s %5s %9s %9s %7s" % ("operation kind", "runs", "p50 ms", "max ms", "failed"))
    for kind in sorted(outcomes.latency):
        xs = sorted(outcomes.latency[kind])
        print("%-44s %5d %9.3f %9.3f %7d" % (kind, len(xs), 1e3 * percentile(xs, 0.5),
                                              1e3 * xs[-1], failures[kind]))
    for kind, reason in sorted(reasons.items()):
        print("first failure of %s: %s" % (kind, reason))
    for text, n in defects.items():
        print("known defect, %d failed operations: %s" % (n, text))
    print("failed_frac: %.4f (%d of %d operations)" % (outcomes.failed / outcomes.attempted,
                                                       outcomes.failed, outcomes.attempted))


def end_to_end(workload, seed, workdir, seconds, import_s, import_factor):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        gauge = HostGauge().run(20)
        t = time.perf_counter()
        ops = workload(seed, workdir)
        raw_setups.append(time.perf_counter() - t)
        setups.append(raw_setups[-1] / gauge.run(20).factor())
    outcomes = Outcomes()
    batches = run_batches(ops, seconds, MIN_BATCHES, outcomes)
    print_outcomes(outcomes)
    n = len(batches[0].latencies)
    print("raw batch seconds: %s" % " ".join("%.3f" % b.seconds for b in batches))
    print("host factors:      %s" % " ".join("%.3f" % b.factor for b in batches))
    print("operation latency samples: %d batches of %d (%d beyond p90 in each)"
          % (len(batches), n, n - math.ceil(0.9 * n)))
    print("raw setup: import %.3f s (host factor %.3f) + median of %s s"
          % (import_s, import_factor, " ".join("%.3f" % s for s in raw_setups)))
    print("raw wall_s %.4f s, op_p50_ms %.4f, op_p90_ms %.4f" % (
        statistics.median(b.seconds for b in batches),
        1e3 * statistics.median(percentile(b.latencies, 0.5) for b in batches),
        1e3 * statistics.median(percentile(b.latencies, 0.9) for b in batches)))
    metrics = {
        "wall_s": normalized(batches, lambda b: b.seconds),
        "op_p50_ms": 1e3 * normalized(batches, lambda b: percentile(b.latencies, 0.5)),
        "op_p90_ms": 1e3 * normalized(batches, lambda b: percentile(b.latencies, 0.9)),
        "setup_s": import_s / import_factor + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, outcomes


def per_layer(workload, seed, workdir, seconds, out_path):
    import gradedk
    import sympy
    from tracer import SPANS, Tracer

    outcomes = Outcomes()
    ops = workload(seed, workdir)
    plain = run_batches(ops, seconds / 2, 1, outcomes)
    tracer = Tracer()
    tracer.install(gradedk, extra_targets=[(sympy, "factor_list", "sympy.factor_list")])
    gauge = HostGauge().run(20)
    ops = workload(seed, workdir)
    setup_factor = gauge.run(20).factor()
    setup = tracer.take_totals()
    traced = run_batches(ops, seconds / 2, 1, outcomes, tracer)
    totals = tracer.take_totals()
    tracer.write(out_path)
    print_outcomes(outcomes)
    overhead = (normalized(traced, lambda b: b.seconds)
                - normalized(plain, lambda b: b.seconds))
    for label, batches in (("untraced", plain), ("traced", traced)):
        print("raw %s batch seconds: %s (host factors %s)" % (
            label, " ".join("%.3f" % b.seconds for b in batches),
            " ".join("%.3f" % b.factor for b in batches)))
    print("spans: %d written to %s" % (len(tracer.span_id), out_path))

    # per traced batch; self times at nominal host speed like the end-to-end times
    nb = len(traced)
    scale = nb * statistics.median(b.factor for b in traced)
    metrics = {"bench.trace_overhead_s": overhead,
               "setup.algebra.construct.calls": setup["calls"]["algebra.construct"],
               "setup.algebra.construct.self_s": setup["self_s"]["algebra.construct"] / setup_factor}
    layers = Counter()
    for name, _, _ in SPANS + [("sympy.factor_list", None, None)]:
        metrics[name + ".calls"] = totals["calls"][name] / nb
        metrics[name + ".self_s"] = totals["self_s"][name] / scale
        layers[name.split(".")[0]] += totals["self_s"][name] / scale
    for layer, value in layers.items():
        metrics["layer.%s.self_s" % layer] = value
    metrics["fields.scalar.calls"] = totals["counts"]["fields.scalar"] / nb
    metrics["algebra.scan.elements"] = totals["counts"]["algebra.scan.elements"] / nb
    routes = totals["routes"]
    metrics["trace.min_poly_route_share"] = (routes["min-poly-power"] / sum(routes.values())
                                             if routes else 0.0)
    blocks = totals["blocks_resolved"]
    metrics["ktheory.minpoly_per_block"] = totals["minpoly_in_split"] / blocks if blocks else 0.0
    print("trace.min_poly_route_share base: %d reduced_char_poly results"
          % sum(routes.values()))
    print("ktheory.minpoly_per_block base: %d minimal_polynomial calls in splits, %d resolved blocks"
          % (totals["minpoly_in_split"], blocks))
    return metrics, outcomes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gradedk", "__init__.py")):
        print("perfbench: no src/gradedk under %s; run from the root of a gradedk checkout"
              % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    gauge = HostGauge().run(20)   # the import's host factor: jobs before and after it
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import gradedk
    if os.path.dirname(os.path.abspath(gradedk.__file__)) != os.path.join(src, "gradedk"):
        print("perfbench: imported gradedk from %s, not from %s" % (gradedk.__file__, src),
              file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - t0
    import_factor = gauge.run(20).factor()

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_dir, args.workload)
    os.makedirs(workdir, exist_ok=True)

    print("workload %s, seed %d, %.1f s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        names = spec["per_layer"]
        metrics, outcomes = per_layer(workload, args.seed, workdir, args.seconds,
                                      os.path.join(out_dir, "spans-%s.tsv" % args.workload))
    else:
        names = spec["end_to_end"]
        metrics, outcomes = end_to_end(workload, args.seed, workdir, args.seconds,
                                       import_s, import_factor)
    result = {}
    for m in names:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print("%-44s %14.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({"correct": outcomes.unexpected == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
