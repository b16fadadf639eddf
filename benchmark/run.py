#!/usr/bin/env python3
"""Benchmark of the irredtest library, run in-process from outside it.

    python3 benchmark/run.py --workload trap-verdict --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
One process, one thread, closed loop: each item finishes before the next
starts.  Workloads are described in workloads.py and NOTES.md.

--trace 0 sets up the workload, runs one warm-up round, then whole
passes over the run's inputs for --seconds, on the allowed CPUs in turn
and with set-ups between passes, and reports the end-to-end metrics.
Each input is timed by its fastest pass; setup_s is the median set-up.
--trace 1 runs a fixed number of rounds, derived
from --seconds and the workload's nominal round time, once plain and
once under the tracer of layertrace.py, and reports the per-layer
metrics; its counts repeat exactly for a given seed and --seconds.

Every output is checked against reference.json.  Progress notes go to
stderr; stdout ends with a run record line and the result line.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up runs once before the timed phase and then after each pass, for
# at least SETUP_PER_PASS_S each time, so that its median spans the run
# and rests on many set-ups; at least SETUP_MIN_RUNS in all
SETUP_MIN_RUNS = 5
SETUP_PER_PASS_S = 0.25

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


def load_library():
    """irredtest from this checkout's src/, never an installed copy."""
    package = os.path.join(ROOT, "src", "irredtest")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no irredtest sources at {package}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import irredtest
    import irredtest.cli  # noqa: F401  (items call irredtest.cli.main)

    if os.path.dirname(os.path.abspath(irredtest.__file__)) != package:
        sys.exit(f"error: imported irredtest from {irredtest.__file__}")
    return irredtest


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "loadavg_start": os.getloadavg(),
    }


def git_rev():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rounds(workload, state, first, stop, tracer=None):
    """Run rounds from `first` until stop(rounds_done, elapsed) holds.

    Returns ([(kind, key, seconds, points, value, error)], elapsed).
    """
    perf = time.perf_counter
    records = []
    start = perf()
    r = first
    while True:
        for kind, key, call in workload.round(state, r):
            if tracer is not None:
                tracer.kind = kind
            t0 = perf()
            try:
                points, value = call()
            except Exception as exc:  # an item that raises counts as failed
                records.append((kind, key, perf() - t0, 0, None, f"{key}: {exc!r}"))
                continue
            records.append((kind, key, perf() - t0, points, value, None))
        r += 1
        if stop(r - first, perf() - start):
            return records, perf() - start


def verify(workload, reference, records):
    """(failed items, messages, summary checks passed) for a run's records."""
    failed, messages, values = 0, [], {}
    for kind, key, _, _, value, error in records:
        if error is None:
            want = reference.get(key)
            if want is None:
                error = f"{key}: no reference value"
            else:
                error = workload.check(key, value, want)
        if error:
            failed += 1
            messages.append(error)
        else:
            values[key] = value
    summary = workload.summary_errors(values)
    return failed, messages + summary, not summary


def tail(latencies):
    """(value, percentile): the highest order statistic with 10 samples
    above it, or the maximum when that statistic would not lie above the
    median (21 samples or fewer)."""
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) > 21 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def plain_run(workload, seconds, record):
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return state

    state = timed_setup()
    warm, _ = run_rounds(workload, state, 0, lambda rounds, _: rounds == 1)
    # whole passes, each visiting every input once, until --seconds is up;
    # an input's latency is its fastest pass, which drops the seconds-long
    # stretches in which the host slows a CPU.  Passes take the allowed
    # CPUs in turn, one at a time: the host slows each CPU at its own
    # times, so the fastest pass is the time on the least contended one.
    cpus = sorted(os.sched_getaffinity(0))
    per_pass = workload.PASS_ROUNDS
    timed, passes, start = [], 0, time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        records, _ = run_rounds(workload, state, 0, lambda rounds, _: rounds == per_pass)
        timed += records
        passes += 1
        setup_start = time.perf_counter()
        while time.perf_counter() - setup_start < SETUP_PER_PASS_S:
            timed_setup()
    elapsed = time.perf_counter() - start
    while len(setup_times) < SETUP_MIN_RUNS:
        timed_setup()
    os.sched_setaffinity(0, cpus)
    best = {}
    for _, key, latency, points, _, error in timed:
        if error is None and (key not in best or latency < best[key][0]):
            best[key] = (latency, points)
    latencies = [latency for latency, _ in best.values()]
    tail_s, tail_pct = tail(latencies)
    record.update(
        setup_runs=len(setup_times),
        timed_s=elapsed,
        passes=passes,
        cpus=cpus,
        latency_samples=len(latencies),
        latency_tail_percentile=tail_pct,
    )
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "points_per_s": sum(points for _, points in best.values()) / sum(latencies),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return warm + timed, metrics, END_TO_END


def traced_run(workload, seconds, record):
    rounds = max(1, math.ceil(seconds / 2 / workload.ROUND_S))
    stop = lambda done, _: done == rounds  # noqa: E731

    def timed_pass(tracer=None):
        t0 = time.perf_counter()
        state = workload.setup()
        records, _ = run_rounds(workload, state, 0, stop, tracer)
        return records, time.perf_counter() - t0

    warm, _ = run_rounds(workload, workload.setup(), 0, lambda done, _: done == 1)
    plain, plain_s = timed_pass()
    tracer = layertrace.Tracer()
    with tracer:
        traced, traced_s = timed_pass(tracer)
    metrics = tracer.metrics(traced_s / plain_s)
    idle = [name for name in workload.EXPECT_NONZERO if not metrics[name]]
    if idle:
        raise layertrace.TraceError(f"layers recorded no work on {workload.name}: {idle}")
    record.update(rounds=rounds, plain_pass_s=plain_s, traced_pass_s=traced_s)
    record["spans_file"] = write_spans(workload, tracer)
    return warm + plain + traced, metrics, layertrace.PER_LAYER


def write_spans(workload, tracer):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-{workload.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["id", "parent", "name", "start", "end"],
                "spans": tracer.spans,
                "self_s": tracer.span_self,
            },
            fh,
        )
    return os.path.relpath(path, ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True

    lib = load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    workload = workloads.WORKLOADS[args.workload](lib, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    record.update(machine_record())
    inputs = json.dumps(workload.inputs(), sort_keys=True).encode()
    record["inputs_sha256"] = hashlib.sha256(inputs).hexdigest()

    if args.trace:
        records, metrics, names = traced_run(workload, args.seconds, record)
    else:
        records, metrics, names = plain_run(workload, args.seconds, record)
    failed, messages, summary_ok = verify(workload, reference, records)
    attempted = len(records)
    if not args.trace:
        metrics["success_rate"] = (attempted - failed) / attempted
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    record["check_failures"] = len(messages)
    print(json.dumps({"run_record": record}))
    result = {
        "correct": failed == 0 and summary_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
