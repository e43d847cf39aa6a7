#!/usr/bin/env python3
"""Benchmark autohuber end to end, or layer by layer with --trace 1.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload large_sample --seed 1 --seconds 20 --trace 0

Workloads are described in ``perfbench/workloads.py`` and BENCHMARK.json.
The program is imported from ``src/`` of the checkout; nothing is installed.

--trace 0 prints the end-to-end metrics: set-up time, median seconds per
op, elements and replications estimated per second of op time, the share of
ops that succeeded and the peak resident memory of the process doing the
work.  Op times are scaled to a reference speed (see perfbench/speed.py);
the raw wall seconds are printed too.  setup_s stays raw: import time is
file loading that the reference loop does not track, and scaling it made it
less steady.  op_s_p90 and fail_ratio are printed beside them;
op_s_p90 only where a run has enough ops for it.

--trace 1 runs every round of ops twice, untraced and then traced, prints
every per-layer metric (or why it is absent on this workload, in which case
it reads 0) and the tracing overhead, and writes the spans to .perfbench/.

Every op's output is checked against perfbench/reference.py.  An op fails
when it exits nonzero, raises, does not converge or returns a wrong result;
failed ops are counted in "failed" and lower success_ratio, and the run goes
on.  A check that cannot be evaluated aborts the run, so a printed result
always has "correct": true, meaning every op was checked.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import stats, tracing, workloads  # noqa: E402
from perfbench.speed import reference_loop_s, scaled_seconds  # noqa: E402

# end-to-end metrics in BENCHMARK.json: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "elements_per_s": "1/s",
    "replications_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_INTERPRETERS = 3
IMPORT_INTERPRETERS = 3
# a fresh interpreter's import plus a first fit on a fixed tiny sample
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import autohuber\n"
    "autohuber.fit([((i * 37) % 101) / 10.0 for i in range(256)])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(env):
    """Median over fresh interpreters, after one that warms the file cache."""

    times = []
    for i in range(SETUP_INTERPRETERS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout
        if i:
            times.append(float(out.strip().splitlines()[-1]))
    return stats.median(times)


def measure_imports(env):
    """Cumulative import times in ms from ``python -X importtime``, medians."""

    wanted = {"autohuber": [], "autohuber.oracle": []}
    for _ in range(IMPORT_INTERPRETERS):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import autohuber"], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                wanted[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {f"import.{k}.ms": stats.median(v) for k, v in wanted.items() if v}


def environment(seed):
    import numpy
    import scipy
    from autohuber import kernels

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.BACKEND,
        "commit": commit,
        "seed": seed,
    }


def measure(workload, seconds, passes):
    """Run whole rounds of the workload's ops until they took ``seconds``.

    Only op wall time counts toward ``seconds``, so input generation and
    checks between ops do not shorten the measurement.  ``passes`` is a list
    of (tally, tracer or None); every round runs each op once per pass, the
    traced pass inside ``tracing.instrument``, so traced and untraced ops
    alternate round by round and share the machine's drift.  A record's
    ``ref_s``, unless the op sampled its own, is the reference loop time
    around the op.  Returns one list of OpRecord per pass.
    """
    records = [[] for _ in passes]
    busy = 0.0
    round_index = 0
    ops = workload.ops(round_index)
    if workload.warm_up:
        # the first fits in a process run up to 1.7x slower while the
        # allocator learns to keep large arrays; users of a long-lived
        # process do not pay that per fit, so it is left out
        workload.run(ops[0], stats.Tally())
    ref = reference_loop_s(workload.reference_elements)
    while busy < seconds:
        if round_index:
            ops = workload.ops(round_index)
        for out, (tally, tracer) in zip(records, passes):
            wrap = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
            with wrap:
                for op in ops:
                    record = workload.run(op, tally, tracer)
                    after = reference_loop_s(workload.reference_elements)
                    if math.isnan(record.ref_s):
                        record.ref_s = 0.5 * (ref + after)
                    ref = after
                    busy += record.seconds
                    out.append(record)
        round_index += 1
    return records


def end_to_end(records, tally, setup_s):
    busy = sum(scaled_seconds(r) for r in records)
    rss = [r.rss_mb for r in records if r.rss_mb is not None]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {
        "setup_s": setup_s,
        "op_s_p50": stats.median([scaled_seconds(r) for r in records]),
        "elements_per_s": sum(r.elements for r in records) / busy,
        "replications_per_s": sum(r.replications for r in records) / busy,
        "success_ratio": 1.0 - tally.fail_ratio,
        "peak_rss_mb": max(rss),
    }


def report_failures(tally):
    if not tally.failed:
        print("failures: none")
    for reason, count in sorted(tally.reasons.items()):
        print(f"failure: {reason} x{count}")


def run_untraced(workload, args, tally):
    setup_s = measure_setup(child_env())
    (records,) = measure(workload, args.seconds, [(tally, None)])
    values = end_to_end(records, tally, setup_s)
    seconds = [scaled_seconds(r) for r in records]
    raw = [r.seconds for r in records]
    p90 = stats.percentile_or_none(seconds, 90)
    for name, unit in END_TO_END.items():
        print(f"{name:<20} {values[name]!r} {unit}")
    if p90 is None:
        print(f"{'op_s_p90':<20} absent: {len(seconds)} ops, a p90 needs "
              f"{stats.MIN_TAIL_SAMPLES} beyond it, so at least 100")
    else:
        print(f"{'op_s_p90':<20} {p90!r} s")
    print(f"{'fail_ratio':<20} {tally.fail_ratio!r} ({tally.failed} of {tally.attempted})")
    print(f"ops {len(records)}; raw wall seconds: op p50 "
          f"{stats.median(raw)!r}, ops total {sum(raw)!r}; reference loop median "
          f"{stats.median([r.ref_s for r in records])!r} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_traced(workload, args, tally):
    tracer = tracing.Tracer()
    plain, traced = measure(workload, args.seconds, [(stats.Tally(), None), (tally, tracer)])
    values, absent = tracing.layer_metrics(tracer)
    values.update(measure_imports(child_env()))
    values["trace.overhead_share"] = (
        sum(map(scaled_seconds, traced)) / sum(map(scaled_seconds, plain)) - 1.0
    )
    print(f"traced ops {len(traced)}, untraced ops {len(plain)}, spans {len(tracer.spans)}")
    metrics = {}
    for name, (unit, _better, what) in tracing.PER_LAYER.items():
        if name in values:
            print(f"{name:<36} {values[name]!r} {unit}  ({what})")
        else:
            print(f"{name:<36} absent, reads 0: {absent.get(name, 'not measured')}")
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.dump(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "autohuber" / "__init__.py").is_file():
        print(f"error: no autohuber sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    scratch = WORKDIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = stats.Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, scratch, child_env(), in_process=bool(args.trace)
        )
        if args.trace:
            metrics = run_traced(workload, args, tally)
        else:
            metrics = run_untraced(workload, args, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report_failures(tally)
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
