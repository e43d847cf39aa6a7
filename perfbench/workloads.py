"""The benchmark's three workloads.

Each workload is a closed loop with one caller in one process: the next op
starts when the previous one has returned, and at most one ``estimate``
subprocess runs at a time.  A run is made of rounds.  ``ops(round)`` draws
the round's inputs with ``autohuber.noise.sample`` from the run's seed and
the round number, before any of them is timed, and every round runs the
workload's whole input mix once, so the mix is the same in every run
whatever its length.  The program sees only the generated inputs.

``large_sample``
    One ``autohuber estimate FILE --format json`` subprocess per op on a
    file of 10^6 values, two per round from each of the t3, pareto(3) and
    lognormal laws:
    the user who estimates one big sample.  Parsing, import and the kernel
    passes over 10^6 elements dominate; harness, oracle and noise do no work.
``mc_study``
    One study cell per op: ``run_deviation_study`` with all four estimators
    or ``run_tau_adaptivity_study``, on t2.5, t3 and contaminated-gaussian
    noise at n = 256 and 2000, each cell with its own seed.  The Monte Carlo
    user: many small fits, the only workload that runs noise, oracle and
    the harness loop.
``wide_range``
    One in-process ``fit`` per op on n = 10^5 samples at the edges of
    float64 and of the estimator: a t3 sample, the same sample scaled by
    1e-300, 1e-150, 1e150 and 1e300 or offset by 1e15, 50% exact ties,
    rounding to one decimal, one 1e250 outlier, n <= z^2 and a constant
    sample.  Same kernels and solver as large_sample, but along the hypot,
    tau-floor, tie-check, polish and degenerate paths a fast path would
    skip.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import numpy as np

from . import reference, speed

# a hung child is killed after this many seconds, so a run always ends
OP_TIMEOUT_S = 120.0
# a running estimate child's memory is read every TICK_S, and every
# SAMPLE_EVERY_TICKS ticks it is paused to sample the CPU's speed
TICK_S = 0.1
SAMPLE_EVERY_TICKS = 5


@dataclass
class OpRecord:
    seconds: float
    elements: int
    replications: int
    rss_mb: float | None = None
    # reference loop seconds while the op ran (perfbench/speed.py)
    ref_s: float = math.nan


def derive_seed(*parts):
    """A 32-bit seed mixed from the run seed and an op's coordinates."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _peak_rss_kb(pid):
    """VmHWM of a running process, in kB; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _model(law, params):
    from autohuber import noise

    return noise.standardize(law, **params)


# ---------------------------------------------------------------------------
# large_sample

LARGE_N = 1_000_000
SAMPLES_PER_LAW = 2
LARGE_LAWS = (
    ("t3", "student_t", {"df": 3.0}),
    ("pareto3", "pareto", {"shape": 3.0}),
    ("lognormal", "lognormal", {}),
)


class LargeSample:
    """Ops run as subprocesses, or in-process through ``cli.main`` when traced.

    Every round writes new files, SAMPLES_PER_LAW of each law, so a run
    averages over several samples: fits of one law take from about 80 to
    about 190 kernel passes, depending on the sample.
    """

    name = "large_sample"
    # each estimate child starts cold, as it does for a user
    warm_up = False
    reference_elements = speed.DEFAULT_ELEMENTS

    def __init__(self, seed, workdir, child_env, in_process=False):
        self.seed = seed
        self.workdir = workdir
        self.child_env = child_env
        self.in_process = in_process

    def ops(self, round_index):
        from autohuber import noise

        files = []
        for k, (i, (label, law, params)) in product(range(SAMPLES_PER_LAW), enumerate(LARGE_LAWS)):
            y = noise.sample(_model(law, params), 1.0, LARGE_N, 0.0,
                             derive_seed(self.seed, round_index, i, k))
            path = self.workdir / f"large_{label}_{k}.txt"
            # repr round-trips, so the file parses back to exactly y
            path.write_text("\n".join(map(repr, y.tolist())) + "\n")
            files.append((label, path, y))
        return files

    def _subprocess(self, path):
        """Run one estimate child; returns (seconds, exit code, output, rss MB, ref s).

        Every TICK_S the child's peak resident memory is read from /proc
        (its ru_maxrss would include this process's memory at spawn), and
        every SAMPLE_EVERY_TICKS ticks the child is stopped while the
        reference loop runs on the CPU they share, so the op's speed is
        sampled while it runs; the stopped time is left out of its seconds.
        """
        cmd = [sys.executable, "-m", "autohuber", "estimate", str(path), "--format", "json"]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=self.child_env
        )
        chunks, samples, paused, peak_kb, ticks = [], [], 0.0, 0, 0
        try:
            # the child closes its output when it exits
            while True:
                ready, _, _ = select.select([proc.stdout], [], [], TICK_S)
                if ready:
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
                    continue
                if time.perf_counter() - start > OP_TIMEOUT_S:
                    proc.kill()
                    continue
                peak_kb = max(peak_kb, _peak_rss_kb(proc.pid))
                ticks += 1
                if ticks % SAMPLE_EVERY_TICKS:
                    continue
                stopped = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                try:
                    samples.append(speed.reference_loop_s(self.reference_elements))
                finally:
                    os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stopped
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start - paused
        ref_s = sum(samples) / len(samples) if samples else math.nan
        out = b"".join(chunks).decode(errors="replace")
        return seconds, proc.returncode, out, peak_kb / 1024.0 or None, ref_s

    def _in_process(self, path, tracer):
        from autohuber import cli

        argv = ["estimate", str(path), "--format", "json"]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
        return time.perf_counter() - start, code, buf.getvalue(), None, math.nan

    def run(self, op, tally, tracer=None):
        label, path, y = op
        if self.in_process:
            seconds, code, out, rss, ref_s = self._in_process(path, tracer)
        else:
            seconds, code, out, rss, ref_s = self._subprocess(path)
        tally.record(self._verdict(label, y, code, out))
        return OpRecord(seconds, LARGE_N, 1, rss, ref_s)

    def _verdict(self, label, y, code, out):
        lines = out.strip().splitlines()
        try:
            payload = json.loads(lines[-1])
            result = SimpleNamespace(**{k: payload[k] for k in (
                "mu_hat", "tau_hat", "converged", "degenerate")})
        except (IndexError, ValueError, KeyError, TypeError):
            return f"{label}: exit {code}, no result"
        reason = reference.fit_failure(y, result, reference.DEFAULT_Z)
        if reason is None and code != 0:
            reason = f"exit {code}"
        return None if reason is None else f"{label}: {reason}"


# ---------------------------------------------------------------------------
# mc_study

CELL_LAWS = (
    ("t2.5", "student_t", {"df": 2.5}),
    ("t3", "student_t", {"df": 3.0}),
    ("cgauss", "contaminated_gaussian", {}),
)
CELL_N = (256, 2000)
CELL_KINDS = ("deviation", "adaptivity")
REPLICATIONS = 24


class McStudy:
    name = "mc_study"
    warm_up = True
    reference_elements = speed.DEFAULT_ELEMENTS

    def __init__(self, seed, workdir, child_env, in_process=True):
        self.seed = seed
        self.cells = [
            (kind, label, _model(law, params), n)
            for kind, (label, law, params), n in product(CELL_KINDS, CELL_LAWS, CELL_N)
        ]

    def ops(self, round_index):
        return [
            (kind, label, model, n, derive_seed(self.seed, round_index, i))
            for i, (kind, label, model, n) in enumerate(self.cells)
        ]

    def run(self, op, tally, tracer=None):
        from autohuber import harness

        kind, label, model, n, cell_seed = op
        if kind == "deviation":
            estimators = harness.ESTIMATORS
            study = harness.run_deviation_study
        else:
            estimators = ("penalized_ph",)
            study = harness.run_tau_adaptivity_study
        spec = harness.StudySpec(
            noise=model, n_grid=(n,), replications=REPLICATIONS,
            base_seed=cell_seed, estimators=estimators,
        )
        rows = None
        start = time.perf_counter()
        try:
            if tracer is None:
                rows = study(spec).rows
            else:
                with tracer.span("harness.cell", REPLICATIONS * n):
                    rows = study(spec).rows
        except Exception as exc:  # a cell that raises fails every replication
            reason = f"{kind} {label} n={n}: raised {type(exc).__name__}"
        seconds = time.perf_counter() - start
        if rows is not None:
            problems = [p for row in rows for p in reference.study_row_problems(row, REPLICATIONS)]
            if len(rows) != len(estimators):
                problems.append(f"{len(rows)} rows for {len(estimators)} estimators")
            reason = f"{kind} {label} n={n}: bad row" if problems else None
        if reason is not None:
            tally.record(reason, REPLICATIONS)
        else:
            failures = min(REPLICATIONS, sum(row.failures for row in rows))
            tally.record(None, REPLICATIONS - failures)
            if failures:
                tally.record(f"{kind} {label} n={n}: replication failed", failures)
            if tracer is not None:
                tracer.counters["harness.failures"] += failures
        return OpRecord(seconds, REPLICATIONS * n, REPLICATIONS)


# ---------------------------------------------------------------------------
# wide_range

WIDE_N = 100_000
# below z^2 = 25 log(100) ~ 115, where tau collapses to its floor
COLLAPSE_N = 100
OFFSET = 1e15
SCALES = (1e-300, 1e-150, 1e150, 1e300)


class WideRange:
    """Every round draws a new t3 base sample, so a run averages over several."""

    name = "wide_range"
    warm_up = True
    reference_elements = WIDE_N

    def __init__(self, seed, workdir, child_env, in_process=True):
        self.seed = seed

    def ops(self, round_index):
        """The round's inputs, with untimed reference fits for the relations."""
        from autohuber import noise, solver

        base = noise.sample(_model("student_t", {"df": 3.0}), 1.0, WIDE_N, 0.0,
                            derive_seed(self.seed, round_index, 0))
        ties = base.copy()
        ties[: WIDE_N // 2] = np.median(base)
        outlier = base.copy()
        outlier[derive_seed(self.seed, round_index, 1) % WIDE_N] = 1e250
        # the offset input rounds base to the float grid near 1e15; its
        # exact untransformed sample is (base + OFFSET) - OFFSET (Sterbenz)
        shifted = base + OFFSET
        unshifted = shifted - OFFSET
        base_fit = solver.fit(base)
        # (name, sample, None or the relation (y0, fit(y0), a, b) to a*y0 + b)
        return (
            [("t3", base, None)]
            + [(f"x{a:g}", base * a, (base, base_fit, a, 0.0)) for a in SCALES]
            + [
                ("offset1e15", shifted, (unshifted, solver.fit(unshifted), 1.0, OFFSET)),
                ("ties50", ties, None),
                ("rounded1", np.round(base, 1), None),
                ("outlier1e250", outlier, None),
                ("collapse_n100", base[:COLLAPSE_N].copy(), None),
                ("constant", np.full(WIDE_N, 2.5), None),
            ]
        )

    def run(self, op, tally, tracer=None):
        from autohuber import solver

        name, y, relation = op
        result = None
        start = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                if tracer is None:
                    result = solver.fit(y)
                else:
                    with tracer.span("wide_range.op", y.size):
                        result = solver.fit(y)
        except Exception as exc:
            reason = f"{name}: raised {type(exc).__name__}"
        seconds = time.perf_counter() - start
        if result is not None:
            reason = reference.fit_failure(y, result, reference.DEFAULT_Z)
            if reason is None and relation is not None:
                reason = reference.equivariance_failure(result, *relation, reference.DEFAULT_Z)
            if reason is not None:
                reason = f"{name}: {reason}"
        tally.record(reason)
        return OpRecord(seconds, y.size, 1)


WORKLOADS = {w.name: w for w in (LargeSample, McStudy, WideRange)}
