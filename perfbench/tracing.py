"""In-memory spans around the calls into each autohuber layer.

Spans are recorded only here, from outside the package: ``instrument``
replaces each traced function at the name its caller resolves and restores
the original on exit, so ``src/`` carries no tracing code.  A span has a
name, start and end (perf_counter_ns), a parent, the id of the op that
caused it, and an element count where one makes sense.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
import warnings
from collections import Counter, defaultdict

from . import stats

KERNELS = ("total_loss", "grad_pair", "hessian")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "elements", "attrs")

    def __init__(self, name, start, parent, op, elements):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.elements = elements
        self.attrs = None

    @property
    def ns(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._op = -1

    def begin(self, name, elements=0):
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self._op += 1
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self._op, elements))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    @contextlib.contextmanager
    def span(self, name, elements=0):
        idx = self.begin(name, elements)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def dump(self, path):
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.elements, s.attrs]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": list(Span.__slots__), "spans": rows,
                       "counters": dict(self.counters)}, fh)


def self_ns(span, children):
    """Span duration minus the part of it that its children's intervals cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.ns - covered


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer, name, fn, elements=None):
    def traced(*args, **kwargs):
        idx = tracer.begin(name, elements(args, kwargs) if elements else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


def _wrap_read(tracer, fn):
    def traced(*args, **kwargs):
        idx = tracer.begin("cli.read_data_file")
        try:
            values = fn(*args, **kwargs)
            tracer.spans[idx].elements = len(values)
            return values
        finally:
            tracer.end(idx)

    return traced


def _wrap_fit(tracer, fn, collapse_warning):
    def traced(data, *args, **kwargs):
        idx = tracer.begin("solver.fit", len(data))
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(data, *args, **kwargs)
        except BaseException:
            tracer.counters["solver.raised"] += 1
            raise
        finally:
            tracer.end(idx)
            for w in caught:
                if issubclass(w.category, collapse_warning):
                    tracer.counters["solver.collapse_warnings"] += 1
                # hand the warning on to whatever filter the caller set
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        tracer.spans[idx].attrs = {"iterations": result.iterations}
        if not result.converged:
            tracer.counters["solver.not_converged"] += 1
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Replace every traced autohuber function by a span-recording wrapper."""
    from autohuber import cli, harness, kernels, noise, oracle, solver

    def n_of_y(args, kwargs):
        return int(args[0].shape[0])

    def n_of_sample(args, kwargs):
        return int(args[2] if len(args) > 2 else kwargs["n"])

    patches = []
    # the solver and loss look kernels up through the module
    for k in KERNELS:
        patches.append((kernels, k, _wrap(tracer, f"kernels.{k}", getattr(kernels, k), n_of_y)))
    fit_wrapper = _wrap_fit(tracer, solver.fit, solver.TauCollapseWarning)
    patches += [
        (solver, "as_sample", _wrap(tracer, "solver.as_sample", solver.as_sample)),
        (solver, "fit", fit_wrapper),
        # harness and cli import these by name
        (harness, "fit", fit_wrapper),
        (harness, "fit_fixed_tau", _wrap(tracer, "solver.fit_fixed_tau", harness.fit_fixed_tau)),
        (harness, "median_of_means",
         _wrap(tracer, "harness.median_of_means", harness.median_of_means)),
        (cli, "fit", fit_wrapper),
        (cli, "read_data_file", _wrap_read(tracer, cli.read_data_file)),
        # the harness reaches these as module attributes
        (noise, "sample", _wrap(tracer, "noise.sample", noise.sample, n_of_sample)),
        (oracle, "tau_star", _wrap(tracer, "oracle.tau_star", oracle.tau_star)),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better, description); the order is the report order
PER_LAYER = {
    "kernels.total_loss.calls": ("count", "lower", "kernel calls"),
    "kernels.grad_pair.calls": ("count", "lower", "kernel calls"),
    "kernels.hessian.calls": ("count", "lower", "kernel calls"),
    "kernels.total_loss.ns_per_element": ("ns/element", "lower", "kernel time per input element"),
    "kernels.grad_pair.ns_per_element": ("ns/element", "lower", "kernel time per input element"),
    "kernels.hessian.ns_per_element": ("ns/element", "lower", "kernel time per input element"),
    "kernels.us_per_call": ("us", "lower", "mean time of one kernel call"),
    "kernels.passes_per_fit.p50": ("count", "lower", "kernel calls per joint fit, median"),
    "kernels.passes_per_fit.max": ("count", "lower", "kernel calls per joint fit, most"),
    "kernels.busy_share": ("share", "lower", "kernel time over op time"),
    "kernels.input_bytes_computed": ("bytes", "lower",
                                     "8 bytes per input element per kernel call, computed not measured"),
    "loss.as_sample.ms": ("ms", "lower", "solver.as_sample time per joint fit"),
    "solver.fit.ms.p50": ("ms", "lower", "joint fit time, median"),
    "solver.fit.self_ms": ("ms", "lower", "fit time outside kernels and as_sample, mean per fit"),
    "solver.iterations.p50": ("count", "lower", "FitResult.iterations, median"),
    "solver.not_converged": ("count", "lower", "fits returning converged=False"),
    "solver.raised": ("count", "lower", "fits that raised"),
    "solver.collapse_warnings": ("count", "lower", "TauCollapseWarning emitted by fit"),
    "solver.fit_fixed_tau.ms": ("ms", "lower", "fixed-tau fit time, mean per call"),
    "noise.sample.calls": ("count", "lower", "noise.sample calls"),
    "noise.sample.us_per_element": ("us/element", "lower", "noise.sample time per element drawn"),
    "oracle.tau_star.calls": ("count", "lower", "oracle.tau_star calls"),
    "oracle.tau_star.ms": ("ms", "lower", "oracle.tau_star time, mean per call"),
    "harness.cell.self_ms": ("ms", "lower",
                             "study cell time outside fit, sample, oracle and baselines, mean per cell"),
    "harness.median_of_means.us": ("us", "lower", "median_of_means time, mean per call"),
    "harness.failures": ("count", "lower", "sum of StudyRow.failures"),
    "cli.read_data_file.ns_per_line": ("ns/line", "lower", "parse time per data value"),
    "cli.read_data_file.share": ("share", "lower", "parse time over estimate time"),
    "cli.fit.share": ("share", "lower", "fit time over estimate time"),
    "import.autohuber.ms": ("ms", "lower", "cumulative import time, python -X importtime"),
    "import.autohuber.oracle.ms": ("ms", "lower", "cumulative import time, python -X importtime"),
    "trace.overhead_share": ("share", "lower", "traced op seconds over untraced, minus 1"),
}


def _sum_ns(spans):
    return sum(s.ns for s in spans)


def layer_metrics(tracer):
    """Per-layer values from a traced pass, plus the reasons some are absent.

    Returns (values, absent): values maps every PER_LAYER name this trace
    can give to a number; absent maps the others to why they are missing.
    The import and overhead metrics come from elsewhere.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            children[s.parent].append(s)
    roots = [s for s in spans if s.parent < 0]
    values, absent = {}, {}

    kernel_spans = [s for k in KERNELS for s in by_name[f"kernels.{k}"]]
    for k in KERNELS:
        ks = by_name[f"kernels.{k}"]
        values[f"kernels.{k}.calls"] = len(ks)
        elements = sum(s.elements for s in ks)
        if elements:
            values[f"kernels.{k}.ns_per_element"] = _sum_ns(ks) / elements
        else:
            absent[f"kernels.{k}.ns_per_element"] = "no kernel calls"
    if kernel_spans:
        values["kernels.us_per_call"] = _sum_ns(kernel_spans) / len(kernel_spans) / 1e3
    else:
        absent["kernels.us_per_call"] = "no kernel calls"
    root_ns = _sum_ns(roots)
    values["kernels.busy_share"] = _sum_ns(kernel_spans) / root_ns if root_ns else 0.0
    values["kernels.input_bytes_computed"] = 8 * sum(s.elements for s in kernel_spans)

    # kernel calls charged to the nearest enclosing joint fit
    fit_idx = [i for i, s in enumerate(spans) if s.name == "solver.fit"]
    fit_set = set(fit_idx)
    passes = Counter()
    for s in kernel_spans:
        p = s.parent
        while p >= 0 and p not in fit_set:
            p = spans[p].parent
        if p >= 0:
            passes[p] += 1
    if fit_idx:
        per_fit = [passes[i] for i in fit_idx]
        values["kernels.passes_per_fit.p50"] = stats.median(per_fit)
        values["kernels.passes_per_fit.max"] = max(per_fit)
        values["solver.fit.ms.p50"] = stats.median([spans[i].ns for i in fit_idx]) / 1e6
        values["solver.fit.self_ms"] = (
            sum(self_ns(spans[i], children[i]) for i in fit_idx) / len(fit_idx) / 1e6
        )
        as_sample_ns = sum(
            c.ns for i in fit_idx for c in children[i] if c.name == "solver.as_sample"
        )
        values["loss.as_sample.ms"] = as_sample_ns / len(fit_idx) / 1e6
        iters = [spans[i].attrs["iterations"] for i in fit_idx if spans[i].attrs]
        if iters:
            values["solver.iterations.p50"] = stats.median(iters)
        else:
            absent["solver.iterations.p50"] = "every fit raised"
    else:
        for name in ("kernels.passes_per_fit.p50", "kernels.passes_per_fit.max",
                     "solver.fit.ms.p50", "solver.fit.self_ms", "loss.as_sample.ms",
                     "solver.iterations.p50"):
            absent[name] = "no joint fits"
    for name in ("solver.not_converged", "solver.raised", "solver.collapse_warnings",
                 "harness.failures"):
        values[name] = tracer.counters[name]

    def mean_ms(name, label, scale=1e6):
        ss = by_name[name]
        if ss:
            values[label] = _sum_ns(ss) / len(ss) / scale
        else:
            absent[label] = f"{name} is not called on this workload"

    mean_ms("solver.fit_fixed_tau", "solver.fit_fixed_tau.ms")
    mean_ms("oracle.tau_star", "oracle.tau_star.ms")
    mean_ms("harness.median_of_means", "harness.median_of_means.us", scale=1e3)
    values["oracle.tau_star.calls"] = len(by_name["oracle.tau_star"])

    samples = by_name["noise.sample"]
    values["noise.sample.calls"] = len(samples)
    drawn = sum(s.elements for s in samples)
    if drawn:
        values["noise.sample.us_per_element"] = _sum_ns(samples) / drawn / 1e3
    else:
        absent["noise.sample.us_per_element"] = "noise.sample is not called on this workload"

    cells = [(i, s) for i, s in enumerate(spans) if s.name == "harness.cell"]
    if cells:
        values["harness.cell.self_ms"] = (
            sum(self_ns(s, children[i]) for i, s in cells) / len(cells) / 1e6
        )
    else:
        absent["harness.cell.self_ms"] = "no study cells on this workload"

    mains = [(i, s) for i, s in enumerate(spans) if s.name == "cli.main"]
    reads = by_name["cli.read_data_file"]
    if mains and reads:
        main_ns = sum(s.ns for _, s in mains)
        lines = sum(s.elements for s in reads)
        values["cli.read_data_file.ns_per_line"] = _sum_ns(reads) / lines if lines else 0.0
        values["cli.read_data_file.share"] = _sum_ns(reads) / main_ns
        cli_fit_ns = sum(c.ns for i, _ in mains for c in children[i] if c.name == "solver.fit")
        values["cli.fit.share"] = cli_fit_ns / main_ns
    else:
        for name in ("cli.read_data_file.ns_per_line", "cli.read_data_file.share",
                     "cli.fit.share"):
            absent[name] = "the cli is not called in-process on this workload"
    return values, absent
