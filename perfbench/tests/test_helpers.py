"""Tests of the benchmark's own helpers: python -m pytest perfbench/tests"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import reference, stats, tracing  # noqa: E402


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert stats.tail_supported(100, 90)
        assert not stats.tail_supported(99, 90)
        assert stats.tail_supported(1000, 99)
        assert not stats.tail_supported(1009, 99.9)
        assert not stats.tail_supported(0, 50)

    def test_value_is_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert stats.percentile_or_none(values, 90) == 90
        assert stats.percentile_or_none(values, 50) == 50
        assert stats.percentile_or_none(values[:99], 90) is None

    def test_median(self):
        assert stats.median([3.0, 1.0, 2.0]) == 2.0
        assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def _span(start, end):
    span = tracing.Span("s", start, -1, 0, 0)
    span.end = end
    return span


class TestSelfTime:
    def test_overlapping_and_clipped_children(self):
        parent = _span(0, 100)
        children = [_span(10, 30), _span(20, 50), _span(60, 70), _span(90, 120)]
        # covered: [10, 50] + [60, 70] + [90, 100] = 60
        assert tracing.self_ns(parent, children) == 40

    def test_no_children(self):
        assert tracing.self_ns(_span(5, 25), []) == 20

    def test_nested_spans_from_tracer(self, monkeypatch):
        clock = iter([0, 100, 200, 300, 400, 450, 500, 700, 900, 1000])
        monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(clock))
        tr = tracing.Tracer()
        with tr.span("wide_range.op"):
            with tr.span("solver.fit", 10):
                with tr.span("kernels.grad_pair", 10):
                    pass
                with tr.span("solver.as_sample"):
                    pass
                with tr.span("kernels.hessian", 10):
                    pass
        values, _ = tracing.layer_metrics(tr)
        # fit [100, 900] minus grad_pair 100, as_sample 50 and hessian 200
        assert values["solver.fit.self_ms"] == pytest.approx(450e-6)
        assert values["kernels.passes_per_fit.p50"] == 2
        assert values["kernels.busy_share"] == pytest.approx(300 / 1000)
        assert values["loss.as_sample.ms"] == pytest.approx(50e-6)
        assert values["kernels.hessian.ns_per_element"] == pytest.approx(20.0)
        assert [s.op for s in tr.spans] == [0] * 5


@pytest.fixture(scope="module")
def sample_and_fit():
    from autohuber import fit

    y = np.random.default_rng(11).standard_t(3, 2000)
    return y, fit(y)


def _result(mu, tau, converged=True, degenerate=False):
    return SimpleNamespace(mu_hat=mu, tau_hat=tau, converged=converged, degenerate=degenerate)


class TestFailCounting:
    def test_tally(self):
        tally = stats.Tally()
        tally.record(None, 20)
        tally.record("replication failed", 4)
        tally.record("wrong_result")
        assert (tally.attempted, tally.failed) == (25, 5)
        assert tally.fail_ratio == pytest.approx(5 / 25)
        assert tally.reasons == {"replication failed": 4, "wrong_result": 1}

    def test_stationary_fit_passes(self, sample_and_fit):
        y, res = sample_and_fit
        assert reference.fit_failure(y, res, reference.DEFAULT_Z) is None

    def test_wrong_but_converged_fails(self, sample_and_fit):
        y, res = sample_and_fit
        wrong = _result(res.mu_hat, res.tau_hat * 1.0025)
        assert reference.fit_failure(y, wrong, reference.DEFAULT_Z) == "wrong_result"
        tally = stats.Tally()
        tally.record(reference.fit_failure(y, wrong, reference.DEFAULT_Z))
        assert tally.failed == 1

    def test_not_converged_fails(self, sample_and_fit):
        y, res = sample_and_fit
        stuck = _result(res.mu_hat, res.tau_hat, converged=False)
        assert reference.fit_failure(y, stuck, reference.DEFAULT_Z) == "not_converged"

    def test_degenerate_must_be_constant(self):
        y = np.full(10, 2.5)
        assert reference.fit_failure(y, _result(2.5, 2.5e-8, degenerate=True), 1.0) is None
        y[3] = 2.0
        assert reference.fit_failure(y, _result(2.5, 2.5e-8, degenerate=True), 1.0) == "wrong_result"

    def test_equivariance(self, sample_and_fit):
        y, res = sample_and_fit
        z = reference.DEFAULT_Z
        good = _result(1e-300 * res.mu_hat, 1e-300 * res.tau_hat)
        bad = _result(1e-300 * res.mu_hat, 1e-300 * res.tau_hat * 1.0025)
        assert reference.equivariance_failure(good, y, res, 1e-300, 0.0, z) is None
        assert reference.equivariance_failure(bad, y, res, 1e-300, 0.0, z) == "not_equivariant"

    def test_offset_equivariance_allows_one_ulp_of_mu(self):
        from autohuber import fit, noise

        y = noise.sample(noise.standardize("student_t", df=3), 1.0, 100_000, 0.0, 1)
        y0 = (y + 1e15) - 1e15  # exactly the sample the offset input encodes
        res0 = fit(y0)
        shifted = fit(y0 + 1e15)
        assert reference.equivariance_failure(shifted, y0, res0, 1.0, 1e15, reference.DEFAULT_Z) is None
        off = _result(shifted.mu_hat + 4.0, shifted.tau_hat)
        assert reference.equivariance_failure(off, y0, res0, 1.0, 1e15, reference.DEFAULT_Z) == "not_equivariant"

    def test_study_row_invariants(self):
        row = SimpleNamespace(estimator="penalized_ph", n=256, q50=0.1, q90=0.3, q95=0.2,
                              q99=0.5, median_tau_hat=1.0, tau_star=None, coverage=None,
                              failures=0)
        assert reference.study_row_problems(row, 24) == [
            "penalized_ph n=256: quantiles out of order"
        ]
        row.q95 = 0.4
        assert reference.study_row_problems(row, 24) == []
        row.failures = 25
        assert len(reference.study_row_problems(row, 24)) == 1
