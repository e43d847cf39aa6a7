import math

import numpy as np
import pytest
from scipy.optimize import brentq

from autohuber import kernels, noise
from autohuber.loss import gradient, total_loss
from autohuber.solver import (
    DiagnosticsReport,
    EstimatorConfig,
    FitResult,
    TauCollapseWarning,
    default_z,
    diagnostics,
    fit,
    fit_fixed_tau,
    median_and_mad,
    profile_tau_gradient,
    robust_scale,
)

Z2 = EstimatorConfig(z_override=2.0)


def _t3_sample(n, seed, mu=0.0, sigma=1.0):
    rng = np.random.default_rng(seed)
    return mu + sigma * rng.standard_t(3, size=n) / math.sqrt(3.0)


class TestHelpers:
    def test_default_z_at_recommended_delta(self):
        assert default_z(0.05) == pytest.approx(5.0 * math.sqrt(math.log(100.0)), rel=1e-15)

    def test_default_z_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                default_z(bad)

    def test_median_and_mad(self):
        med, mad = median_and_mad([1.0, 2.0, 100.0])
        assert med == 2.0
        assert mad == 1.0

    def test_robust_scale_constant_data_falls_back_to_median(self):
        assert robust_scale([7.0, 7.0, 7.0]) == 7.0
        assert robust_scale([0.0, 0.0]) == 0.0


class TestConfig:
    def test_z_property_prefers_override(self):
        assert EstimatorConfig(z_override=3.5).z == 3.5
        assert EstimatorConfig(delta=0.05).z == pytest.approx(default_z(0.05))

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            EstimatorConfig(delta=1.5)
        with pytest.raises(ValueError, match="z_override"):
            EstimatorConfig(z_override=-1.0)
        with pytest.raises(ValueError, match="grad_tol"):
            EstimatorConfig(grad_tol=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            EstimatorConfig(max_iters=0)
        with pytest.raises(ValueError, match="tau_floor"):
            EstimatorConfig(tau_floor=0.0)
        with pytest.raises(ValueError, match="strategy"):
            EstimatorConfig(strategy="newton")
        with pytest.raises(ValueError, match="init"):
            EstimatorConfig(init=(0.0, -1.0))


class TestFitDegenerate:
    def test_single_point(self):
        with pytest.warns(TauCollapseWarning):
            res = fit([4.2])
        assert res.degenerate
        assert res.converged
        assert res.mu_hat == 4.2
        assert res.iterations == 0
        assert res.grad_norm == 0.0
        assert res.tau_hat == pytest.approx(1e-8 * 4.2)

    def test_identical_values(self):
        res = fit(np.full(300, -3.0))
        assert res.degenerate
        assert res.mu_hat == -3.0
        assert res.tau_hat == pytest.approx(1e-8 * 3.0)

    def test_all_zero_sample_uses_unit_fallback_floor(self):
        res = fit(np.zeros(200))
        assert res.degenerate
        assert res.mu_hat == 0.0
        assert res.tau_hat == 1e-8


class TestCollapseWarning:
    def test_warns_when_n_at_most_z_squared(self):
        # default z ~ 10.73 so z^2 ~ 115.1: n = 100 must warn
        y = _t3_sample(100, 5)
        with pytest.warns(TauCollapseWarning, match="nonpositive"):
            res = fit(y)
        assert res.tau_hat == pytest.approx(1e-8 * robust_scale(y))

    def test_silent_above_threshold(self):
        y = _t3_sample(120, 5)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", TauCollapseWarning)
            fit(y)


class TestFit:
    def test_converges_and_satisfies_tolerance(self):
        y = _t3_sample(2000, 11)
        res = fit(y)
        assert res.converged
        assert not res.degenerate
        tol = EstimatorConfig().grad_tol * max(1.0, robust_scale(y))
        assert res.grad_norm <= tol
        g_mu, g_tau = gradient(y, res.mu_hat, res.tau_hat, EstimatorConfig().z)
        assert max(abs(g_mu), abs(g_tau)) <= tol

    def test_mu_close_to_truth_on_clean_data(self):
        y = _t3_sample(5000, 13, mu=2.5)
        res = fit(y)
        assert res.mu_hat == pytest.approx(2.5, abs=0.1)

    def test_translation_equivariance(self):
        y = _t3_sample(500, 17)
        base = fit(y)
        for c in (-1e4, 3.25):
            shifted = fit(y + c)
            assert shifted.mu_hat - base.mu_hat == pytest.approx(c, abs=1e-9)
            assert shifted.tau_hat == pytest.approx(base.tau_hat, abs=1e-9)

    def test_scale_equivariance(self):
        y = _t3_sample(500, 19)
        base = fit(y)
        for c in (1e-3, 42.0):
            scaled = fit(c * y)
            assert scaled.mu_hat == pytest.approx(c * base.mu_hat, rel=1e-9, abs=1e-12)
            assert scaled.tau_hat == pytest.approx(c * base.tau_hat, rel=1e-9)

    def test_strategies_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(120, 900))
            y = rng.normal(0, 2.0, n) + rng.standard_t(3, n)
            a = fit(y, EstimatorConfig(strategy="agd"))
            b = fit(y, EstimatorConfig(strategy="exact_coordinate"))
            assert a.converged and b.converged
            assert a.mu_hat == pytest.approx(b.mu_hat, abs=1e-8)
            assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-8)

    def test_restarts_land_on_same_optimum(self):
        y = _t3_sample(300, 29)
        ref = fit(y)
        rng = np.random.default_rng(31)
        for _ in range(8):
            init = (float(rng.uniform(-10, 10)), float(10.0 ** rng.uniform(-3, 3)))
            res = fit(y, EstimatorConfig(init=init))
            assert res.converged
            assert res.mu_hat == pytest.approx(ref.mu_hat, abs=1e-7)
            assert res.tau_hat == pytest.approx(ref.tau_hat, abs=1e-7)

    def test_far_away_init_converges(self):
        y = _t3_sample(400, 37)
        res = fit(y, EstimatorConfig(init=(1e6, 1e6)))
        ref = fit(y)
        assert res.converged
        assert res.mu_hat == pytest.approx(ref.mu_hat, abs=1e-8)
        assert res.tau_hat == pytest.approx(ref.tau_hat, abs=1e-8)

    def test_astronomical_tau_init_converges(self):
        # curvature in tau underflows out there; the step fallback must still
        # bring the iterate home
        y = _t3_sample(200, 41)
        res = fit(y, EstimatorConfig(init=(0.0, 1e290)))
        ref = fit(y)
        assert res.converged
        assert res.tau_hat == pytest.approx(ref.tau_hat, abs=1e-8)

    def test_offset_beyond_mu_resolution(self):
        # at 1e15 the float grid of mu is 0.125, coarser than the optimum's
        # precision in mu: mu stays on the grid next to the shifted optimum
        # and tau still converges at that mu, in a handful of steps
        y = _t3_sample(2000, 107)
        base = fit(y)
        cfg = EstimatorConfig(max_iters=50)
        res = fit(y + 1e15, cfg)
        assert res.converged
        assert abs(res.mu_hat - (1e15 + base.mu_hat)) <= math.ulp(1e15)
        _, g_tau = gradient(y + 1e15, res.mu_hat, res.tau_hat, cfg.z)
        assert abs(g_tau) <= cfg.grad_tol

    def test_objective_blinded_by_one_huge_value(self):
        # the 1e250 value's excess swamps every other term of the objective,
        # so no loss comparison can see the rest of the fit; from the median
        # and from a start on the outlier itself the fit must still reach the
        # independent solver's optimum (mu on its float grid near -1e12)
        y = _t3_sample(2000, 103, mu=-1e12)
        y[0] = 1e250
        ref = fit(y, EstimatorConfig(strategy="exact_coordinate"))
        cfg = EstimatorConfig()
        for init in (None, (1e250, 1.0)):
            # from the outlier, halving tau per step would take ~800 steps
            res = fit(y, EstimatorConfig(init=init, max_iters=100))
            assert res.converged
            assert abs(res.mu_hat - ref.mu_hat) <= 2 * math.ulp(ref.mu_hat)
            _, g_tau = gradient(y, res.mu_hat, res.tau_hat, cfg.z)
            assert abs(g_tau) <= cfg.grad_tol

    def test_final_loss_not_above_init_loss(self):
        y = _t3_sample(300, 43)
        cfg = EstimatorConfig(init=(5.0, 50.0))
        res = fit(y, cfg)
        assert total_loss(y, res.mu_hat, res.tau_hat, cfg.z) <= total_loss(
            y, 5.0, 50.0, cfg.z
        )

    def test_custom_floor_pins_tau_and_projects_gradient(self):
        y = _t3_sample(2000, 47)
        free = fit(y)
        floor = 10.0 * free.tau_hat
        pinned = fit(y, EstimatorConfig(tau_floor=floor))
        assert pinned.tau_hat == floor
        assert pinned.converged
        # the raw tau gradient is uphill at the floor but the projected
        # optimality residual treats the boundary as stationary
        _, g_tau = gradient(y, pinned.mu_hat, pinned.tau_hat, EstimatorConfig().z)
        assert g_tau > 0.0

    def test_small_n_with_z_override_has_interior_tau(self):
        y = _t3_sample(30, 53)
        res = fit(y, Z2)
        assert res.converged
        assert res.tau_hat > 1e-6

    def test_two_points(self):
        with pytest.warns(TauCollapseWarning):
            res = fit([-1.0, 1.0], Z2)
        assert res.mu_hat == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_max_iters_exhaustion_reports_not_converged(self):
        y = _t3_sample(2000, 59)
        res = fit(y, EstimatorConfig(max_iters=1))
        assert not res.converged
        assert res.iterations == 1

    def test_accepts_plain_lists(self):
        res = fit([float(v) for v in range(130)])
        assert res.converged


class TestScaleFreeStopRules:
    # a t3 sample scaled to either end of the float64 range: the gradient is
    # dimensionless, so both strategies must reach the same tolerance and
    # land on the scaled optimum of the unscaled sample
    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    @pytest.mark.parametrize("strategy", ["agd", "exact_coordinate"])
    def test_extreme_scales_converge_to_scaled_optimum(self, factor, strategy):
        y = noise.sample(noise.standardize("student_t", df=3), 1, 5000, 0, 3)
        base = fit(y)
        cfg = EstimatorConfig(strategy=strategy)
        scaled = factor * y
        res = fit(scaled, cfg)
        assert res.converged
        assert res.grad_norm <= cfg.grad_tol
        g_mu, g_tau = gradient(scaled, res.mu_hat, res.tau_hat, cfg.z)
        assert max(abs(g_mu), abs(g_tau)) <= cfg.grad_tol
        assert res.tau_hat == pytest.approx(factor * base.tau_hat, rel=1e-9)
        assert abs(res.mu_hat - factor * base.mu_hat) <= 1e-8 * robust_scale(scaled)


def _count_kernel_passes(monkeypatch):
    """Count every kernel pass the solver makes, by wrapping the module's
    pass functions (the solver looks them up through the module)."""
    passes = [0]
    for name in ("total_loss", "grad_pair", "hessian", "grad_hess", "loss_grad_hess"):
        original = getattr(kernels, name)

        def counted(*args, _original=original, **kwargs):
            passes[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return passes


def test_default_fit_pass_budget(monkeypatch):
    # the joint Newton step needs four to seven passes on these laws; twelve
    # leaves room for a few backtracks but not for a return to sweeping
    laws = (
        noise.standardize("student_t", df=3),
        noise.standardize("student_t", df=2.5),
        noise.standardize("contaminated_gaussian"),
    )
    passes = _count_kernel_passes(monkeypatch)
    worst = 0
    for model in laws:
        for n in (256, 2000):
            for seed in range(50):
                y = noise.sample(model, 1.0, n, 0.0, seed)
                passes[0] = 0
                res = fit(y)
                assert res.converged
                worst = max(worst, passes[0])
    assert worst <= 12


def test_restart_pass_budget(monkeypatch):
    # criterion 3's restarts, some from tau far below the optimum, where the
    # objective in mu is nearly piecewise linear and raw Newton steps in mu
    # are absurdly long; each restart must stay within a modest budget
    y = noise.sample(noise.standardize("student_t", df=3), 1.0, 500, 2.0, 900)
    rng = np.random.default_rng(42)
    passes = _count_kernel_passes(monkeypatch)
    worst = 0
    for _ in range(20):
        mu0 = float(rng.uniform(-50.0, 50.0))
        tau0 = float(np.exp(rng.uniform(math.log(1e-4), math.log(1e6))))
        passes[0] = 0
        assert fit(y, EstimatorConfig(init=(mu0, tau0))).converged
        worst = max(worst, passes[0])
    assert worst <= 40


class TestFitFixedTau:
    def test_symmetric_pair_gives_midpoint(self):
        assert fit_fixed_tau([-1.0, 1.0], 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_constant_sample_short_circuits(self):
        assert fit_fixed_tau([3.0, 3.0, 3.0], 5.0) == 3.0

    def test_huge_tau_recovers_sample_mean(self):
        y = _t3_sample(500, 61, mu=1.0, sigma=2.0)
        scale = robust_scale(y)
        mu = fit_fixed_tau(y, 1e8 * scale)
        assert mu == pytest.approx(float(np.mean(y)), abs=1e-6 * scale)

    def test_three_point_stationarity_root(self):
        # for y = {0, 0, 3} the minimizer solves
        # 2 mu / sqrt(tau^2 + mu^2) = (3 - mu) / sqrt(tau^2 + (3 - mu)^2),
        # independent of z; root lies in (0, 1) for tau = 4
        def balance(m):
            return 2 * m / math.hypot(4.0, m) - (3 - m) / math.hypot(4.0, 3 - m)

        root = brentq(balance, 0.0, 1.0, xtol=1e-15)
        for cfg in (None, EstimatorConfig(z_override=1.0)):
            mu = fit_fixed_tau([0.0, 0.0, 3.0], 4.0, cfg)
            assert mu == pytest.approx(root, abs=1e-12)

    def test_matches_joint_fit_at_its_tau(self):
        y = _t3_sample(800, 67)
        res = fit(y)
        mu = fit_fixed_tau(y, res.tau_hat)
        assert mu == pytest.approx(res.mu_hat, abs=1e-9)

    def test_stationarity_residual_is_tiny(self):
        y = _t3_sample(300, 71)
        for tau in (0.3, 1.0, 17.0):
            mu = fit_fixed_tau(y, tau)
            g_mu, _ = gradient(y, mu, tau, EstimatorConfig().z)
            assert abs(g_mu) < 1e-12

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            fit_fixed_tau([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="tau"):
            fit_fixed_tau([1.0, 2.0], math.inf)


class TestProfileTauGradient:
    def test_strictly_increasing_in_tau(self):
        y = _t3_sample(400, 73)
        taus = np.geomspace(0.05, 50.0, 12)
        vals = [profile_tau_gradient(y, float(t)) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_at_fitted_tau_and_sign_bracket(self):
        y = _t3_sample(600, 79)
        res = fit(y)
        scale = max(1.0, robust_scale(y))
        assert abs(profile_tau_gradient(y, res.tau_hat)) <= 1e-8 * scale
        assert profile_tau_gradient(y, 0.9 * res.tau_hat) < 0
        assert profile_tau_gradient(y, 1.1 * res.tau_hat) > 0

    def test_envelope_identity_against_finite_differences(self):
        # d/dtau of min_mu L(mu, tau) equals grad_tau at the conditional
        # minimizer, so a central difference of the profiled objective must
        # reproduce it
        y = _t3_sample(250, 83)
        cfg = EstimatorConfig()
        for tau in (0.8, 2.5, 9.0):
            g = profile_tau_gradient(y, tau, cfg)
            h = 1e-5 * max(1.0, tau)

            def phi(t):
                return total_loss(y, fit_fixed_tau(y, t, cfg), t, cfg.z)

            fd = (phi(tau + h) - phi(tau - h)) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            profile_tau_gradient([1.0, 2.0], -1.0)


class TestDiagnostics:
    def test_reports_tiny_residuals_after_fit(self):
        y = _t3_sample(500, 89)
        res = fit(y)
        rep = diagnostics(y, res, ball_radius=1.0)
        assert isinstance(rep, DiagnosticsReport)
        tol = EstimatorConfig().grad_tol * max(1.0, robust_scale(y))
        assert abs(rep.stationarity_mu) <= tol
        assert abs(rep.stationarity_tau) <= tol
        assert rep.ball_radius == 1.0
        assert not rep.degenerate

    def test_kappa_matches_direct_grid_minimum(self):
        y = np.array([0.0, 1.0])
        res = FitResult(0.5, 1.0, 1, 0.0, True, False)
        cfg = EstimatorConfig(z_override=1.0)
        rep = diagnostics(y, res, ball_radius=0.5, config=cfg)
        grid = np.linspace(0.0, 1.0, 64)
        expected = min(
            float(np.sum(1.0**2 / np.hypot(y - m, 1.0) ** 3)) / math.sqrt(2.0)
            for m in grid
        )
        assert rep.empirical_kappa == pytest.approx(expected, rel=1e-12)

    def test_kappa_positive_and_bounded_by_curvature_cap(self):
        y = _t3_sample(300, 97)
        res = fit(y)
        rep = diagnostics(y, res, ball_radius=2.0)
        # each term tau^2/h^3 <= 1/tau, so kappa <= sqrt(n)/(z tau)
        cap = math.sqrt(y.size) / (EstimatorConfig().z * res.tau_hat)
        assert 0.0 < rep.empirical_kappa <= cap

    def test_degenerate_flag_passthrough(self):
        with pytest.warns(TauCollapseWarning):
            res = fit([5.0])
        rep = diagnostics([5.0], res, ball_radius=1.0)
        assert rep.degenerate

    def test_rejects_bad_radius(self):
        y = _t3_sample(200, 101)
        res = fit(y)
        with pytest.raises(ValueError, match="ball_radius"):
            diagnostics(y, res, ball_radius=0.0)

