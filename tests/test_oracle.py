import math
import subprocess
import sys

import numpy as np
import pytest

from autohuber.noise import parse_noise
from autohuber.oracle import (
    OracleSolution,
    expected_tau_ratio,
    sigma_tau_sq,
    tau_star,
    tau_star_monotonicity_check,
)

GAUSSIAN = parse_noise("gaussian")
T3 = parse_noise("student_t:df=3")
PARETO3 = parse_noise("pareto:shape=3")
TWO_POINT = parse_noise("two_point")
LOGNORMAL = parse_noise("lognormal")
CONTAMINATED = parse_noise("contaminated_gaussian")


class TestExpectedTauRatio:
    def test_two_point_closed_form(self):
        # |eps| = 1 almost surely, so the ratio is deterministic
        for sigma, tau in ((1.0, 2.0), (0.5, 7.0), (3.0, 0.4)):
            assert expected_tau_ratio(TWO_POINT, sigma, tau) == pytest.approx(
                tau / math.hypot(tau, sigma), rel=1e-14
            )

    def test_gaussian_against_monte_carlo(self):
        rng = np.random.default_rng(12345)
        eps = rng.standard_normal(2_000_000)
        sigma, tau = 1.0, 2.0
        vals = tau / np.hypot(tau, sigma * eps)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert expected_tau_ratio(GAUSSIAN, sigma, tau) == pytest.approx(
            float(vals.mean()), abs=4 * se
        )

    def test_t3_against_monte_carlo(self):
        rng = np.random.default_rng(54321)
        eps = rng.standard_t(3, 2_000_000) / math.sqrt(3.0)
        sigma, tau = 2.0, 1.5
        vals = tau / np.hypot(tau, sigma * eps)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert expected_tau_ratio(T3, sigma, tau) == pytest.approx(
            float(vals.mean()), abs=4 * se
        )

    def test_pareto_against_monte_carlo(self):
        # standardized pareto(3): (raw - 3/2) / sqrt(3/4)
        rng = np.random.default_rng(99)
        raw = 1.0 + rng.pareto(3.0, 2_000_000)
        eps = (raw - 1.5) / math.sqrt(0.75)
        sigma, tau = 1.0, 3.0
        vals = tau / np.hypot(tau, sigma * eps)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert expected_tau_ratio(PARETO3, sigma, tau) == pytest.approx(
            float(vals.mean()), abs=4 * se
        )

    def test_strictly_increasing_in_tau(self):
        taus = np.geomspace(0.01, 100.0, 15)
        for noise in (GAUSSIAN, T3, LOGNORMAL, CONTAMINATED):
            vals = [expected_tau_ratio(noise, 1.0, float(t)) for t in taus]
            assert all(0.0 < v < 1.0 for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_joint_scale_invariance(self):
        for noise in (GAUSSIAN, T3):
            base = expected_tau_ratio(noise, 1.0, 2.0)
            for c in (0.1, 7.0):
                assert expected_tau_ratio(noise, c, 2.0 * c) == pytest.approx(
                    base, rel=1e-11
                )

    def test_input_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            expected_tau_ratio(GAUSSIAN, 0.0, 1.0)
        with pytest.raises(ValueError, match="tau"):
            expected_tau_ratio(GAUSSIAN, 1.0, -1.0)


class TestSigmaTauSq:
    def test_gaussian_closed_form_at_unit_cut(self):
        # E[eps^2; |eps| <= 1] = erf(1/sqrt(2)) - sqrt(2/pi) e^{-1/2}
        expected = math.erf(1.0 / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * math.exp(-0.5)
        assert sigma_tau_sq(GAUSSIAN, 1.0, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_two_point_is_all_or_nothing(self):
        sigma = 2.0
        assert sigma_tau_sq(TWO_POINT, sigma, 1.999) == 0.0
        # boundary inclusive: sigma^2 eps^2 <= tau^2 holds with equality
        assert sigma_tau_sq(TWO_POINT, sigma, 2.0) == sigma * sigma
        assert sigma_tau_sq(TWO_POINT, sigma, 3.0) == sigma * sigma

    def test_t3_against_monte_carlo(self):
        rng = np.random.default_rng(777)
        eps = rng.standard_t(3, 2_000_000) / math.sqrt(3.0)
        sigma, tau = 1.5, 2.0
        vals = (sigma * eps) ** 2 * (np.abs(sigma * eps) <= tau)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert sigma_tau_sq(T3, sigma, tau) == pytest.approx(
            float(vals.mean()), abs=4 * se
        )

    def test_monotone_and_capped(self):
        sigma = 1.3
        taus = np.geomspace(0.05, 1e6, 16)
        for noise in (GAUSSIAN, T3, PARETO3, LOGNORMAL):
            vals = [sigma_tau_sq(noise, sigma, float(t)) for t in taus]
            # nondecreasing up to quadrature noise of a few ulp
            wiggle = 1e-12 * sigma * sigma
            assert all(b >= a - wiggle for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= sigma * sigma for v in vals)
            # nearly all variance mass lies below a 1e6 cut; the barely
            # integrable tails (t3, pareto3) still hold back O(1/tau) of it
            assert vals[-1] >= sigma * sigma * (1.0 - 1e-4)


class TestTauStar:
    def test_two_point_closed_form(self):
        # ratio is deterministic, so tau* = sigma q / sqrt(1 - q^2)
        sol = tau_star(TWO_POINT, 1.0, 400, 2.0)
        q = 1.0 - 4.0 / 400.0
        expected = math.sqrt(q * q / (1.0 - q * q))
        assert expected == pytest.approx(7.01792392958252, rel=1e-14)
        assert sol.tau_star == pytest.approx(expected, abs=1e-9)

    def test_two_point_bound_endpoints_are_exact(self):
        sol = tau_star(TWO_POINT, 1.0, 400, 2.0)
        # tau* > sigma so the truncated second moment is the full variance
        assert sol.sigma_tau_star_sq == 1.0
        assert sol.lower_bound_sq == 25.0
        assert sol.upper_bound_sq == 50.0
        assert sol.lower_bound_sq <= sol.tau_star**2 <= sol.upper_bound_sq

    def test_defining_equation_residual(self):
        for noise in (GAUSSIAN, T3, PARETO3, LOGNORMAL, CONTAMINATED):
            sol = tau_star(noise, 1.0, 2000, 10.0)
            assert abs(sol.residual) <= 1e-10
            direct = expected_tau_ratio(noise, 1.0, sol.tau_star)
            assert direct == pytest.approx(1.0 - 100.0 / 2000.0, abs=1e-10)

    def test_root_against_monte_carlo(self):
        sol = tau_star(GAUSSIAN, 1.0, 5000, 10.7)
        rng = np.random.default_rng(31337)
        eps = rng.standard_normal(4_000_000)
        vals = sol.tau_star / np.hypot(sol.tau_star, eps)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert float(vals.mean()) == pytest.approx(1.0 - 10.7**2 / 5000.0, abs=4 * se)

    def test_scale_equivariance(self):
        base = tau_star(T3, 1.0, 3000, 10.0).tau_star
        for c in (0.5, 2.0, 11.0):
            assert tau_star(T3, c, 3000, 10.0).tau_star == pytest.approx(
                c * base, rel=1e-9
            )

    def test_monotone_increasing_in_n(self):
        assert tau_star_monotonicity_check(GAUSSIAN, 1.0, [200, 400, 800, 1600], 10.0)
        assert tau_star_monotonicity_check(T3, 2.0, [150, 300, 600], 10.0)
        assert tau_star_monotonicity_check(TWO_POINT, 1.0, [120, 240], 10.0)

    def test_single_point_grid_is_trivially_monotone(self):
        assert tau_star_monotonicity_check(GAUSSIAN, 1.0, [200], 10.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tau_star_monotonicity_check(GAUSSIAN, 1.0, [], 10.0)

    def test_undefined_when_n_not_above_z_squared(self):
        with pytest.raises(ValueError, match="oracle undefined"):
            tau_star(GAUSSIAN, 1.0, 4, 2.0)
        with pytest.raises(ValueError, match="oracle undefined"):
            tau_star(GAUSSIAN, 1.0, 100, 10.7298)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            tau_star(GAUSSIAN, -1.0, 400, 2.0)
        with pytest.raises(ValueError, match="n"):
            tau_star(GAUSSIAN, 1.0, 400.5, 2.0)
        with pytest.raises(ValueError, match="z"):
            tau_star(GAUSSIAN, 1.0, 400, 0.0)

    def test_result_type_and_certificates(self):
        sol = tau_star(CONTAMINATED, 0.5, 1000, 5.0)
        assert isinstance(sol, OracleSolution)
        assert sol.lower_bound_sq <= sol.tau_star**2 <= sol.upper_bound_sq
        assert 0.0 <= sol.sigma_tau_star_sq <= 0.25 + 1e-12


def test_scipy_loaded_only_by_the_oracle(tmp_path):
    # the oracle imports scipy where it integrates and solves, so importing
    # the package, fitting and ``autohuber estimate`` never load it
    path = tmp_path / "d.txt"
    path.write_text("".join(f"{((i * 37) % 101) / 10.0}\n" for i in range(256)))
    code = (
        "import sys\n"
        "import autohuber\n"
        "from autohuber import cli\n"
        "autohuber.fit([((i * 37) % 101) / 10.0 for i in range(256)])\n"
        f"assert cli.main(['estimate', {str(path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
