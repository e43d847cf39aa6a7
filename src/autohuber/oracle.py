"""Population-level reference values for the robustification parameter.

At the population level the optimal tau for sample size n, adjustment factor
z, and noise sigma * eps (eps standardized) solves

    E[ tau / sqrt(tau^2 + sigma^2 eps^2) ] = 1 - z^2 / n

The left side increases strictly from 0 to 1 in tau, so the root tau_star is
unique, and it exists exactly when n > z^2.  tau_star is bracketed by

    n * sigma_trunc^2 / (4 z^2)  <=  tau_star^2  <=  n * sigma^2 / (2 z^2)

where sigma_trunc^2 = E[sigma^2 eps^2 ; sigma^2 eps^2 <= tau_star^2] is the
truncated second moment.  Expectations are adaptive Gauss-Kronrod quadrature
against the standardized density (exact finite sums for discrete laws); the
root is found by Brent's method on the guaranteed bracket
[1e-12 sigma, sigma sqrt(n) / z].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .noise import NoiseModel, atoms, standardized_pdf, standardized_support

_QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}
# window outside which the integrand tails are handled by the semi-infinite
# transform instead of breakpoints
_CORE_WINDOW = 1e3
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class OracleSolution:
    """Root of the defining equation plus certificates.

    ``lower_bound_sq`` and ``upper_bound_sq`` bracket tau_star**2;
    ``residual`` is the defining equation evaluated at tau_star.
    """

    tau_star: float
    sigma_tau_star_sq: float
    lower_bound_sq: float
    upper_bound_sq: float
    residual: float


def _check_sigma(sigma):
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")


def _check_tau(tau):
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")


def _integrate(f, lo, hi, breakpoints=()):
    """Integrate f over (lo, hi) splitting at breakpoints and at the core window.

    Returns the value; raises RuntimeError when the accumulated quadrature
    error estimate is too large to trust.
    """
    # imported here, not at module level: scipy takes most of a cold
    # ``import autohuber``, and only the oracle needs it
    from scipy.integrate import quad

    core_lo = max(lo, -_CORE_WINDOW)
    core_hi = min(hi, _CORE_WINDOW)
    total = 0.0
    err = 0.0
    if core_lo < core_hi:
        pts = sorted(p for p in breakpoints if core_lo < p < core_hi)
        val, e = quad(f, core_lo, core_hi, points=pts or None, **_QUAD_OPTS)
        total += val
        err += e
    if lo < core_lo:
        val, e = quad(f, lo, core_lo, **_QUAD_OPTS)
        total += val
        err += e
    if hi > core_hi:
        val, e = quad(f, core_hi, hi, **_QUAD_OPTS)
        total += val
        err += e
    if err > 1e-9:
        raise RuntimeError(f"quadrature did not converge (error estimate {err:.3g})")
    return total


def expected_tau_ratio(noise: NoiseModel, sigma, tau) -> float:
    """E[ tau / sqrt(tau^2 + sigma^2 eps^2) ] under the standardized law."""
    _check_sigma(sigma)
    _check_tau(tau)
    pts = atoms(noise)
    if pts is not None:
        return sum(p * tau / math.hypot(tau, sigma * e) for e, p in pts)
    pdf = standardized_pdf(noise)
    lo, hi = standardized_support(noise)

    def integrand(e):
        return pdf(e) * tau / math.hypot(tau, sigma * e)

    # the ratio bends around |e| ~ tau/sigma; flag it for the subdivider
    knee = tau / sigma
    return _integrate(integrand, lo, hi, breakpoints=(0.0, -knee, knee))


def sigma_tau_sq(noise: NoiseModel, sigma, tau) -> float:
    """Truncated second moment E[sigma^2 eps^2 ; sigma^2 eps^2 <= tau^2].

    Nondecreasing in tau, between 0 and sigma^2; the result is clipped to
    that interval to absorb quadrature rounding.
    """
    _check_sigma(sigma)
    _check_tau(tau)
    a = tau / sigma
    pts = atoms(noise)
    if pts is not None:
        total = sum(p * (sigma * e) ** 2 for e, p in pts if abs(e) <= a)
        return min(total, sigma * sigma)
    pdf = standardized_pdf(noise)
    lo, hi = standardized_support(noise)
    cut_lo = max(lo, -a)
    cut_hi = min(hi, a)
    if cut_lo >= cut_hi:
        return 0.0

    def integrand(e):
        return pdf(e) * e * e

    val = sigma * sigma * _integrate(integrand, cut_lo, cut_hi, breakpoints=(0.0,))
    return min(max(val, 0.0), sigma * sigma)


def tau_star(noise: NoiseModel, sigma, n, z) -> OracleSolution:
    """Solve the defining equation for tau_star and certify the solution.

    Requires n > z^2; otherwise the right side 1 - z^2/n is nonpositive while
    the left side is strictly positive, and the oracle is undefined.
    """
    _check_sigma(sigma)
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"z must be positive and finite, got {z!r}")
    if n <= z * z:
        raise ValueError(
            f"oracle undefined: requires n > z^2 (n={n}, z^2={z * z:.6g})"
        )
    from scipy.optimize import brentq

    q = 1.0 - z * z / n

    def g(t):
        return expected_tau_ratio(noise, sigma, t) - q

    lo = 1e-12 * sigma
    hi = sigma * math.sqrt(n) / z
    g_lo = g(lo)
    g_hi = g(hi)
    if not (g_lo < 0.0 < g_hi):  # pragma: no cover - guaranteed bracket
        raise RuntimeError(
            f"tau_star bracket failed: g({lo:.3g})={g_lo:.3g}, g({hi:.3g})={g_hi:.3g}"
        )
    root = brentq(g, lo, hi, xtol=1e-13 * hi, rtol=4.0 * 2.3e-16, maxiter=300)
    residual = g(root)
    if abs(residual) > _RESIDUAL_TOL:
        raise RuntimeError(
            f"tau_star residual {residual:.3g} exceeds {_RESIDUAL_TOL:g}"
        )
    trunc = sigma_tau_sq(noise, sigma, root)
    lower = n * trunc / (4.0 * z * z)
    upper = n * sigma * sigma / (2.0 * z * z)
    slack = 1e-6
    root_sq = root * root
    if root_sq > upper * (1.0 + slack) or lower > root_sq * (1.0 + slack):
        raise RuntimeError(
            f"tau_star bracket certificate failed: {lower:.6g} <= {root_sq:.6g} "
            f"<= {upper:.6g} does not hold"
        )
    return OracleSolution(
        tau_star=float(root),
        sigma_tau_star_sq=float(trunc),
        lower_bound_sq=float(lower),
        upper_bound_sq=float(upper),
        residual=float(residual),
    )


def tau_star_monotonicity_check(noise: NoiseModel, sigma, n_grid, z) -> bool:
    """True when tau_star is strictly increasing along the sorted grid."""
    grid = sorted(set(int(n) for n in n_grid))
    if not grid:
        raise ValueError("n_grid is empty")
    values = [tau_star(noise, sigma, n, z).tau_star for n in grid]
    return all(b > a for a, b in zip(values, values[1:]))
