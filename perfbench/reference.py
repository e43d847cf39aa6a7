"""Reference checks for fit and study results.

Nothing here calls ``autohuber.kernels``: the stationarity conditions are
summed with ``math.fsum`` over per-element terms computed in standardized
units, so a kernel that returns wrong sums cannot also vouch for itself.

The joint objective's gradient is scale-free.  With r_i = (y_i - mu) / s,
t = tau / s for any scale s, h_i = hypot(r_i, t), u_i = t / h_i and
v_i = r_i / h_i, the optimality conditions read

    g_mu  = -sum(v_i) / (z sqrt(n))                        = 0
    g_tau =  sum(u_i) / (z sqrt(n)) - (sqrt(n)/z - z/sqrt(n)) = 0

with g_tau allowed to be positive when tau sits at its floor.  A coordinate
passes when its gradient is within GRAD_TOL or within what one float64 step
of that coordinate can change it (curvature times ulp, with the same safety
factor 8 the solver uses), measured at the actual coordinate, not at
max(1, |coordinate|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# z for the default confidence level delta = 0.05: 5 sqrt(log(5 / delta))
DEFAULT_Z = 5.0 * math.sqrt(math.log(5.0 / 0.05))
# EstimatorConfig().grad_tol, applied to the dimensionless gradient
GRAD_TOL = 1e-10
ATTAIN_ULPS = 8.0
# EstimatorConfig's default floor is this multiple of the robust scale
FLOOR_FACTOR = 1e-8
# relative accuracy of the equivariance relation for representable inputs
EQUIVARIANCE_RTOL = 1e-9


def robust_scale(y):
    """1.4826 * MAD, falling back to |median|, then to 1 for an all-zero sample."""
    med = float(np.median(y))
    scale = 1.4826 * float(np.median(np.abs(y - med)))
    if scale == 0.0:
        scale = abs(med)
    return scale if scale > 0.0 else 1.0


def _fsum(arr):
    return math.fsum(arr.tolist())


@dataclass(frozen=True)
class Stationarity:
    g_mu: float
    g_tau: float
    tol_mu: float
    tol_tau: float
    at_floor: bool

    @property
    def g_tau_projected(self):
        return 0.0 if self.at_floor and self.g_tau > 0.0 else self.g_tau

    @property
    def ok(self):
        return (
            abs(self.g_mu) <= self.tol_mu
            and abs(self.g_tau_projected) <= self.tol_tau
        )


def _terms(y, mu, tau, scale):
    r = (y - mu) / scale
    t = tau / scale
    h = np.hypot(r, t)
    return h, t / h, r / h


def stationarity(y, mu, tau, z):
    """Evaluate both optimality conditions at (mu, tau) with math.fsum."""
    n = y.size
    s = robust_scale(y)
    h, u, v = _terms(y, mu, tau, s)
    c = z * math.sqrt(n)
    g_mu = -_fsum(v) / c
    g_tau = _fsum(u) / c - (math.sqrt(n) / z - z / math.sqrt(n))
    curv_mu = _fsum(u * u / h) / c
    curv_tau = _fsum(v * v / h) / c
    return Stationarity(
        g_mu=g_mu,
        g_tau=g_tau,
        tol_mu=max(GRAD_TOL, ATTAIN_ULPS * curv_mu * math.ulp(mu) / s),
        tol_tau=max(GRAD_TOL, ATTAIN_ULPS * curv_tau * math.ulp(tau) / s),
        at_floor=tau <= FLOOR_FACTOR * s * (1.0 + 1e-12),
    )


def fit_failure(y, result, z):
    """Why a fit result is unacceptable for sample y, or None when it is fine.

    ``result`` has mu_hat, tau_hat, converged and degenerate, like
    ``autohuber.FitResult``.  A result that claims convergence but is not
    stationary is reported as ``wrong_result``.
    """
    if not result.converged:
        return "not_converged"
    if not (math.isfinite(result.mu_hat) and math.isfinite(result.tau_hat)):
        return "wrong_result"
    if result.degenerate:
        return None if bool(np.all(y == result.mu_hat)) else "wrong_result"
    if not stationarity(y, result.mu_hat, result.tau_hat, z).ok:
        return "wrong_result"
    return None


def _optimal_tau_at(y, mu, tau, z, scale, steps=8):
    """Root of g_tau(mu, .) by Newton's method from tau (g_tau is increasing)."""
    n = y.size
    c = z * math.sqrt(n)
    for _ in range(steps):
        h, u, v = _terms(y, mu, tau, scale)
        g_tau = _fsum(u) / c - (math.sqrt(n) / z - z / math.sqrt(n))
        step = scale * g_tau / (_fsum(v * v / h) / c)
        tau -= step
        if abs(step) <= 4.0 * math.ulp(tau):
            break
    return tau


def equivariance_failure(result, y0, fit0, a, b, z):
    """Check fit(a*y0 + b) = result against fit(y0) = fit0; None when it holds.

    mu must land within 1e-9 scale of a*mu0 + b, plus one ulp, since it can
    only take float64 values near there (a grid of 0.125 at 1e15).  tau must
    then match |a| times the optimal tau of y0 at the mu the result maps back
    to, (mu - b) / a, to 1e-9.
    """
    scale = robust_scale(y0)
    mu_exp = a * fit0.mu_hat + b
    if abs(result.mu_hat - mu_exp) > EQUIVARIANCE_RTOL * abs(a) * scale + math.ulp(mu_exp):
        return "not_equivariant"
    tau_exp = abs(a) * _optimal_tau_at(y0, (result.mu_hat - b) / a, fit0.tau_hat, z, scale)
    if abs(result.tau_hat - tau_exp) > EQUIVARIANCE_RTOL * tau_exp:
        return "not_equivariant"
    return None


QUANTILES = ("q50", "q90", "q95", "q99")


def study_row_problems(row, replications):
    """Invariant violations of one ``StudyRow``, as a list of strings."""
    problems = []
    qs = [getattr(row, q) for q in QUANTILES]
    if not all(math.isfinite(q) and q >= 0.0 for q in qs):
        problems.append(f"{row.estimator} n={row.n}: non-finite or negative quantile")
    elif any(lo > hi for lo, hi in zip(qs, qs[1:])):
        problems.append(f"{row.estimator} n={row.n}: quantiles out of order")
    for name in ("median_tau_hat", "tau_star"):
        value = getattr(row, name)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            problems.append(f"{row.estimator} n={row.n}: {name}={value!r}")
    if row.coverage is not None and not (0.0 <= row.coverage <= 1.0):
        problems.append(f"{row.estimator} n={row.n}: coverage={row.coverage!r}")
    if not (0 <= row.failures <= replications):
        problems.append(f"{row.estimator} n={row.n}: failures={row.failures!r}")
    return problems
