"""Joint minimization of the penalized pseudo-Huber objective in (mu, tau).

Two strategies minimize the same strictly convex objective:

``agd``
    The default engine (the name is kept for compatibility): a damped
    projected Newton iteration on (mu, tau) jointly (Bertsekas 1982,
    projected Newton methods for simple bounds) with Armijo backtracking
    and tau projected onto [tau_floor, inf).  Each trial point costs one
    kernel pass that returns the objective, the gradient and the Hessian,
    so an accepted step carries the next step's data; a default fit
    typically takes four to seven passes.
``exact_coordinate``
    Alternating exact one-dimensional minimizations by bisection on the
    coordinate gradients.  Slower but assumption-free; it exists as an
    independent check on ``agd`` and the two must land on the same optimum.

Both stop on rules without units: the gradient is dimensionless and is
compared with ``grad_tol`` as it is, and float64 attainability is judged at
each coordinate's own size, so a sample scaled by 1e-300 or 1e300 converges
exactly as the sample itself does.

tau is kept in [tau_floor, inf).  When the penalty coefficient
sqrt(n)/z - z/sqrt(n) is nonpositive (n <= z^2) the objective is strictly
increasing in tau, the estimate collapses to the floor, and the fit warns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .loss import as_sample

_ARMIJO_C1 = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 80
_EPS = float(np.finfo(np.float64).eps)
# a predicted decrease below this many ulps of the objective is beyond what
# a float64 loss comparison can certify
_LOSS_ULPS = 16.0
# relative parameter movement below which a sweep counts as stationary
_STEP_RTOL = 1e-13


class TauCollapseWarning(UserWarning):
    """Penalty coefficient nonpositive: tau has no interior minimizer."""


def default_z(delta: float) -> float:
    """Adjustment factor for confidence level delta: 5 * sqrt(log(5/delta))."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return 5.0 * math.sqrt(math.log(5.0 / delta))


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for ``fit``.

    delta
        Confidence level driving the default adjustment factor.
    z_override
        Use this z instead of ``default_z(delta)``.
    grad_tol
        Convergence threshold on max(|grad_mu|, |grad_tau|).  The gradient
        is dimensionless, so the threshold does not depend on the data's
        units.
    max_iters
        Iteration budget: Newton steps for "agd", sweeps for
        "exact_coordinate".
    tau_floor
        Lower clamp for tau; default 1e-8 times the data scale.
    strategy
        "agd" (the joint Newton engine; the name is kept for compatibility)
        or "exact_coordinate".
    init
        Optional (mu0, tau0) starting point; default is median / scaled MAD.
    """

    delta: float = 0.05
    z_override: float | None = None
    grad_tol: float = 1e-10
    max_iters: int = 100_000
    tau_floor: float | None = None
    strategy: str = "agd"
    init: tuple[float, float] | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.z_override is not None and not (
            math.isfinite(self.z_override) and self.z_override > 0.0
        ):
            raise ValueError(f"z_override must be positive, got {self.z_override!r}")
        if not (self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if self.tau_floor is not None and not (self.tau_floor > 0.0):
            raise ValueError(f"tau_floor must be positive, got {self.tau_floor!r}")
        if self.strategy not in ("agd", "exact_coordinate"):
            raise ValueError(
                f"strategy must be 'agd' or 'exact_coordinate', got {self.strategy!r}"
            )
        if self.init is not None:
            mu0, tau0 = self.init
            if not (math.isfinite(mu0) and math.isfinite(tau0) and tau0 > 0.0):
                raise ValueError(f"init must be (finite mu0, positive tau0), got {self.init!r}")

    @property
    def z(self) -> float:
        if self.z_override is not None:
            return float(self.z_override)
        return default_z(self.delta)


@dataclass(frozen=True)
class FitResult:
    mu_hat: float
    tau_hat: float
    iterations: int
    grad_norm: float
    converged: bool
    degenerate: bool


@dataclass(frozen=True)
class DiagnosticsReport:
    stationarity_mu: float
    stationarity_tau: float
    empirical_kappa: float
    ball_radius: float
    degenerate: bool


def median_and_mad(data) -> tuple[float, float]:
    y = np.asarray(data, dtype=np.float64)
    med = float(np.median(y))
    mad = float(np.median(np.abs(y - med)))
    return med, mad


def _median_scale(data) -> tuple[float, float]:
    """Sample median and robust scale (1.4826 * MAD, falling back to |median|)."""
    med, mad = median_and_mad(data)
    scale = 1.4826 * mad
    return med, (scale if scale > 0.0 else abs(med))


def robust_scale(data) -> float:
    """1.4826 * MAD, falling back to |median|; may be 0 for constant data."""
    return _median_scale(data)[1]


def _projected_grad_tau(g_tau: float, tau: float, floor: float) -> float:
    # at the floor with an uphill tau direction the constrained optimum is on
    # the boundary, so the tau component of the optimality residual is 0
    if tau <= floor and g_tau > 0.0:
        return 0.0
    return g_tau


def _converged_flag(ev, mu, tau, floor, scale, tol):
    """Optimality residual and convergence decision at a candidate point.

    The gradient is dimensionless, so it is compared with ``tol`` as it is.
    Convergence means each gradient coordinate is within ``tol`` or at its
    float64 attainability floor: moving a coordinate by one ulp changes its
    gradient by about curvature * ulp, so when that exceeds the tolerance
    (tiny tau pinned at its floor makes the mu curvature enormous; mu at
    1e15 has an ulp of 0.125) no representable point can do better and the
    best representable point counts as converged.  The ulp is taken at the
    coordinate's own size, max(|mu|, scale) for mu and tau for tau.  ``ev``
    ends with ``kernels.grad_hess`` at (mu, tau).
    """
    g_mu, g_tau, h_mm, _, h_tt = ev[-5:]
    g_t = _projected_grad_tau(g_tau, tau, floor)
    g_norm = max(abs(g_mu), abs(g_t))
    if g_norm <= tol:
        return g_norm, True
    ok_mu = abs(g_mu) <= max(tol, 8.0 * _EPS * (h_mm * max(abs(mu), scale)))
    ok_tau = abs(g_t) <= max(tol, 8.0 * _EPS * (h_tt * tau))
    return g_norm, ok_mu and ok_tau


def _newton_step(ev, mu, tau, floor, span):
    """Damped projected Newton step (d_mu, d_tau) at a point evaluated as ``ev``.

    The 2x2 system is solved with the Hessian times tau (dimensionless), whose
    determinant is kept at least eps times its diagonal product: a Hessian
    singular to working precision (all residuals alike, far from the bulk
    of the sample) gives a long step that the damping turns into a jump.
    Only mu moves when tau sits at the floor with an uphill gradient, and
    only tau when mu's increment is below its ulp (a joint step would move
    tau as if mu had moved).  Damping, with x = -d_tau / tau: tau keeps at
    least half of itself, and beyond x = 2 it is divided by sqrt(2 x), the
    large-x minimizer of the model A/tau + B*tau with the same slope and
    curvature (the objective's shape in tau once residuals are small against
    it).  mu moves by at most the sample's width.
    """
    _, g_mu, g_tau, h_mm, h_mt, h_tt = ev
    if tau <= floor and g_tau > 0.0:
        d_mu, d_tau = (-g_mu / h_mm if h_mm > 0.0 else 0.0), 0.0
    else:
        a_mm, a_mt, a_tt = tau * h_mm, tau * h_mt, tau * h_tt
        det = max(a_mm * a_tt - a_mt * a_mt, _EPS * (a_mm * a_tt))
        if not (det > 0.0 and math.isfinite(det)):
            return 0.0, 0.0
        d_mu = -tau * ((a_tt * g_mu - a_mt * g_tau) / det)
        d_tau = -tau * ((a_mm * g_tau - a_mt * g_mu) / det)
        if abs(d_mu) < math.ulp(mu):
            d_mu, d_tau = 0.0, -g_tau / h_tt
    x = -d_tau / tau
    if x > 0.5:
        shrink = (1.0 - min(0.5, 1.0 / math.sqrt(2.0 * x))) / x
        d_mu, d_tau = shrink * d_mu, shrink * d_tau
    if abs(d_mu) > span:
        shrink = span / abs(d_mu)
        d_mu, d_tau = shrink * d_mu, shrink * d_tau
    return d_mu, d_tau


def _moved_residual(ev, tau, floor, dm, dt):
    """Largest gradient component among the coordinates a step moves."""
    g_t = _projected_grad_tau(ev[2], tau, floor)
    return max(abs(ev[1]) if dm else 0.0, abs(g_t) if dt else 0.0)


def _line_search(y, mu, tau, z, floor, ev, step, y_range):
    """Backtracking along the projected step; the accepted point and its
    ``kernels.loss_grad_hess``, or None when no trial is accepted.

    A trial is accepted when the objective shows the Armijo decrease, or
    when the gradient at the trial certifies it: for a convex objective
    L(trial) <= L + g_trial . step, so g_trial . step <= c1 * g . step
    implies the Armijo condition without comparing two rounded losses.
    Where the predicted decrease is below the float64 resolution of the
    objective (near the optimum, or everywhere when one huge residual
    dominates the objective), a trial that lowers the gradient on the
    coordinates the step moves is kept too.
    """
    loss0, g_mu, g_tau = ev[:3]
    d_mu, d_tau = step
    resolution = _LOSS_ULPS * _EPS * abs(loss0)
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        mu_t = mu + alpha * d_mu
        tau_t = max(tau + alpha * d_tau, floor)
        if mu_t == mu and tau_t == tau:
            return None
        dm, dt = mu_t - mu, tau_t - tau
        predicted = g_mu * dm + g_tau * dt
        if predicted < 0.0 and math.isfinite(mu_t) and math.isfinite(tau_t):
            ev_t = kernels.loss_grad_hess(y, mu_t, tau_t, z, y_range)
            sufficient = _ARMIJO_C1 * predicted
            if ev_t[0] < loss0 + sufficient or ev_t[1] * dm + ev_t[2] * dt <= sufficient:
                return mu_t, tau_t, ev_t
            if (
                -predicted <= resolution
                and ev_t[0] <= loss0 + resolution
                and _moved_residual(ev_t, tau_t, floor, dm, dt)
                < _moved_residual(ev, tau, floor, dm, dt)
            ):
                return mu_t, tau_t, ev_t
        alpha *= _ARMIJO_SHRINK
    return None


def _joint_newton(y, mu, tau, z, floor, scale, tol, max_iters, y_range):
    lo, hi = y_range
    top = math.sqrt(y.shape[0]) / z
    ev = kernels.loss_grad_hess(y, mu, tau, z, y_range)
    g_norm, converged = _converged_flag(ev, mu, tau, floor, scale, tol)
    it = 0
    while not converged and it < max_iters:
        it += 1
        # The objective decreases in mu toward [min y, max y] and in tau
        # down to tau_hi (above max|y_i - mu| * sqrt(n) / z every u_i
        # exceeds 1 - z^2 / n, so g_tau > 0).  A point outside moves straight
        # in: a descent step that Newton would crawl through, as the
        # curvature all but vanishes out there.
        mu_in = min(max(mu, lo), hi)
        tau_hi = max(max(hi - mu_in, mu_in - lo) * top, floor)
        if mu_in != mu or tau > tau_hi:
            mu, tau = mu_in, min(tau, tau_hi)
            ev = kernels.loss_grad_hess(y, mu, tau, z, y_range)
        else:
            step = _newton_step(ev, mu, tau, floor, hi - lo)
            found = _line_search(y, mu, tau, z, floor, ev, step, y_range)
            if found is None:
                break
            mu, tau, ev = found
        g_norm, converged = _converged_flag(ev, mu, tau, floor, scale, tol)
    return mu, tau, it, g_norm, converged


# enough halvings to collapse any float64 bracket to adjacent values
_MAX_BISECT = 2200


def _bisect_grad_mu(y, tau, z, lo, hi, y_range):
    # grad_mu is strictly increasing in mu; sign change is guaranteed on
    # [min y, max y]
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        g, _ = kernels.grad_pair(y, mid, tau, z, y_range)
        if g < 0.0:
            lo = mid
        elif g > 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def _bisect_grad_tau(y, mu, z, floor, hint, y_range):
    _, g_floor = kernels.grad_pair(y, mu, floor, z, y_range)
    if g_floor >= 0.0:
        return floor
    hi = max(2.0 * floor, hint)
    _, g_hi = kernels.grad_pair(y, mu, hi, z, y_range)
    doubles = 0
    while g_hi <= 0.0 and doubles < 400:
        hi *= 2.0
        _, g_hi = kernels.grad_pair(y, mu, hi, z, y_range)
        doubles += 1
    if g_hi <= 0.0:  # pragma: no cover - grad_tau -> z/sqrt(n) > 0
        raise RuntimeError("failed to bracket the tau stationarity equation")
    lo = floor
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        _, g = kernels.grad_pair(y, mu, mid, z, y_range)
        if g < 0.0:
            lo = mid
        elif g > 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def _exact_coordinate(y, mu, tau, z, floor, scale, tol, max_iters, y_range):
    lo, hi = y_range
    it = 0
    for it in range(1, max_iters + 1):
        mu_prev, tau_prev = mu, tau
        mu = _bisect_grad_mu(y, tau, z, lo, hi, y_range)
        tau = _bisect_grad_tau(y, mu, z, floor, tau, y_range)
        moved = (
            abs(mu - mu_prev) > _STEP_RTOL * max(abs(mu), abs(mu_prev), scale)
            or abs(tau - tau_prev) > _STEP_RTOL * max(tau, tau_prev)
        )
        if not moved:
            break
    ev = kernels.grad_hess(y, mu, tau, z, y_range)
    g_norm, converged = _converged_flag(ev, mu, tau, floor, scale, tol)
    return mu, tau, it, g_norm, converged


def _resolve_floor(cfg: EstimatorConfig, scale: float) -> float:
    if cfg.tau_floor is not None:
        return float(cfg.tau_floor)
    return 1e-8 * (scale if scale > 0.0 else 1.0)


def _collapse_possible(y, n, z) -> bool:
    """Cheap gate for the tau-floor boundary check.

    The profile gradient at the floor can only be nonnegative when either the
    penalty coefficient is nonpositive (n <= z^2) or a sizable fraction of
    the sample ties exactly: with a floor of 1e-8 * scale, a point needs
    |y_i - mu| of order the floor to push the gradient up, which in float64
    data means repeated values.  Continuous samples skip the check for free.
    """
    if n <= z * z:
        return True
    _, counts = np.unique(y, return_counts=True)
    return counts.max() / n >= 0.5 * (1.0 - z * z / n)


def _fit_at_floor(y, z, floor, y_range, med):
    """Minimize over mu at tau = floor; returns mu and ``grad_hess`` there."""
    mu = _newton_fixed_tau(y, floor, z, y_range, med)
    return mu, kernels.grad_hess(y, mu, floor, z, y_range)


def fit(data, config: EstimatorConfig | None = None) -> FitResult:
    """Jointly estimate (mu, tau) by minimizing the penalized objective.

    Degenerate samples (a single value, or all values identical) short-
    circuit: mu is the common value, tau sits at its floor, and the result is
    flagged degenerate.  For n <= z^2 the fit still runs but tau collapses to
    the floor; a ``TauCollapseWarning`` explains why.
    """
    cfg = config if config is not None else EstimatorConfig()
    y = as_sample(data)
    n = y.size
    z = cfg.z
    med, scale = _median_scale(y)
    floor = _resolve_floor(cfg, scale)
    if n <= z * z:
        warnings.warn(
            f"penalty coefficient sqrt(n)/z - z/sqrt(n) is nonpositive "
            f"(n={n}, z^2={z * z:.6g}); tau collapses to its floor {floor:.6g}",
            TauCollapseWarning,
            stacklevel=2,
        )
    y_range = (float(y.min()), float(y.max()))
    if y_range[0] == y_range[1]:
        return FitResult(
            mu_hat=float(y[0]),
            tau_hat=floor,
            iterations=0,
            grad_norm=0.0,
            converged=True,
            degenerate=True,
        )
    if _collapse_possible(y, n, z):
        # the tau profile is strictly convex, so an uphill profile gradient
        # at the floor proves the joint minimizer sits on the boundary; the
        # iterations would crawl along the collapsing valley instead
        mu_b, ev = _fit_at_floor(y, z, floor, y_range, med)
        if ev[1] >= 0.0:
            g_norm, converged = _converged_flag(ev, mu_b, floor, floor, scale, cfg.grad_tol)
            return FitResult(
                mu_hat=float(mu_b),
                tau_hat=floor,
                iterations=1,
                grad_norm=float(g_norm),
                converged=bool(converged),
                degenerate=False,
            )
    if cfg.init is not None:
        mu0 = float(cfg.init[0])
        tau0 = max(float(cfg.init[1]), floor)
    else:
        mu0 = med
        tau0 = max(scale, floor) * math.sqrt(n) / z
    solve = _joint_newton if cfg.strategy == "agd" else _exact_coordinate
    mu, tau, it, g_norm, converged = solve(
        y, mu0, tau0, z, floor, scale, cfg.grad_tol, cfg.max_iters, y_range
    )
    return FitResult(
        mu_hat=float(mu),
        tau_hat=float(tau),
        iterations=it,
        grad_norm=float(g_norm),
        converged=bool(converged),
        degenerate=False,
    )


def _newton_fixed_tau(y, tau, z, y_range, mu):
    # bracketed Newton on the strictly increasing mu-gradient, started at mu
    # (the median) inside the bracket y_range = (min y, max y); falls back to
    # bisection whenever the Newton trial leaves the bracket
    lo, hi = y_range
    if lo == hi:
        return lo
    for _ in range(_MAX_BISECT):
        g, _, h_mm, _, _ = kernels.grad_hess(y, mu, tau, z, y_range)
        if g > 0.0:
            hi = mu
        elif g < 0.0:
            lo = mu
        else:
            return mu
        mu_new = mu - g / h_mm if h_mm > 0.0 else 0.5 * (lo + hi)
        if not (lo < mu_new < hi):
            mu_new = 0.5 * (lo + hi)
        if mu_new == mu or mu_new == lo or mu_new == hi:
            return mu_new
        mu = mu_new
    return mu


def fit_fixed_tau(data, tau, config: EstimatorConfig | None = None) -> float:
    """Minimize the objective over mu alone, holding tau fixed.

    The objective is strictly convex and smooth in mu for any tau > 0, so a
    bracketed Newton iteration reaches machine precision in a few steps.
    """
    cfg = config if config is not None else EstimatorConfig()
    y = as_sample(data)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    y_range = (float(y.min()), float(y.max()))
    return _newton_fixed_tau(y, float(tau), cfg.z, y_range, float(np.median(y)))


def profile_tau_gradient(data, tau, config: EstimatorConfig | None = None) -> float:
    """Derivative of the tau-profile objective min_mu L(mu, tau).

    By the envelope identity this equals grad_tau evaluated at the
    tau-conditional minimizer mu(tau).  Strictly increasing in tau; its zero
    is the tau component of the joint optimum.
    """
    cfg = config if config is not None else EstimatorConfig()
    y = as_sample(data)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    mu = fit_fixed_tau(y, tau, cfg)
    _, g_tau = kernels.grad_pair(y, float(mu), float(tau), cfg.z)
    return g_tau


def diagnostics(
    data,
    fit_result: FitResult,
    ball_radius: float,
    config: EstimatorConfig | None = None,
) -> DiagnosticsReport:
    """Post-fit stationarity residuals and a local strong-convexity estimate.

    ``empirical_kappa`` is the minimum of the mu-curvature d2L/dmu2 over a
    64-point grid spanning [mu_hat - r, mu_hat + r] at tau_hat: a data-driven
    lower bound on the curvature the mu estimate actually saw.
    """
    cfg = config if config is not None else EstimatorConfig()
    y = as_sample(data)
    if not (math.isfinite(ball_radius) and ball_radius > 0.0):
        raise ValueError(f"ball_radius must be positive, got {ball_radius!r}")
    z = cfg.z
    mu_hat = fit_result.mu_hat
    tau_hat = fit_result.tau_hat
    y_range = (float(y.min()), float(y.max()))
    g_mu, g_tau = kernels.grad_pair(y, mu_hat, tau_hat, z, y_range)
    grid = np.linspace(mu_hat - ball_radius, mu_hat + ball_radius, 64)
    kappa = min(kernels.hessian(y, float(m), tau_hat, z, y_range)[0] for m in grid)
    return DiagnosticsReport(
        stationarity_mu=float(g_mu),
        stationarity_tau=float(g_tau),
        empirical_kappa=float(kappa),
        ball_radius=float(ball_radius),
        degenerate=fit_result.degenerate,
    )
