"""Joint minimization of the penalized pseudo-Huber objective in (mu, tau).

Two strategies minimize the same strictly convex objective:

``agd``
    Alternating coordinate descent.  Each sweep takes a tau step from the
    current point, then a mu step at the updated tau.  Steps start from the
    inverse of the coordinate curvature (a one-dimensional Newton step) and
    are safeguarded by Armijo backtracking, so the objective never increases.
    When the sweeps stall at the resolution of float64 loss comparisons, a
    short capped refinement drives the gradient down to its rounding floor.
``exact_coordinate``
    Alternating exact one-dimensional minimizations by bisection on the
    coordinate gradients.  Slower but assumption-free; it exists as an
    independent check on ``agd`` and the two must land on the same optimum.

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
from .loss import Hessian2x2, as_sample

_ARMIJO_C1 = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 80
_EPS = float(np.finfo(np.float64).eps)
# consecutive sweeps without a representable loss decrease before the sweep
# loop hands over to the polishing phase
_PLATEAU_SWEEPS = 2
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
        Convergence threshold on max(|grad_mu|, |grad_tau|), scaled by
        max(1, data scale).
    max_iters
        Sweep budget.
    tau_floor
        Lower clamp for tau; default 1e-8 times the data scale.
    strategy
        "agd" or "exact_coordinate".
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


def robust_scale(data) -> float:
    """1.4826 * MAD, falling back to |median|; may be 0 for constant data."""
    med, mad = median_and_mad(data)
    scale = 1.4826 * mad
    if scale == 0.0:
        scale = abs(med)
    return scale


def _projected_grad_tau(g_tau: float, tau: float, floor: float) -> float:
    # at the floor with an uphill tau direction the constrained optimum is on
    # the boundary, so the tau component of the optimality residual is 0
    if tau <= floor and g_tau > 0.0:
        return 0.0
    return g_tau


def _residual(g_mu: float, g_tau: float, tau: float, floor: float) -> float:
    """Optimality residual max(|g_mu|, |projected g_tau|)."""
    return max(abs(g_mu), abs(_projected_grad_tau(g_tau, tau, floor)))


def _armijo_coordinate(y, mu, tau, z, loss0, which, g, curv, floor, y_range):
    """One backtracking step along a single coordinate.

    Returns the new (mu, tau, loss).  The initial trial step is the inverse
    curvature (Newton) step; backtracking halves it until the Armijo
    sufficient-decrease test passes.  tau trials are projected onto
    [floor, inf) before evaluation.  A failed search leaves the point alone.
    """
    if g == 0.0:
        return mu, tau, loss0
    x = mu if which == "mu" else tau
    if curv > 0.0 and math.isfinite(curv):
        eta = 1.0 / curv
    else:
        # curvature underflow (tau astronomically large): fall back to a step
        # sized by the coordinate itself
        eta = max(abs(x), 1.0) / abs(g)
    for _ in range(_MAX_BACKTRACKS):
        x_new = x - eta * g
        if which == "tau" and x_new < floor:
            x_new = floor
        if x_new == x:
            return mu, tau, loss0
        if math.isfinite(x_new):
            if which == "mu":
                trial = kernels.total_loss(y, x_new, tau, z, y_range)
            else:
                trial = kernels.total_loss(y, mu, x_new, z, y_range)
            # g * (x - x_new) >= 0 by construction, also after projection
            if trial <= loss0 - _ARMIJO_C1 * g * (x - x_new):
                if which == "mu":
                    return x_new, tau, trial
                return mu, x_new, trial
        eta *= _ARMIJO_SHRINK
    return mu, tau, loss0


def _converged_flag(ev, mu, tau, floor, target_tol):
    """Optimality residual and convergence decision at a candidate point.

    Convergence means each gradient coordinate is within the requested
    tolerance or at its float64 attainability floor: moving a coordinate by
    one ulp changes its gradient by about curvature * ulp, so when that
    exceeds the tolerance (tiny tau pinned at its floor makes the mu
    curvature enormous) no representable point can do better and the best
    representable point counts as converged.  ``ev`` is
    ``kernels.grad_hess`` at (mu, tau).
    """
    g_mu, g_tau, h_mm, _, h_tt = ev
    g_t = _projected_grad_tau(g_tau, tau, floor)
    g_norm = max(abs(g_mu), abs(g_t))
    if g_norm <= target_tol:
        return g_norm, True
    eps = float(np.finfo(float).eps)
    ok_mu = abs(g_mu) <= max(target_tol, 8.0 * h_mm * eps * max(1.0, abs(mu)))
    ok_tau = abs(g_t) <= max(target_tol, 8.0 * h_tt * eps * max(1.0, tau))
    return g_norm, ok_mu and ok_tau


def _polish(y, tau, z, floor, y_range, med, rounds=12):
    """Finishing refinement once the backtracking sweeps stall.

    Near the optimum the per-sweep loss decrease drops below the float64
    resolution of the objective, so the Armijo test can no longer certify
    progress even though the gradient is still above tight tolerances.  The
    leftover error lies along the (mu, tau) valley, where alternating steps
    contract by only 1 - rho^2 per sweep (rho is the Hessian correlation, and
    it approaches 1 for strongly coupled samples).  So the finish works along
    the valley instead: recenter mu exactly at the current tau, then step tau
    by the profile gradient over the profile (Schur complement) curvature.
    Steps are capped at half of tau, and only steps that reduce the
    optimality residual are kept.  Returns the best point and its
    ``kernels.grad_hess`` evaluation.
    """
    mu = _newton_fixed_tau(y, tau, z, y_range, med)
    ev = kernels.grad_hess(y, mu, tau, z, y_range)
    best = (mu, tau, ev)
    best_norm = _residual(ev[0], ev[1], tau, floor)
    for _ in range(rounds):
        _, g_tau, h_mm, h_mt, h_tt = ev
        h_prof = h_tt - (h_mt * h_mt / h_mm if h_mm > 0.0 else 0.0)
        if not (h_prof > 0.0 and math.isfinite(h_prof)):
            break
        step = g_tau / h_prof
        cap = 0.5 * tau
        if abs(step) > cap:
            step = math.copysign(cap, step)
        tau = max(tau - step, floor)
        mu = _newton_fixed_tau(y, tau, z, y_range, med)
        ev = kernels.grad_hess(y, mu, tau, z, y_range)
        norm = _residual(ev[0], ev[1], tau, floor)
        if norm < best_norm:
            best_norm = norm
            best = (mu, tau, ev)
        else:
            break
    return best


def _agd(y, mu, tau, z, floor, target_tol, max_iters, y_range, med):
    loss = kernels.total_loss(y, mu, tau, z, y_range)
    # the derivatives at the current point; each sweep ends by evaluating
    # them at its end point, which is where the next sweep starts
    ev = kernels.grad_hess(y, mu, tau, z, y_range)
    converged = False
    it = 0
    g_norm = math.inf
    plateau = 0
    for it in range(1, max_iters + 1):
        mu_prev, tau_prev, loss_prev = mu, tau, loss
        # tau step first, then mu at the updated tau
        g_tau, h_tt = ev[1], ev[4]
        mu, tau, loss = _armijo_coordinate(
            y, mu, tau, z, loss, "tau", g_tau, h_tt, floor, y_range
        )
        if tau != tau_prev:
            ev = kernels.grad_hess(y, mu, tau, z, y_range)
        g_mu, h_mm = ev[0], ev[2]
        mu, tau, loss = _armijo_coordinate(
            y, mu, tau, z, loss, "mu", g_mu, h_mm, floor, y_range
        )
        if loss > loss_prev:
            raise RuntimeError("descent violated: objective increased within a sweep")
        moved = (
            abs(mu - mu_prev) > _STEP_RTOL * max(1.0, abs(mu), abs(mu_prev))
            or abs(tau - tau_prev) > _STEP_RTOL * max(1.0, tau, tau_prev)
        )
        # a sweep that cannot shave even one ulp off the objective is done,
        # whether or not the iterates still flutter: once the predicted
        # Armijo decrease underflows against the loss, equal-loss trials get
        # accepted and the point can hop between adjacent floats forever
        if loss_prev - loss <= _EPS * loss_prev:
            plateau += 1
        else:
            plateau = 0
        if not moved or plateau >= _PLATEAU_SWEEPS:
            # fixed point of the sweep map at working precision
            mu, tau, ev = _polish(y, tau, z, floor, y_range, med)
            g_norm, converged = _converged_flag(ev, mu, tau, floor, target_tol)
            break
        if mu != mu_prev:
            ev = kernels.grad_hess(y, mu, tau, z, y_range)
        g_norm = _residual(ev[0], ev[1], tau, floor)
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


def _exact_coordinate(y, mu, tau, z, floor, target_tol, max_iters, y_range):
    lo, hi = y_range
    it = 0
    for it in range(1, max_iters + 1):
        mu_prev, tau_prev = mu, tau
        mu = _bisect_grad_mu(y, tau, z, lo, hi, y_range)
        tau = _bisect_grad_tau(y, mu, z, floor, tau, y_range)
        moved = (
            abs(mu - mu_prev) > _STEP_RTOL * max(1.0, abs(mu), abs(mu_prev))
            or abs(tau - tau_prev) > _STEP_RTOL * max(1.0, tau, tau_prev)
        )
        if not moved:
            break
    ev = kernels.grad_hess(y, mu, tau, z, y_range)
    g_norm, converged = _converged_flag(ev, mu, tau, floor, target_tol)
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
    med, mad = median_and_mad(y)
    scale = 1.4826 * mad
    if scale == 0.0:
        scale = abs(med)
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
    target_tol = cfg.grad_tol * max(1.0, scale)
    if _collapse_possible(y, n, z):
        # the tau profile is strictly convex, so an uphill profile gradient
        # at the floor proves the joint minimizer sits on the boundary; the
        # sweep strategies would crawl along the collapsing valley instead
        mu_b, ev = _fit_at_floor(y, z, floor, y_range, med)
        if ev[1] >= 0.0:
            g_norm, converged = _converged_flag(ev, mu_b, floor, floor, target_tol)
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
        tau0 = max(1.4826 * mad, floor) * math.sqrt(n) / z
    if cfg.strategy == "agd":
        mu, tau, it, g_norm, converged = _agd(
            y, mu0, tau0, z, floor, target_tol, cfg.max_iters, y_range, med
        )
    else:
        mu, tau, it, g_norm, converged = _exact_coordinate(
            y, mu0, tau0, z, floor, target_tol, cfg.max_iters, y_range
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
