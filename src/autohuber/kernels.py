"""Reduction kernels for the penalized pseudo-Huber objective.

Everything here reduces a residual vector to a handful of scalars: the
objective value, its gradient in (mu, tau), and the three distinct entries of
its Hessian.  ``loss_grad_hess`` is the solver's workhorse: one pass over
the sample that returns the objective, the gradient and the Hessian
together, so a point costs one residual vector and one root vector however
much of it the caller needs.  ``grad_hess``, ``grad_pair`` and ``hessian``
are that same pass without the objective.

The objective for a sample y_1..y_n with residuals r_i = y_i - mu is

    L(mu, tau) = sum_i (sqrt(tau^2 + r_i^2) - tau) / (z sqrt(n))
                 + z tau / sqrt(n)

with tau > 0 and adjustment factor z > 0.  The root h = sqrt(r^2 + tau^2)
is computed exactly that way whenever tau lies in [1e-150, 1e150] and no
|r| exceeds 1e150, where r^2 + tau^2 can neither overflow nor lose tau^2 to
underflow.  Otherwise ``np.hypot`` takes over, which is finite for any
float64 input but makes a pass over a large sample about twice as slow.
The excess term sqrt(tau^2 + r^2) - tau is evaluated as r^2 / (h + tau),
or as (r / (h + tau)) * r on the hypot side and in ``loss_grad_hess`` so
that r is never squared, which avoids the cancellation that kills the naive
form for small residuals.  Hessian entries use the normalized ratios
u = tau/h, v = r/h (both bounded by 1 in magnitude), again so that nothing
overflows before it is divided.  Sums are numpy's pairwise sums.

Whether every residual is inside the band follows from the sample's range:
pass ``y_range=(min(y), max(y))`` to decide it without a pass over y, which
is what the solver does with the range it computes once per fit.  Without
it each call finds the range itself.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# tau and every |r| inside this band keep r^2 + tau^2 a normal float64, so
# the plain square root is as accurate as hypot
_SQRT_LO = 1e-150
_SQRT_HI = 1e150


def sqrt_safe(y, mu, tau, y_range=None) -> bool:
    """Whether sqrt(r^2 + tau^2) is safe for every r = y_i - mu."""
    if not (_SQRT_LO <= tau <= _SQRT_HI):
        return False
    lo, hi = (float(y.min()), float(y.max())) if y_range is None else y_range
    # max |y_i - mu| over the range, also when mu lies outside it
    return max(hi - mu, mu - lo) <= _SQRT_HI


def _root(r, tau, fast):
    """sqrt(r^2 + tau^2) per element, as a new array."""
    if not fast:
        return np.hypot(r, tau)
    h = np.multiply(r, r)
    h += tau * tau
    return np.sqrt(h, out=h)


def excess(r, tau, fast):
    """sqrt(r^2 + tau^2) - tau per element, without cancellation.

    ``fast`` is ``sqrt_safe`` for these residuals.  Returns a new array and
    leaves ``r`` alone.
    """
    if fast:
        e = np.multiply(r, r)
        h = np.add(e, tau * tau)
        np.sqrt(h, out=h)
        h += tau
        e /= h
    else:
        h = np.hypot(r, tau)
        h += tau
        e = np.divide(r, h, out=h)
        e *= r
    return e


def total_loss(y, mu, tau, z, y_range=None):
    n = y.shape[0]
    r = np.subtract(y, mu)
    e = excess(r, tau, sqrt_safe(y, mu, tau, y_range))
    sqrt_n = math.sqrt(n)
    return float(e.sum() / (z * sqrt_n) + z * tau / sqrt_n)


def _pass(y, mu, tau, z, y_range, with_loss, second_order):
    """Objective (optional), gradient and Hessian (optional) in one sweep.

    At most four n-length arrays are live: r (later v = r/h), h, u and a
    scratch array t.
    """
    n = y.shape[0]
    sqrt_n = math.sqrt(n)
    c = 1.0 / (z * sqrt_n)
    r = np.subtract(y, mu)
    h = _root(r, tau, sqrt_safe(y, mu, tau, y_range))
    u = np.divide(tau, h)
    loss = ()
    t = None
    if with_loss:
        # the excess as (r / (h + tau)) * r, never squaring r
        t = np.add(h, tau)
        np.divide(r, t, out=t)
        t *= r
        loss = (float(t.sum() / (z * sqrt_n) + z * tau / sqrt_n),)
    v = np.divide(r, h, out=r)
    g_mu = -float(v.sum()) * c
    g_tau = float(u.sum()) * c - (sqrt_n / z - z / sqrt_n)
    if not second_order:
        return loss + (g_mu, g_tau)
    t = np.multiply(u, u, out=t)
    t /= h
    h_mm = float(t.sum()) * c
    np.multiply(u, v, out=t)
    t /= h
    h_mt = float(t.sum()) * c
    np.multiply(v, v, out=t)
    t /= h
    h_tt = float(t.sum()) * c
    return loss + (g_mu, g_tau, h_mm, h_mt, h_tt)


def loss_grad_hess(y, mu, tau, z, y_range=None):
    """(loss, g_mu, g_tau, h_mumu, h_mutau, h_tautau) from a single pass."""
    return _pass(y, mu, tau, z, y_range, True, True)


def grad_hess(y, mu, tau, z, y_range=None):
    """(g_mu, g_tau, h_mumu, h_mutau, h_tautau) from a single pass."""
    return _pass(y, mu, tau, z, y_range, False, True)


def grad_pair(y, mu, tau, z, y_range=None):
    """(g_mu, g_tau): the first half of ``grad_hess``."""
    return _pass(y, mu, tau, z, y_range, False, False)


def hessian(y, mu, tau, z, y_range=None):
    """(h_mumu, h_mutau, h_tautau): the second half of ``grad_hess``."""
    return _pass(y, mu, tau, z, y_range, False, True)[2:]
