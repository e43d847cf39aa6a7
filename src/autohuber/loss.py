"""Penalized pseudo-Huber loss: values, gradients, Hessians.

The pointwise loss for a residual x at robustification parameter tau is

    loss(x) = sqrt(n) * (sqrt(tau^2 + x^2) - tau) / z + z * tau / sqrt(n)

where n is the sample size the loss is built for and z > 0 is the adjustment
factor.  Averaging over the residuals y_i - mu gives the sample objective
``total_loss``; the linear-in-tau penalty is what lets a minimizer pick tau
from the data instead of requiring a variance estimate up front.

For |x| << tau the loss is nearly quadratic in x (so the minimizer behaves
like the mean on the bulk of the data); for |x| >> tau it grows linearly (so
stray points contribute a bounded pull, like the median).  tau is the
crossover scale.

All functions validate their inputs and raise ValueError on domain errors;
they never silently clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


def as_sample(values) -> np.ndarray:
    """Coerce ``values`` to a validated 1-D float64 sample.

    Accepts any sequence convertible to floats.  Rejects empty input,
    non-finite entries, and arrays with more than one dimension.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"sample must be one-dimensional, got shape {y.shape}")
    if y.size == 0:
        raise ValueError("sample is empty")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample contains non-finite values")
    return np.ascontiguousarray(y)


def _check_tau_z(tau, z):
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"z must be positive and finite, got {z!r}")


def _check_n(n):
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


def pointwise_loss(x, tau, n, z):
    """Loss of a single residual ``x`` (scalar or array, broadcast over x).

    Lower-bounded by the pure penalty z*tau/sqrt(n), with equality exactly at
    x = 0; even in x; increasing in |x|.
    """
    _check_tau_z(tau, z)
    n = _check_n(n)
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("residual x must be finite")
    excess = kernels.excess(arr, tau, kernels.sqrt_safe(arr, 0.0, tau))
    sqrt_n = math.sqrt(n)
    out = sqrt_n * excess / z + z * tau / sqrt_n
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def total_loss(data, mu, tau, z) -> float:
    """Sample objective: mean pointwise loss of the residuals y_i - mu."""
    y = as_sample(data)
    _check_tau_z(tau, z)
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    return kernels.total_loss(y, float(mu), float(tau), float(z))


def gradient(data, mu, tau, z):
    """Gradient of ``total_loss`` in (mu, tau), returned as a pair."""
    y = as_sample(data)
    _check_tau_z(tau, z)
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    return kernels.grad_pair(y, float(mu), float(tau), float(z))


def grad_mu(data, mu, tau, z) -> float:
    """d total_loss / d mu.  Bounded by sqrt(n)/z in magnitude."""
    return gradient(data, mu, tau, z)[0]


def grad_tau(data, mu, tau, z) -> float:
    """d total_loss / d tau.  Tends to z/sqrt(n) > 0 as tau grows."""
    return gradient(data, mu, tau, z)[1]


@dataclass(frozen=True)
class Hessian2x2:
    """Symmetric 2x2 Hessian of the sample objective at (mu, tau).

    Stored as the three distinct entries, so symmetry holds by construction.
    Positive semidefinite everywhere; positive definite whenever the sample
    has at least two distinct values.
    """

    d_mumu: float
    d_mutau: float
    d_tautau: float

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.d_mumu, self.d_mutau], [self.d_mutau, self.d_tautau]]
        )


def hessian(data, mu, tau, z) -> Hessian2x2:
    """Hessian of ``total_loss`` in (mu, tau)."""
    y = as_sample(data)
    _check_tau_z(tau, z)
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    h_mumu, h_mutau, h_tautau = kernels.hessian(y, float(mu), float(tau), float(z))
    return Hessian2x2(h_mumu, h_mutau, h_tautau)
