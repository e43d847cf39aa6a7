import math
import tracemalloc

import numpy as np

from autohuber import kernels


def _random_instance(rng):
    n = int(rng.integers(2, 400))
    scale = 10.0 ** rng.uniform(-2, 2)
    y = rng.normal(0.0, scale, n)
    mu = float(rng.normal(0.0, scale))
    tau = float(scale * 10.0 ** rng.uniform(-1.5, 1.5))
    z = float(10.0 ** rng.uniform(-0.3, 1.2))
    return y, mu, tau, z


def _fallback_instances(rng):
    """Inputs outside the square-root band, which take the hypot arithmetic."""
    y = rng.normal(0.0, 1.0, 300)
    outlier = y.copy()
    outlier[17] = 3e200
    return [
        (1e-160 * y, 1e-161, 2e-160, 4.0),  # tau below the band
        (1e160 * y, 1e159, 2e160, 4.0),  # tau above the band
        (outlier, 0.1, 1.5, 4.0),  # a residual beyond 1e154, ordinary tau
        (y, -1e200, 1.5, 4.0),  # mu beyond 1e154 from every point
    ]


def _reference(y, mu, tau, z):
    """Loss, gradient pair and Hessian entries with every sum correctly rounded.

    Same per-element terms as the kernels (math.hypot, cancellation-safe
    excess for |r| <= tau), summed with math.fsum so the only error left in
    the kernels' result is their own summation and rounding.
    """
    excess, d_mu, d_tau, h_mm, h_mt, h_tt = [], [], [], [], [], []
    for yi in y.tolist():
        r = yi - mu
        h = math.hypot(r, tau)
        excess.append((r / (h + tau)) * r if abs(r) <= tau else h - tau)
        u, v = tau / h, r / h
        d_mu.append(v)
        d_tau.append(u)
        h_mm.append(u * u / h)
        h_mt.append(u * v / h)
        h_tt.append(v * v / h)
    sqrt_n = math.sqrt(len(y))
    c = 1.0 / (z * sqrt_n)
    loss = math.fsum(excess) / (z * sqrt_n) + z * tau / sqrt_n
    grad = (
        -math.fsum(d_mu) / (z * sqrt_n),
        math.fsum(d_tau) / (z * sqrt_n) - (sqrt_n / z - z / sqrt_n),
    )
    hess = (math.fsum(h_mm) * c, math.fsum(h_mt) * c, math.fsum(h_tt) * c)
    return loss, grad, hess


def _assert_results_close(a, b):
    loss_a, grad_a, hess_a = a
    loss_b, grad_b, hess_b = b
    assert math.isclose(loss_a, loss_b, rel_tol=1e-13, abs_tol=1e-300)
    for x, w in zip(grad_a, grad_b):
        assert math.isclose(x, w, rel_tol=1e-12, abs_tol=1e-13)
    for x, w in zip(hess_a, hess_b):
        assert math.isclose(x, w, rel_tol=1e-12, abs_tol=1e-16)


def _kernel_results(y, mu, tau, z, y_range=None):
    loss = kernels.total_loss(y, mu, tau, z, y_range)
    grad = kernels.grad_pair(y, mu, tau, z, y_range)
    hess = kernels.hessian(y, mu, tau, z, y_range)
    # grad_pair and hessian are the two halves of the fused pass
    assert kernels.grad_hess(y, mu, tau, z, y_range) == grad + hess
    # and the solver's pass adds the objective in front of them
    fused = kernels.loss_grad_hess(y, mu, tau, z, y_range)
    assert fused[1:] == grad + hess
    assert math.isclose(fused[0], loss, rel_tol=1e-13, abs_tol=1e-300)
    return loss, grad, hess


def test_backends_agree_on_random_instances():
    # the kernels against the exact-summation reference, on the square-root
    # path and on the hypot fallback, with the residual range found by the
    # kernels and with it handed in as the solver does
    rng = np.random.default_rng(91)
    instances = [_random_instance(rng) for _ in range(150)]
    instances += _fallback_instances(np.random.default_rng(93))
    for y, mu, tau, z in instances:
        expected = _reference(y, mu, tau, z)
        got = _kernel_results(y, mu, tau, z)
        _assert_results_close(got, expected)
        assert _kernel_results(y, mu, tau, z, (y.min(), y.max())) == got


def _assert_loss_and_grad_close(a, b):
    loss_a, grad_a = a
    loss_b, grad_b = b
    assert math.isclose(loss_a, loss_b, rel_tol=1e-13)
    for x, w in zip(grad_a, grad_b):
        assert math.isclose(x, w, rel_tol=1e-11, abs_tol=1e-14)


def test_backends_agree_on_large_sample():
    rng = np.random.default_rng(92)
    y = rng.standard_t(3, size=200_000)
    outlier = y.copy()
    outlier[1234] = 3e200
    cases = [
        (y, 0.3, 4.0, 10.7),
        # the hypot fallback: tau below the band, above it, and a residual
        # beyond 1e154 with an ordinary tau
        (1e-160 * y, 3e-161, 4e-160, 10.7),
        (1e160 * y, 3e159, 4e160, 10.7),
        (outlier, 0.3, 4.0, 10.7),
    ]
    for args in cases:
        expected_loss, expected_grad, _ = _reference(*args)
        got = (kernels.total_loss(*args), kernels.grad_pair(*args))
        _assert_loss_and_grad_close(got, (expected_loss, expected_grad))
        fused = kernels.loss_grad_hess(*args)
        _assert_loss_and_grad_close((fused[0], fused[1:3]), (expected_loss, expected_grad))


def test_huge_residuals_do_not_overflow():
    # hypot plus the (r / (h + tau)) * r form keep everything finite even when
    # r*r would overflow
    y = np.array([1e200, -1e200, 0.0])
    loss = kernels.total_loss(y, 0.0, 1.0, 2.0)
    assert math.isfinite(loss)
    g_mu, g_tau = kernels.grad_pair(y, 0.0, 1.0, 2.0)
    assert math.isfinite(g_mu) and math.isfinite(g_tau)
    for entry in kernels.hessian(y, 0.0, 1.0, 2.0):
        assert math.isfinite(entry)
    for entry in kernels.loss_grad_hess(y, 0.0, 1.0, 2.0):
        assert math.isfinite(entry)


def test_huge_tau_and_huge_residuals_together():
    y = np.array([3e200, -4e200])
    assert math.isfinite(kernels.total_loss(y, 0.0, 2e200, 1.0))
    assert all(math.isfinite(v) for v in kernels.loss_grad_hess(y, 0.0, 2e200, 1.0))


def test_tiny_residual_excess_keeps_precision():
    # the naive sqrt(tau^2+r^2)-tau returns 0.0 for r=1e-9, tau=1, where the
    # cancellation-safe form returns ~r^2/(2 tau); a tiny z makes that excess
    # dominate the loss instead of drowning in the penalty z*tau/sqrt(n)
    y = np.array([1e-9])
    z = 1e-12
    expected = 0.5e-18 / z + z
    assert math.isclose(kernels.total_loss(y, 0.0, 1.0, z), expected, rel_tol=1e-12)
    assert math.isclose(kernels.loss_grad_hess(y, 0.0, 1.0, z)[0], expected, rel_tol=1e-12)


def _peak_temporaries(fn, y):
    """Peak memory a kernel call allocates, in units of one n-length array."""
    fn(y, 0.1, 2.0, 10.0)  # any one-time allocation happens outside the trace
    tracemalloc.start()
    try:
        fn(y, 0.1, 2.0, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / y.nbytes


def test_passes_hold_few_temporaries():
    # a pass over 10^6 values must not hold more n-length arrays than it
    # needs: r, h, u and one scratch array for the fused passes
    y = np.random.default_rng(94).standard_t(3, size=1_000_000)
    assert _peak_temporaries(kernels.total_loss, y) < 3.5
    assert _peak_temporaries(kernels.grad_hess, y) < 4.5
    assert _peak_temporaries(kernels.loss_grad_hess, y) < 4.5
