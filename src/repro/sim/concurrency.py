"""Stochastic CPU-concurrency model for microservices.

The analytical engine models each microservice's *instantaneous CPU
concurrency* (cores' worth of runnable threads) as a Gamma random variable

    N_i ~ Gamma(mean = rho_i, var = c_i * rho_i)

where ``rho_i = workload * visits_i * cpu_demand_i`` is the mean CPU demand
in cores and ``c_i >= 1`` is the service's *burstiness index* (variance
inflation relative to a Poisson-like process).  Bursty services (NodeJS
front-ends, fan-out aggregators) have large ``c_i``; smooth Go backends have
small ``c_i``.

This single distribution yields every signal PEMA observes:

* mean utilization ``rho_i / x_i`` — low (15-25%) at the bottleneck for
  bursty services, reproducing Fig. 8(a) of the paper;
* CFS throttling onset: periods where ``N_i > x_i`` are throttled, so the
  throttled fraction is the Gamma survival function at the allocation —
  the sharp knee of Fig. 8(b);
* queueing pressure: the tail expectation ``E[(N_i - x_i)+] / x_i`` drives
  latency inflation (Section 4 of DESIGN.md).

All functions are vectorized over services.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sc

__all__ = [
    "gamma_sf",
    "gamma_cdf",
    "gamma_quantile",
    "tail_expectation",
    "nondegenerate_gamma",
    "gamma_shape",
]

_EPS = 1e-12


def _as_arrays(*values: object) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(v, dtype=np.float64) for v in values)


def gamma_shape(mean: np.ndarray, burstiness: np.ndarray) -> np.ndarray:
    """Gamma shape ``k = mean / c`` (0 where demand is 0); the scale is ``c``."""
    return np.where(mean > _EPS, mean / burstiness, 0.0)


def gamma_cdf(x: np.ndarray, shape: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """P(N <= x) for N ~ Gamma(shape, scale), vectorized, safe at shape=0."""
    x, shape, scale = _as_arrays(x, shape, scale)
    out = np.ones(np.broadcast_shapes(x.shape, shape.shape, scale.shape))
    valid = (shape > _EPS) & (scale > _EPS)
    xs = np.broadcast_to(x, out.shape)
    ss = np.broadcast_to(shape, out.shape)
    cs = np.broadcast_to(scale, out.shape)
    out[valid] = _sc.gammainc(ss[valid], np.maximum(xs[valid], 0.0) / cs[valid])
    # A zero-demand service never exceeds any allocation.
    out[~valid] = 1.0
    return out


def gamma_sf(x: np.ndarray, shape: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """P(N > x), the throttled-period fraction at allocation ``x``."""
    x, shape, scale = _as_arrays(x, shape, scale)
    out = np.zeros(np.broadcast_shapes(x.shape, shape.shape, scale.shape))
    valid = (shape > _EPS) & (scale > _EPS)
    xs = np.broadcast_to(x, out.shape)
    ss = np.broadcast_to(shape, out.shape)
    cs = np.broadcast_to(scale, out.shape)
    out[valid] = _sc.gammaincc(ss[valid], np.maximum(xs[valid], 0.0) / cs[valid])
    return out


def gamma_quantile(
    p: float | np.ndarray, shape: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Inverse CDF; returns 0 where the distribution is degenerate.

    ``p`` may be a scalar or an array of per-element quantile levels.
    """
    shape, scale = _as_arrays(shape, scale)
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError(f"quantile levels must be in (0, 1): {p}")
    out = np.zeros(np.broadcast_shapes(p.shape, shape.shape, scale.shape))
    valid = (shape > _EPS) & (scale > _EPS)
    valid = np.broadcast_to(valid, out.shape)
    ps = np.broadcast_to(p, out.shape)
    ss = np.broadcast_to(shape, out.shape)
    cs = np.broadcast_to(scale, out.shape)
    out[valid] = _sc.gammaincinv(ss[valid], ps[valid]) * cs[valid]
    return out


def tail_expectation(
    x: np.ndarray,
    mean: np.ndarray,
    shape: np.ndarray,
    scale: np.ndarray,
    sf: np.ndarray | None = None,
) -> np.ndarray:
    """E[(N - x)+] — expected excess concurrency above the allocation.

    Uses the Gamma identity ``E[N * 1{N > x}] = mean * SF(x; shape+1, scale)``
    so the whole computation stays in regularized incomplete gammas.

    ``sf`` optionally reuses an already-computed ``gamma_sf(x, shape,
    scale)`` — the second incomplete gamma below is exactly that value, so
    callers that need both (every latency evaluation does) skip one ufunc
    pass with bit-identical results.
    """
    x, mean, shape, scale = _as_arrays(x, mean, shape, scale)
    out = np.zeros(np.broadcast_shapes(x.shape, mean.shape, shape.shape, scale.shape))
    valid = (shape > _EPS) & (scale > _EPS) & (mean > _EPS)
    xs = np.broadcast_to(x, out.shape)
    ms = np.broadcast_to(mean, out.shape)
    ss = np.broadcast_to(shape, out.shape)
    cs = np.broadcast_to(scale, out.shape)
    xv = np.maximum(xs[valid], 0.0)
    upper = ms[valid] * _sc.gammaincc(ss[valid] + 1.0, xv / cs[valid])
    lower = (
        _sc.gammaincc(ss[valid], xv / cs[valid])
        if sf is None
        else np.broadcast_to(np.asarray(sf, dtype=np.float64), out.shape)[valid]
    )
    out[valid] = np.maximum(upper - xv * lower, 0.0)
    return out


def nondegenerate_gamma(
    x: np.ndarray,
    mean: np.ndarray,
    shape: np.ndarray,
    scale: np.ndarray,
    quantile: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Mask-free ``(SF(x), E[(N - x)+], quantile)`` for non-degenerate services.

    Valid only where every element has ``shape``, ``scale`` and ``mean``
    above the degeneracy threshold: there the masks of :func:`gamma_sf`,
    :func:`tail_expectation` and :func:`gamma_quantile` are all-true, and
    masked assignment into zeros of an all-true mask is the same values,
    so these are bitwise what the wrappers return — two incomplete-gamma
    passes, with the SF reused by the tail expectation.  The quantile
    (``None`` unless a level is given) costs one inverse pass.
    """
    xs = np.maximum(x, 0.0)
    z = xs / scale
    sf = _sc.gammaincc(shape, z)
    excess = np.maximum(mean * _sc.gammaincc(shape + 1.0, z) - xs * sf, 0.0)
    q = None if quantile is None else _sc.gammaincinv(shape, quantile) * scale
    return sf, excess, q
