"""Closed forms and checks computed apart from the ``powergame`` code paths.

Everything here is written from the model's definitions, not from the
package: the efficiency f(x) = exp(-a/x), its characteristic SINRs in
closed form, the SINR/utility arithmetic, truncated-exponential moments,
Markov-chain statistics by power iteration and a convex point-in-polygon
test.  The workload checks compare the program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

# how many standard errors a Monte Carlo mean may sit from its closed form
SE_TOLERANCE = 6.0


def beta_star(a: float) -> float:
    """Root of x f'(x) = f(x) for f(x) = exp(-a/x): f'(x) = a/x^2 f(x)."""
    return a


def gamma_tilde(a: float, k: int) -> float:
    """Root of x [1 - (k-1) x] f'(x) = f(x): a [1 - (k-1) x] = x."""
    return a / (1.0 + (k - 1) * a)


def nash_received(a: float, k: int, sigma2: float) -> float:
    """Common received power p_i eta_i of the k-player selfish equilibrium."""
    return sigma2 * a / (1.0 - (k - 1) * a)


def equal_received(a: float, k: int, sigma2: float) -> float:
    """Common received power of a k-player equal-received-power profile."""
    g = gamma_tilde(a, k)
    return sigma2 * g / (1.0 - (k - 1) * g)


def sinr(eta, powers, sigma2: float) -> np.ndarray:
    received = np.asarray(powers, dtype=float) * np.asarray(eta, dtype=float)
    return received / (received.sum(axis=-1, keepdims=True) - received + sigma2)


def utility(eta, powers, a: float, rate: float, sigma2: float) -> np.ndarray:
    """rate * exp(-a / SINR) / p, and 0 for a silent player."""
    powers = np.asarray(powers, dtype=float)
    s = sinr(eta, powers, sigma2)
    on = powers > 0
    safe_s = np.where(on, s, 1.0)
    safe_p = np.where(on, powers, 1.0)
    return np.where(on, rate * np.exp(-a / safe_s) / safe_p, 0.0)


def nash_mean_utility(a: float, k: int, rate: float, sigma2: float, mean_gain: float) -> float:
    """E[u_i] at the selfish equilibrium: R e^-1 (1-(K-1)a) E[eta] / (sigma2 a)."""
    return rate * math.exp(-1.0) * (1.0 - (k - 1) * a) * mean_gain / (sigma2 * a)


def operating_point_mean_utility(a: float, k: int, rate: float, sigma2: float,
                                 mean_gain: float) -> float:
    """E[u_i] at the K-player equal-received-power profile."""
    g = gamma_tilde(a, k)
    return rate * math.exp(-a / g) * (1.0 - (k - 1) * g) * mean_gain / (sigma2 * g)


def trunc_exp_moments(lo: float, hi: float, rate: float) -> tuple[float, float]:
    """Mean and variance of an Exp(rate) variable conditioned on [lo, hi]."""
    w = hi - lo
    q = math.exp(-rate * w)
    mass = -math.expm1(-rate * w)  # 1 - q without cancellation on narrow cells
    m1 = 1.0 / rate - w * q / mass
    m2 = (2.0 / rate**2 - q * (w * w + 2.0 * w / rate + 2.0 / rate**2)) / mass
    return lo + m1, m2 - m1 * m1


def rayleigh_bin_gains(scale: float, eta_min: float, eta_max: float, bins: int) -> np.ndarray:
    """Conditional means of the ``bins`` equal-probability cells of eta = x^2,
    x Rayleigh(scale), truncated to [eta_min, eta_max]."""
    rate = 1.0 / (2.0 * scale**2)
    s_lo, s_hi = math.exp(-rate * eta_min), math.exp(-rate * eta_max)
    edges = [eta_min] + [
        -math.log(s_lo - j * (s_lo - s_hi) / bins) / rate for j in range(1, bins)
    ] + [eta_max]
    return np.array([trunc_exp_moments(edges[j], edges[j + 1], rate)[0]
                     for j in range(bins)])


def stationary_by_power_iteration(matrix: np.ndarray, tol: float = 1e-15,
                                  max_iter: int = 100_000) -> np.ndarray:
    n = matrix.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pi @ matrix
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt
        pi = nxt
    raise RuntimeError("power iteration did not converge")


def time_average_variance(matrix: np.ndarray, pi: np.ndarray, f: np.ndarray,
                          horizon: int) -> float:
    """Exact variance of (1/H) sum_t f(X_t) for a chain started in ``pi``:
    (1/H) [c_0 + 2 sum_{k>=1} (1 - k/H) c_k] with autocovariances c_k,
    summed until they vanish."""
    fbar = f - pi @ f
    c0 = float(pi @ (fbar * fbar))
    total = c0
    g = fbar
    for k in range(1, horizon):
        g = matrix @ g
        ck = float(pi @ (fbar * g))
        total += 2.0 * (1.0 - k / horizon) * ck
        if abs(ck) <= 1e-17 * c0:
            break
    return total / horizon


def support(points, directions) -> np.ndarray:
    """max_p <d, p> over the rows of ``points`` for each direction row."""
    return (np.asarray(directions, dtype=float) @ np.asarray(points, dtype=float).T).max(axis=1)


def in_convex_polygon(point, vertices, tol: float) -> bool:
    """Whether ``point`` lies in the convex polygon (either orientation),
    allowing ``tol`` of distance outside each edge."""
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(point, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    area2 = float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    sign = 1.0 if area2 >= 0 else -1.0
    cross = edge[:, 0] * (p[1] - v[:, 1]) - edge[:, 1] * (p[0] - v[:, 0])
    dist = sign * cross / np.maximum(np.hypot(edge[:, 0], edge[:, 1]), 1e-300)
    return bool(np.all(dist >= -tol))


def close(x, y, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bool(np.all(np.abs(x - y) <= abs_ + rel * np.maximum(np.abs(x), np.abs(y))))
