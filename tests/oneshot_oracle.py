"""Reference implementations of ``oneshot.social_optimum`` and its grids.

``social_optimum_oracle`` is the one-realization welfare search the package
used before every (row, start) pair climbed in lockstep, and
``power_grid_oracle`` the one-(row, player) grid it searches, which the
package used before it built every row's grids at once.  Tests compare
``powergame.oneshot.social_optimum`` and ``oneshot._power_grids`` against
them by bytes, and the per-stage engine reference plans the social optimum
with them.

``efficiency_value_oracle`` and ``utility_from_sinr_oracle`` are the
masked-divide bodies of ``ExponentialEfficiency.value`` and
``oneshot._utility_from_sinr`` that the package used before both became a
plain divide under ``np.where``; tests compare the kernels against them by
bytes.
"""

from __future__ import annotations

import itertools

import numpy as np

from powergame.errors import CapError, SaturationError
from powergame.oneshot import (
    GameParams,
    _check_realization,
    nash_powers,
    operating_point_powers,
    welfare,
)


def power_grid_oracle(params: GameParams, eta, i: int, grid_size: int) -> np.ndarray:
    """``grid_size`` candidate powers for player i: 0, the equilibrium power
    (when it exists) and the equal-received-power power, each seed kept
    only under the cap and counted once, and a log fill from a tenth of the
    smallest kept seed (of the cap when none is kept) up to the cap (to ten
    times the largest seed without one).  A fill point that falls exactly
    on a seed is kept once, which leaves the grid a point short."""
    seeds = {params.equal_received / eta[i], params.nash_received / eta[i]}
    seeds = [s for s in seeds if s <= params.p_max[i]]  # drops a NaN equilibrium
    hi = params.p_max[i]
    if not np.isfinite(hi):
        hi = 10.0 * max(seeds)
    lo = min(seeds, default=hi) / 10.0
    n_fill = max(grid_size - len(seeds) - 1, 0)
    fill = np.geomspace(lo, hi, n_fill) if n_fill else np.empty(0)
    return np.unique(np.concatenate([[0.0], seeds, fill]))


def social_optimum_oracle(params, eta, grid_size: int = 12):
    """Welfare-maximizing profile on a per-player power grid.

    The grid always contains 0, the selfish equilibrium power and the
    equal-received-power power, so the result weakly dominates those
    profiles by construction.  Exhaustive for K <= 4; coordinate ascent
    from several starting profiles otherwise, skipping those over a cap
    (from all players silent when every one is).

    Returns (powers, welfare).
    """
    eta = _check_realization(params, eta)
    if eta.ndim != 1:
        raise ValueError("social_optimum expects a single realization")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    k = params.n_players
    grids = [power_grid_oracle(params, eta, i, grid_size) for i in range(k)]

    if k <= 4:
        profiles = np.array(list(itertools.product(*grids)))
        totals = welfare(params, eta, profiles)
        best = int(np.argmax(totals))
        return profiles[best].copy(), float(totals[best])

    def start_or_none(profile, *args):
        try:
            return profile(params, eta, *args)
        except (SaturationError, CapError):  # over a cap: skip this start
            return None

    order = np.argsort(-eta, kind="stable")
    starts = [start_or_none(operating_point_powers), start_or_none(nash_powers)]
    starts += [start_or_none(operating_point_powers, order[:m]) for m in range(1, k + 1)]
    starts = [s for s in starts if s is not None] or [np.zeros(k)]
    best_p, best_w = None, -np.inf
    for start in starts:
        p = np.array([grids[i][np.argmin(np.abs(grids[i] - start[i]))] for i in range(k)])
        w = float(welfare(params, eta, p))
        improved = True
        while improved:
            improved = False
            for i in range(k):
                cand = np.tile(p, (grids[i].size, 1))
                cand[:, i] = grids[i]
                totals = welfare(params, eta, cand)
                j = int(np.argmax(totals))
                if totals[j] > w + 1e-15:
                    w = float(totals[j])
                    p = cand[j].copy()
                    improved = True
        if w > best_w:
            best_p, best_w = p, w
    return best_p, best_w


def efficiency_value_oracle(eff, x):
    """f(x); accepts scalars or arrays, x >= 0 (x = 0 and NaN map to 0).
    Warns where -a/x overflows (5e-324 at a = 0.1)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("SINR must be nonnegative")
    # one pass each: -a/x where x > 0, -inf (so exp gives 0) elsewhere
    out = np.full(x.shape, -np.inf)
    np.divide(-eff.a, x, out=out, where=x > 0)
    np.exp(out, out=out)
    return out if out.ndim else float(out)


def utility_from_sinr_oracle(params: GameParams, powers: np.ndarray, s) -> np.ndarray:
    """Utilities of ``powers`` whose SINRs ``s`` are already known."""
    gross = params.rates * np.asarray(efficiency_value_oracle(params.eff, s))
    return np.divide(gross, powers, out=np.zeros(gross.shape), where=powers > 0)
