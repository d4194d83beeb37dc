"""One-shot power control on a shared channel.

K transmitters simultaneously pick power levels; each cares about its
energy efficiency, measured in bits successfully delivered per Joule
spent.  This module provides the SINR/utility arithmetic, the selfish
equilibrium profile, the cooperative equal-received-power profile that
Pareto-dominates it, and a grid search for the welfare-maximizing
profile.

All vector quantities are numpy arrays of length K.  ``sinr``,
``utility`` and ``best_response`` broadcast over leading axes, so a
(N, K) matrix of gains and powers evaluates N realizations at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .efficiency import ExponentialEfficiency, beta_star, gamma_tilde
from .errors import CapError, SaturationError


@dataclass(frozen=True)
class GameParams:
    """Static description of the game.

    Parameters
    ----------
    n_players : number of transmitters K >= 1.
    eff : efficiency function shared by all players.
    rates : per-player transmission rate in bit/s (scalar broadcasts).
    sigma2 : receiver noise power in W.
    p_max : per-player power cap in W (scalar broadcasts, may be inf).

    The selfish equilibrium only exists in its interior form when
    (K - 1) * beta_star < 1; operations that need it raise
    ``SaturationError`` otherwise (selection rules and the
    equal-received-power profile remain well defined regardless).
    """

    n_players: int
    eff: ExponentialEfficiency
    rates: np.ndarray = field(default=None)  # type: ignore[assignment]
    sigma2: float = 1.0
    p_max: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        k = int(self.n_players)
        if k < 1:
            raise ValueError(f"n_players must be >= 1, got {self.n_players}")
        object.__setattr__(self, "n_players", k)
        rates = np.broadcast_to(
            np.asarray(1.0 if self.rates is None else self.rates, dtype=float), (k,)
        ).copy()
        p_max = np.broadcast_to(
            np.asarray(np.inf if self.p_max is None else self.p_max, dtype=float), (k,)
        ).copy()
        # written so that NaN fails every check
        if not np.all((rates > 0) & (rates < np.inf)):
            raise ValueError(f"all rates must be positive and finite, got {rates}")
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not np.all(p_max > 0):  # an infinite cap means no cap
            raise ValueError(f"all power caps p_max must be positive, got {p_max}")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "p_max", p_max)

    @classmethod
    def symmetric(cls, n_players, a=None, rate=None, sigma2=1.0, p_max=np.inf):
        """Equal-rate game; give either the efficiency exponent ``a`` or a
        common ``rate`` (then a = 2**rate - 1)."""
        if (a is None) == (rate is None):
            raise ValueError("give exactly one of a or rate")
        if rate is not None:
            eff = ExponentialEfficiency.from_rate(rate)
            rates = rate
        else:
            eff = ExponentialEfficiency(a)
            rates = 1.0
        return cls(n_players=n_players, eff=eff, rates=rates, sigma2=sigma2, p_max=p_max)

    @property
    def beta_star(self) -> float:
        return beta_star(self.eff)

    def nash_scale(self) -> float:
        """sigma2 * beta_star / (1 - (K-1) beta_star), the common received
        power at the selfish equilibrium; raises when (K-1) beta_star >= 1."""
        bs = beta_star(self.eff)
        if (self.n_players - 1) * bs >= 1.0:
            raise SaturationError(
                f"(K-1)*beta_star = {(self.n_players - 1) * bs:.6g} >= 1: the "
                "selfish equilibrium saturates for this player count"
            )
        return self.sigma2 * bs / (1.0 - (self.n_players - 1) * bs)

    def gamma_tilde(self, k: int) -> float:
        return gamma_tilde(self.eff, k)

    def equal_power_coeff(self, k: int) -> float:
        """The common received power of a k-player equal-received-power
        profile, sigma2 * g / (1 - (k-1) g) with g = gamma_tilde(k).  With
        g = a / (1 + (k-1) a) this is sigma2 * a for every k, so it is
        returned as that product."""
        if k < 1:
            raise ValueError(f"player count must be >= 1, got {k}")
        return self.sigma2 * self.eff.a

    def require_equal_rates(self) -> float:
        if np.any(self.rates != self.rates[0]):
            raise ValueError("this operation assumes equal transmission rates")
        return float(self.rates[0])


def _check_realization(params: GameParams, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != params.n_players:
        raise ValueError(
            f"expected {params.n_players} channel gains, got shape {eta.shape}"
        )
    if np.any(eta <= 0):
        raise ValueError("channel gains must be positive")
    return eta


def sinr(params: GameParams, eta, powers, i: int | None = None):
    """Per-player SINR p_i eta_i / (sum_{j != i} p_j eta_j + sigma2).

    ``eta`` and ``powers`` have shape (..., K); returns shape (..., K),
    or (...) for a single player when ``i`` is given.
    """
    eta = _check_realization(params, eta)
    powers = np.asarray(powers, dtype=float)
    received = powers * eta
    total = received.sum(axis=-1, keepdims=True)
    out = received / (total - received + params.sigma2)
    if i is not None:
        out = out[..., i]
    return out if np.ndim(out) else float(out)


def utility(params: GameParams, eta, powers, i: int | None = None):
    """Energy efficiency R_i f(SINR_i) / p_i in bit/J; 0 for a silent player."""
    powers = np.asarray(powers, dtype=float)
    out = _utility_from_sinr(params, powers, sinr(params, eta, powers))
    if i is not None:
        out = out[..., i]
    return out if np.ndim(out) else float(out)


def _utility_from_sinr(params: GameParams, powers: np.ndarray, s) -> np.ndarray:
    """Utilities of ``powers`` whose SINRs ``s`` are already known."""
    gross = params.rates * np.asarray(params.eff.value(s))  # s is at least powers' shape
    return np.divide(gross, powers, out=np.zeros(gross.shape), where=powers > 0)


def welfare(params: GameParams, eta, powers):
    """Sum of all players' utilities."""
    return utility(params, eta, powers).sum(axis=-1)


def best_response(params: GameParams, eta, p_others, i: int):
    """Power maximizing player i's utility against the other entries of
    ``p_others`` (its own entry is ignored): reach SINR beta_star, or the
    cap when that is out of reach.  (..., K) inputs give shape (...).
    """
    eta = _check_realization(params, eta)
    p_others = np.asarray(p_others, dtype=float)
    received = p_others * eta
    interference = received.sum(axis=-1) - received[..., i]
    want = params.beta_star * (interference + params.sigma2) / eta[..., i]
    out = np.minimum(want, params.p_max[i])
    return out if np.ndim(out) else float(out)


def nash_powers(params: GameParams, eta) -> np.ndarray:
    """The unique interior selfish equilibrium profile.

    p_i = (sigma2 / eta_i) * beta_star / (1 - (K-1) beta_star); every
    player realizes SINR beta_star and all received powers p_i eta_i are
    equal.  Raises ``SaturationError`` if any cap binds.
    """
    eta = _check_realization(params, eta)
    if eta.ndim != 1:
        raise ValueError("nash_powers expects a single realization")
    p = params.nash_scale() / eta
    if np.any(p > params.p_max):
        raise SaturationError(
            "equilibrium powers exceed caps for players "
            f"{np.nonzero(p > params.p_max)[0].tolist()}"
        )
    return p


def operating_point_powers(params: GameParams, eta, active=None) -> np.ndarray:
    """Equal-received-power profile for the ``active`` subset (default all).

    Every active player transmits so that received powers are equal and
    each realizes SINR gamma_tilde(k), k = |active|; inactive players are
    silent.  Raises ``CapError`` if a required power exceeds a cap
    (clipping would break the equalization, so the caller must shrink the
    active set instead).
    """
    eta = _check_realization(params, eta)
    if eta.ndim != 1:
        raise ValueError("operating_point_powers expects a single realization")
    if active is None:
        active = np.arange(params.n_players)
    active = np.asarray(active, dtype=int)
    if active.size == 0:
        raise ValueError("active set must be non-empty")
    coeff = params.equal_power_coeff(active.size)
    p = np.zeros(params.n_players)
    p[active] = coeff / eta[active]
    over = np.nonzero(p > params.p_max)[0]
    if over.size:
        raise CapError(
            f"equal-received-power profile needs {p[over].tolist()} W for "
            f"players {over.tolist()}, above their caps"
        )
    return p


def _power_grid(params: GameParams, eta, i: int, grid_size: int) -> np.ndarray:
    """``grid_size`` candidate powers for player i: 0, the equilibrium power
    (when it exists) and the equal-received-power power, each seed kept
    only under the cap and counted once, and a log fill from a tenth of the
    smallest kept seed (of the cap when none is kept) up to the cap (to ten
    times the largest seed without one).  A fill point that falls exactly
    on a seed is kept once, which leaves the grid a point short."""
    seeds = {params.equal_power_coeff(1) / eta[i]}
    try:
        seeds.add(params.nash_scale() / eta[i])
    except SaturationError:
        pass
    seeds = [s for s in seeds if s <= params.p_max[i]]
    hi = params.p_max[i]
    if not np.isfinite(hi):
        hi = 10.0 * max(seeds)
    lo = min(seeds, default=hi) / 10.0
    n_fill = max(grid_size - len(seeds) - 1, 0)
    fill = np.geomspace(lo, hi, n_fill) if n_fill else np.empty(0)
    return np.unique(np.concatenate([[0.0], seeds, fill]))


def social_optimum(params: GameParams, eta, grid_size: int = 12):
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
    grids = [_power_grid(params, eta, i, grid_size) for i in range(k)]

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
