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

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .efficiency import ExponentialEfficiency, beta_star, gamma_tilde
from .errors import CapError, SaturationError

# rows per lockstep coordinate-ascent block in ``social_optimum``: bounds its
# candidate arrays, about rows * (K + 2) * grid_size * K floats, at any N
_ASCENT_BLOCK_ROWS = 128


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

    @property
    def nash_received(self) -> float:
        """sigma2 * beta_star / (1 - (K-1) beta_star), the common received
        power at the selfish equilibrium; NaN when (K-1) beta_star >= 1,
        where no interior equilibrium exists (NaN fails every cap test)."""
        bs = beta_star(self.eff)
        if (self.n_players - 1) * bs >= 1.0:
            return np.nan
        return self.sigma2 * bs / (1.0 - (self.n_players - 1) * bs)

    def nash_scale(self) -> float:
        """``nash_received``, raising ``SaturationError`` where it is NaN."""
        if np.isnan(self.nash_received):
            raise SaturationError(
                f"(K-1)*beta_star = {(self.n_players - 1) * self.beta_star:.6g} >= 1: "
                "the selfish equilibrium saturates for this player count"
            )
        return self.nash_received

    def gamma_tilde(self, k: int) -> float:
        return gamma_tilde(self.eff, k)

    @property
    def equal_received(self) -> float:
        """The common received power of a k-player equal-received-power
        profile, sigma2 * g / (1 - (k-1) g) with g = gamma_tilde(k): with
        g = a / (1 + (k-1) a) it is sigma2 * a for every k."""
        return self.sigma2 * self.eff.a

    @cached_property
    def group_gross_rates(self) -> np.ndarray:
        """(K, K) gross rates of equal-received-power groups, read-only: row
        m - 1 holds every player's R_i f(gamma_tilde(m)), the goodput of each
        member of an m-player group (its utility times its power).  Row 0 is
        also the selfish equilibrium's, since gamma_tilde(1) = beta_star.
        Computed once per game: block-wise play reads it for every block."""
        gamma = np.array([self.gamma_tilde(m) for m in range(1, self.n_players + 1)])
        gross = self.eff.value(gamma)[:, None] * self.rates
        gross.flags.writeable = False
        return gross

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
    return check_gains(eta)


def check_gains(eta) -> np.ndarray:
    """``eta`` as a float array; refused unless every gain is positive and
    finite."""
    eta = np.asarray(eta, dtype=float)
    if not np.all((eta > 0) & (eta < np.inf)):  # written so that NaN fails it
        raise ValueError("channel gains must be positive and finite")
    return eta


@cache
def _merge_network(k: int) -> tuple:
    """Batcher's odd-even merge sort on ``k`` wires (K. E. Batcher, "Sorting
    networks and their applications", 1968): its comparators (a, b), a < b,
    in the order they apply.  The network of the next power of two, less
    every comparator that reaches a wire at or past ``k``."""
    pairs = []
    p = 1
    while p < k:
        step = p
        while step >= 1:
            for j in range(step % p, k - step, 2 * step):
                for i in range(j, j + min(step, k - j - step)):
                    if i // (2 * p) == (i + step) // (2 * p):
                        pairs.append((i, i + step))
            step //= 2
        p *= 2
    return tuple(pairs)


def _ranked_gains(eta: np.ndarray):
    """The (N, K) gains ``eta`` ranked within each row by the network:
    ``(buf, rank_row)``, where row ``rank_row[j]`` of the (K + 2, N) ``buf``
    holds each row's (j+1)-th largest gain for j < K, and row
    ``rank_row[K]`` is 0.0, below every gain.

    Each comparator is one ``np.maximum`` into the spare row and one
    ``np.minimum`` in place, which are exact, so every ranked gain is one of
    the row's own floats; the spare and the maximum's old row then swap
    roles, so nothing is allocated or copied per comparator.  The network
    grows as K log^2 K comparators (19 at K = 8, 63 at K = 16): the two are
    about even at K = 12, and at K = 16 ``np.sort`` along the rows is
    faster."""
    n, k = eta.shape
    buf = np.empty((k + 2, n))
    buf[:k] = eta.T
    buf[k] = 0.0
    rank_row, spare = list(range(k + 1)), k + 1
    for a, b in _merge_network(k):
        hi, lo = buf[rank_row[a]], buf[rank_row[b]]
        np.maximum(hi, lo, out=buf[spare])
        np.minimum(hi, lo, out=lo)
        rank_row[a], spare = spare, rank_row[a]
    return buf, np.array(rank_row)


def _top_mask(eta: np.ndarray, m, cut: np.ndarray, after: np.ndarray) -> np.ndarray:
    """(N, K) mask of each row's ``m`` best players in the stable gain
    ranking (larger gain first, lower index first among equal gains), given
    each row's m-th and (m+1)-th largest gains ``cut`` and ``after`` (0.0,
    below every gain, for m = K); ``m`` in 1..K is one count for every row
    or one per row.

    Every gain at or above the cutoff is in.  Only where ``after`` equals
    it, a group of tied gains straddling the m-th place, are there more
    than m of them: there every larger gain is in, and the gains equal to
    the cutoff are taken in index order until m players are.
    """
    top = eta >= cut[:, None]
    rows = np.flatnonzero(after == cut)
    if rows.size:
        sub, at = eta[rows], cut[rows, None]
        above, tie = sub > at, sub == at
        left = (m if np.ndim(m) == 0 else m[rows]) - np.count_nonzero(above, axis=1)
        # a tied gain is in when its place among the ties, in index order,
        # is within the places left
        top[rows] = above | (tie & (np.cumsum(tie, axis=1) <= left[:, None]))
    return top


def check_grid_size(grid_size) -> None:
    """Refuse a welfare-grid size that is not an integer >= 2."""
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 2:
        raise ValueError(f"grid_size must be an integer >= 2, got {grid_size!r}")


def _check_powers(powers) -> np.ndarray:
    """``powers`` as a float array; refused unless every power is
    nonnegative and finite (-0.0 is a silent player)."""
    powers = np.asarray(powers, dtype=float)
    # two reductions without a temporary; a NaN propagates and fails both
    if not (powers.min(initial=0.0) >= 0 and powers.max(initial=0.0) < np.inf):
        raise ValueError("powers must be nonnegative and finite")
    return powers


def sinr(params: GameParams, eta, powers, i: int | None = None):
    """Per-player SINR p_i eta_i / (sum_{j != i} p_j eta_j + sigma2).

    ``eta`` and ``powers`` have shape (..., K); returns shape (..., K),
    or (...) for a single player when ``i`` is given.
    """
    out = _checked_sinr(params, eta, powers)[1]
    if i is not None:
        out = out[..., i]
    return out if np.ndim(out) else float(out)


def _checked_sinr(params: GameParams, eta, powers):
    """``powers`` as a float array and its SINR on the gains ``eta``, both
    checked; refused where a received power p eta, a row's total of them
    (two finite powers can overflow it, leaving every SINR of the row 0) or
    a SINR (a received power over a tiny sigma2 can) is not finite."""
    eta = _check_realization(params, eta)
    powers = _check_powers(powers)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        received = powers * eta
        total = received.sum(axis=-1, keepdims=True)
        s = _sinr_of_received(params, received, total)
    if not (total.max(initial=0.0) < np.inf and s.max(initial=0.0) < np.inf):
        raise ValueError("received powers p * eta and their sum, and each SINR, must be finite")
    return powers, s


def _sinr(params: GameParams, eta: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``sinr`` of float arrays, unchecked: the engine's gains come from a
    validated model and its powers from its own plans."""
    received = powers * eta
    return _sinr_of_received(params, received, received.sum(axis=-1, keepdims=True))


def _sinr_of_received(params: GameParams, received, total) -> np.ndarray:
    """SINR from the received powers and each row's (keepdims) total."""
    return received / (total - received + params.sigma2)


def utility(params: GameParams, eta, powers, i: int | None = None):
    """Energy efficiency R_i f(SINR_i) / p_i in bit/J; 0 for a silent player."""
    out = _utility_from_sinr(params, *_checked_sinr(params, eta, powers))
    if i is not None:
        out = out[..., i]
    return out if np.ndim(out) else float(out)


def _utility_from_sinr(params: GameParams, powers: np.ndarray, s) -> np.ndarray:
    """Utilities of ``powers`` whose SINRs ``s`` are already known; 0 where
    a power is not positive (0, -0.0 or NaN)."""
    gross = params.rates * np.asarray(params.eff.value(s))  # s is at least powers' shape
    with np.errstate(divide="ignore", invalid="ignore"):  # the dropped entries only
        return np.where(powers > 0, gross / powers, 0.0)


def welfare(params: GameParams, eta, powers):
    """Sum of all players' utilities."""
    return _utility_from_sinr(params, *_checked_sinr(params, eta, powers)).sum(axis=-1)


def _welfare(params: GameParams, eta: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``welfare`` of float arrays, unchecked: the welfare search scores
    candidates from its own grids, on gains the search has checked."""
    return _utility_from_sinr(params, powers, _sinr(params, eta, powers)).sum(axis=-1)


def best_response(params: GameParams, eta, p_others, i: int):
    """Power maximizing player i's utility against the other entries of
    ``p_others`` (its own entry is ignored): reach SINR beta_star, or the
    cap when that is out of reach.  (..., K) inputs give shape (...).
    """
    eta = _check_realization(params, eta)
    p_others = np.asarray(p_others, dtype=float)
    received = p_others * eta
    received[..., i] = 0.0
    interference = received.sum(axis=-1)
    want = params.beta_star * (interference + params.sigma2) / eta[..., i]
    out = np.minimum(want, params.p_max[i])
    return out if np.ndim(out) else float(out)


def nash_powers(params: GameParams, eta) -> np.ndarray:
    """The unique interior selfish equilibrium profile.

    p_i = (sigma2 / eta_i) * beta_star / (1 - (K-1) beta_star); every
    player realizes SINR beta_star and all received powers p_i eta_i are
    equal.  ``eta`` is one realization (K,) or N of them (N, K), giving
    profiles of the same shape.  Raises ``SaturationError`` if any cap
    binds, naming the players of the first row where one does.
    """
    eta = _check_realization(params, eta)
    if eta.ndim not in (1, 2):
        raise ValueError(f"nash_powers expects (K,) or (N, K) gains, got shape {eta.shape}")
    p = params.nash_scale() / eta
    over = np.atleast_2d(p > params.p_max)
    if over.any():
        raise SaturationError(
            "equilibrium powers exceed caps for players "
            f"{np.nonzero(over[over.any(axis=1)][0])[0].tolist()}"
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
    p = np.zeros(params.n_players)
    p[active] = params.equal_received / eta[active]
    over = np.nonzero(p > params.p_max)[0]
    if over.size:
        raise CapError(
            f"equal-received-power profile needs {p[over].tolist()} W for "
            f"players {over.tolist()}, above their caps"
        )
    return p


def _power_grids(params: GameParams, eta: np.ndarray, grid_size: int):
    """Every player's candidate powers at each row of the (N, K) gains
    ``eta``: (N, K, size) grids, each padded to the longest by repeating
    its last point, and their (N, K) sizes.

    A grid holds ``grid_size`` sorted points: 0, the equilibrium power
    (when it exists) and the equal-received-power power, each seed kept
    only under the cap and counted once, and a log fill from a tenth of
    the smallest kept seed (of the cap when none is kept) up to the cap
    (to ten times the largest seed without one).  A fill point that falls
    exactly on a seed is kept once, which leaves the grid a point short.
    The fill is one ``np.geomspace`` call per distinct fill length.
    """
    cap = params.p_max
    equal = params.equal_received / eta
    nash = params.nash_received / eta  # NaN without an interior equilibrium: never kept
    keep_equal = equal <= cap
    keep_nash = (nash <= cap) & (nash != equal)
    # a dropped seed is 0 here, below every kept one, and hi above them all
    seed_equal = np.where(keep_equal, equal, 0.0)
    seed_nash = np.where(keep_nash, nash, 0.0)
    hi = np.where(np.isfinite(cap), cap, 10.0 * np.maximum(seed_equal, seed_nash))
    lo = np.minimum(np.where(keep_equal, equal, hi), np.where(keep_nash, nash, hi)) / 10.0
    n_fill = np.maximum(grid_size - 1 - keep_equal - keep_nash, 0)
    # 0, both seeds and the fill (0 after it), sorted; each repeated value
    # then becomes inf, and a second sort moves those last
    points = np.zeros(eta.shape + (grid_size + 2,))
    points[..., 1] = seed_equal
    points[..., 2] = seed_nash
    for m in np.unique(n_fill[n_fill > 0]):
        at = n_fill == m
        points[at, 3:3 + m] = np.geomspace(lo[at], hi[at], m, axis=-1)
    points.sort(axis=-1)
    repeat = points[..., 1:] == points[..., :-1]
    points[..., 1:][repeat] = np.inf
    points.sort(axis=-1)
    sizes = points.shape[-1] - repeat.sum(axis=-1)
    size = int(sizes.max(initial=1))
    last = np.minimum(np.arange(size), sizes[..., None] - 1)
    n, k = eta.shape
    return points[np.arange(n)[:, None, None], np.arange(k)[:, None], last], sizes


def _grid_profiles(grids) -> np.ndarray:
    """(..., M, K) profiles of the K players' grids (..., size_i), which
    share their leading axes, the last player varying fastest."""
    lead = grids[0].shape[:-1]
    sizes = [g.shape[-1] for g in grids]
    profiles = np.empty(lead + tuple(sizes) + (len(grids),))
    for i, g in enumerate(grids):
        axes = [1] * len(sizes)
        axes[i] = sizes[i]
        profiles[..., i] = g.reshape(lead + tuple(axes))
    return profiles.reshape(lead + (-1, len(grids)))


def social_optimum(params: GameParams, eta, grid_size: int = 12):
    """Welfare-maximizing profile on a per-player power grid.

    The grid always contains 0, the selfish equilibrium power and the
    equal-received-power power, so the result weakly dominates those
    profiles by construction.  Exhaustive for K <= 4; coordinate ascent
    from several starting profiles otherwise, skipping those over a cap
    (from all players silent when every one is), and keeping the first
    start that reaches the largest welfare.

    ``eta`` is one realization (K,) or N of them (N, K), each solved on its
    own.  Returns (powers, welfare): a (K,) profile and a float, or (N, K)
    profiles and (N,) welfare.
    """
    eta = _check_realization(params, eta)
    if eta.ndim not in (1, 2):
        raise ValueError(f"social_optimum expects (K,) or (N, K) gains, got shape {eta.shape}")
    check_grid_size(grid_size)
    rows = np.atleast_2d(eta)
    powers = np.empty(rows.shape)
    totals = np.empty(rows.shape[0])
    if params.n_players <= 4:
        grids, sizes = _power_grids(params, rows, grid_size)
        for r, row in enumerate(rows):
            profiles = _grid_profiles([g[:n] for g, n in zip(grids[r], sizes[r])])
            row_totals = _welfare(params, row, profiles)
            best = int(np.argmax(row_totals))
            powers[r], totals[r] = profiles[best], row_totals[best]
    else:
        for lo in range(0, rows.shape[0], _ASCENT_BLOCK_ROWS):
            block = slice(lo, lo + _ASCENT_BLOCK_ROWS)
            powers[block], totals[block] = _lockstep_ascent(params, rows[block], grid_size)
    if eta.ndim == 1:
        return powers[0], float(totals[0])
    return powers, totals


def _ascent_starts(params: GameParams, eta: np.ndarray):
    """(N, K+2, K) coordinate-ascent starts per row: the all-player
    equal-received-power profile, the selfish equilibrium, then the
    equal-received-power profiles of the m best players (stable gain
    order), m = 1..K; and the (N, K+2) mask of those under every cap.  A
    row with none under the caps starts once, from all players silent."""
    k = eta.shape[1]
    equal = params.equal_received / eta
    nash = params.nash_received / eta  # NaN without an interior equilibrium: never valid
    buf, rank_row = _ranked_gains(eta)
    in_best_m = np.stack([_top_mask(eta, m, buf[rank_row[m - 1]], buf[rank_row[m]])
                          for m in range(1, k + 1)], axis=1)
    best_m = np.where(in_best_m, equal[:, None, :], 0.0)
    starts = np.concatenate([equal[:, None], nash[:, None], best_m], axis=1)
    valid = np.all(starts <= params.p_max, axis=2)
    stuck = ~valid.any(axis=1)
    starts[stuck, 0] = 0.0
    valid[stuck, 0] = True
    return starts, valid


def _lockstep_ascent(params: GameParams, eta: np.ndarray, grid_size: int):
    """Coordinate ascent of every (row, valid start) pair of the (N, K)
    gains ``eta`` at once.

    Each pair snaps its start to the nearest grid points, then sweeps the
    players in order, moving to a player's best grid point when that
    raises welfare by more than 1e-15; it stops after a sweep that moves
    nobody.  Each sweep keeps only the first live pair of each distinct
    (row, profile, welfare) state, and each coordinate scores the live
    pairs' candidates in one ``_welfare`` call.  Grids are padded to one
    length by repeating their last point, which never wins an argmin or
    argmax since it follows the original.  Returns each row's best
    (powers, welfare), first start on ties.
    """
    n, k = eta.shape
    padded, _ = _power_grids(params, eta, grid_size)  # (N, K, size)
    size = padded.shape[2]
    starts, valid = _ascent_starts(params, eta)
    row = np.nonzero(valid)[0]  # pairs in row-major (row, start) order
    pair_grids = padded[row]  # (M, K, size)
    pair_eta = eta[row]
    nearest = np.abs(pair_grids - starts[valid][:, :, None]).argmin(axis=2)
    p = pair_grids[np.arange(row.size)[:, None], np.arange(k), nearest]
    w = _welfare(params, pair_eta, p)

    live = np.arange(row.size)
    while live.size:
        live = _first_of_each_state(row, p, w, live)
        moved = np.zeros(live.size, dtype=bool)
        live_eta = pair_eta[live, None, :]
        for i in range(k):
            cand = np.repeat(p[live, None, :], size, axis=1)  # (L, size, K)
            cand[:, :, i] = pair_grids[live, i]
            totals = _welfare(params, live_eta, cand)
            j = np.argmax(totals, axis=1)
            best = totals[np.arange(live.size), j]
            up = best > w[live] + 1e-15
            w[live[up]] = best[up]
            p[live[up], i] = cand[up, j[up], i]
            moved |= up
        live = live[moved]

    final = np.full(valid.shape, -np.inf)
    final[valid] = w
    pair_of = np.zeros(valid.shape, dtype=int)
    pair_of[valid] = np.arange(row.size)
    chosen = pair_of[np.arange(n), np.argmax(final, axis=1)]
    return p[chosen], w[chosen]


def _first_of_each_state(row, p, w, live):
    """``live`` without each pair whose (row, profile, welfare) an earlier
    live pair holds too.  From one state two pairs climb alike, so the
    earlier ends where the later would have.  The later keeps its state,
    whose welfare is never above the earlier's final one, so the final
    choice (the first start of the best welfare) is unchanged."""
    key = np.column_stack([w[live], p[live], row[live]])
    order = np.lexsort(key.T)  # stable: a repeated state keeps pair order
    ranked = key[order]
    repeat = np.zeros(live.size, dtype=bool)
    repeat[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
    return live[~repeat]
