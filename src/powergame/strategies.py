"""Stage decision rules for the multi-stage game.

Six rules are implemented.  The selfish equilibrium and the all-player
equal-received-power profile need no coordination.  Pure time sharing,
threshold selection and best-user selection rely on a receiver
recommendation: a recommended player transmits at the equal-received-power
level sized for the number of recommended players, everyone else stays
silent.  The social optimum is a benchmark needing global gain knowledge.

Cooperative rules are enforced by a grim trigger: any detected deviation
switches every player to the selfish equilibrium for the rest of the run.
Detection uses each transmitting player's own realized SINR, which under
compliance is exactly predictable from the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import CapError, InformationError, SaturationError
from .oneshot import (
    GameParams,
    _check_realization,
    _ranked_gains,
    _top_mask,
    check_gains,
    social_optimum,
)

_VALID_KINDS = (
    "nash",
    "operating_point",
    "time_sharing",
    "threshold",
    "best_users",
    "social_optimum",
)

# kinds whose compliance is monitored through the per-stage SINR alarm
MONITORED_KINDS = frozenset(
    {"operating_point", "threshold", "best_users", "social_optimum"}
)
# the relative SINR mismatch an alarm tolerates, scaled by the expected
# SINR but by no less than the floor; compliant play realizes its predicted
# SINR exactly, so this is a numerical guard, not a model parameter
_DETECTION_TOL = 1e-6
_DETECTION_FLOOR = 1e-12


@dataclass(frozen=True)
class StrategyKind:
    """A named stage-decision rule plus its parameters."""

    name: str
    alpha: float | None = None  # threshold rule only

    def __post_init__(self):
        if self.name not in _VALID_KINDS:
            raise ValueError(f"unknown strategy kind {self.name!r}; valid: {_VALID_KINDS}")
        if self.name == "threshold":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError("threshold rule needs alpha in [0, 1]")
        elif self.alpha is not None:
            raise ValueError("alpha is only meaningful for the threshold rule")

    @property
    def label(self) -> str:
        if self.name == "threshold":
            return f"threshold({self.alpha:g})"
        return self.name


NASH = StrategyKind("nash")
OPERATING_POINT = StrategyKind("operating_point")
TIME_SHARING = StrategyKind("time_sharing")
BEST_USERS = StrategyKind("best_users")
SOCIAL_OPTIMUM = StrategyKind("social_optimum")


def threshold(alpha: float) -> StrategyKind:
    return StrategyKind("threshold", alpha=float(alpha))


@dataclass
class PunishmentState:
    """Grim-trigger flag: once set it never clears."""

    triggered: bool = False
    trigger_stage: int | None = None

    def trigger(self, stage: int) -> None:
        if not self.triggered:
            self.triggered = True
            self.trigger_stage = stage


@dataclass(frozen=True)
class SignalProfile:
    """What one player observes before choosing a stage power."""

    own_gain: float
    recommended: bool | None = None
    k_active: int | None = None
    global_state: np.ndarray | None = None


def select_best_users(params: GameParams, eta) -> np.ndarray:
    """Welfare-maximizing subset under equal-received-power play.

    At equal rates the optimum over all 2^K - 1 subsets is always a
    prefix of the gain ranking, so only the K prefix sets are scored
    (ties in gain broken by player index).  Returns ascending player
    indices; ``eta`` is one realization, a (K,) vector of positive, finite
    gains.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1:
        raise ValueError(f"select_best_users expects a single realization, got shape {eta.shape}")
    eta = _check_realization(params, eta)
    return np.nonzero(_best_users_mask(params, eta[None])[0][0])[0]


def select_by_threshold(alpha: float, eta) -> np.ndarray:
    """Players whose gain is within a factor alpha of the stage's best gain.

    Never empty: the best player always qualifies.  Returns ascending
    player indices; ``eta`` is one realization, a 1-D vector of positive,
    finite gains.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1:
        raise ValueError(f"select_by_threshold expects a single realization, got shape {eta.shape}")
    eta = check_gains(eta)
    if eta.size == 0:
        raise ValueError("select_by_threshold needs at least one gain")
    return np.nonzero(_threshold_mask(alpha, eta[None])[0])[0]


# The selection kernels sweep the K player columns one at a time: with K
# small, a per-row index sort, gather or reduction along the player axis
# costs several times an elementwise pass over the whole (N, K) array.

def _best_users_mask(params: GameParams, eta: np.ndarray):
    """(N, K) best-user recommendations and their (N,) counts: per row, the
    prefix of the stable gain ranking whose equal-received-power welfare is
    largest, the shortest one on ties."""
    params.require_equal_rates()
    buf, rank_row = _ranked_gains(eta)  # tied gains are equal floats
    # equal_received is the common received power of every group size
    coeff = params.group_gross_rates[:, 0] / params.equal_received
    # the sums of the m best gains, added in ranking order
    prefixes = accumulate(buf[row] for row in rank_row[:-1])
    k_star = _first_max(map(np.multiply, coeff, prefixes))[1] + 1
    # each row's k*-th and (k*+1)-th largest gains, gathered at flat indices
    n = eta.shape[0]
    cut, after = (buf.reshape(-1).take(rank_row.take(rank) * n + np.arange(n))
                  for rank in (k_star - 1, k_star))
    return _top_mask(eta, k_star, cut, after), k_star


def _threshold_mask(alpha: float, eta: np.ndarray) -> np.ndarray:
    """(N, K) threshold recommendations: gains within alpha of the row's best."""
    return eta >= alpha * reduce(np.maximum, eta.T)[:, None]


def _first_max(columns):
    """Each row's largest entry and the index of its first occurrence, over
    an iterable of (N,) columns (a strict rise at column j moves it to j,
    and j only grows)."""
    columns = iter(columns)
    top = next(columns)
    first = np.zeros(top.shape, dtype=int)
    for j, col in enumerate(columns, 1):
        first = np.maximum(first, j * (col > top))
        top = np.maximum(top, col)
    return top, first


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The number of True entries in each row of an (N, K) mask."""
    count = mask[:, 0].astype(int)
    for j in range(1, mask.shape[1]):
        count += mask[:, j]
    return count


def detect_deviation(expected_sinr, observed_sinr):
    """Relative SINR mismatch test with an absolute floor; broadcasts over
    arrays, where a NaN expectation (nothing to monitor) never fires."""
    gap = np.abs(np.subtract(observed_sinr, expected_sinr))
    hit = gap > _DETECTION_TOL * np.maximum(expected_sinr, _DETECTION_FLOOR)
    return hit if np.ndim(hit) else bool(hit)


def stage_action(kind: StrategyKind, params: GameParams, signal: SignalProfile,
                 punish: PunishmentState, i: int) -> float:
    """Power chosen by player i given its signals and punishment state."""
    name = kind.name
    if punish.triggered or name == "nash":
        return _stage_power(params, True, signal.own_gain, i)
    if name == "operating_point":
        return _stage_power(params, False, signal.own_gain, i)
    if name == "time_sharing":
        if signal.recommended is None:
            raise InformationError("time sharing needs the recommendation signal")
        if not signal.recommended:
            return 0.0
        # solo transmitter: single-user optimum, capped like a best response
        return float(min(params.beta_star * params.sigma2 / signal.own_gain,
                         params.p_max[i]))
    if name in ("threshold", "best_users"):
        if signal.recommended is None:
            raise InformationError(f"{name} needs the recommendation signal")
        if not signal.recommended:
            return 0.0
        if signal.k_active is None or signal.k_active < 1:
            raise InformationError(f"{name} needs the recommended player count")
        return _stage_power(params, False, signal.own_gain, i)
    if name == "social_optimum":
        if signal.global_state is None:
            raise InformationError("social optimum needs the full gain vector")
        powers, _ = social_optimum(params, signal.global_state)
        return float(powers[i])
    raise ValueError(f"unknown strategy kind {name!r}")


def _stage_power(params: GameParams, nash: bool, gain: float, i: int) -> float:
    """Player i's equilibrium (``nash``) or equal-received power; raises as ``check_caps``."""
    p = (params.nash_received if nash else params.equal_received) / gain
    if not p <= params.p_max[i]:  # a NaN equilibrium fails it too
        raise _cap_error(params, nash, p, i)
    return float(p)


def _cap_error(params: GameParams, nash: bool, p: float, i: int) -> Exception:
    """What compliant play raises for player i's planned power ``p`` over its
    cap or undefined (NaN: the selfish equilibrium does not exist)."""
    if nash:
        params.nash_scale()  # raises first when no interior equilibrium exists
        return SaturationError(f"equilibrium power {p:.6g} exceeds player {i}'s cap")
    return CapError(f"equal-received-power level {p:.6g} exceeds player {i}'s cap")


def under_caps(params: GameParams, powers: np.ndarray) -> bool:
    """Whether every planned power in the (N, K) ``powers`` is at most its
    player's cap (False for NaN).  One max against the lowest cap settles
    most plans; NaN, and a cap that binds, fall through to the full check."""
    return bool(powers.max(initial=-np.inf) <= params.p_max.min()
                or np.all(powers <= params.p_max))


def check_caps(params: GameParams, kinds, powers) -> None:
    """Raise what compliant play raises at the first planned power, in
    row-major order, over its player's cap or undefined (NaN: the selfish
    equilibrium does not exist).  ``kinds`` is the rule, or one per player."""
    if under_caps(params, powers):
        return
    t, i = np.argwhere(~(powers <= params.p_max))[0]
    kind = kinds if isinstance(kinds, StrategyKind) else kinds[i]
    raise _cap_error(params, kind.name == "nash", powers[t, i], i)


def compliant_profile(params: GameParams, kind: StrategyKind, eta: np.ndarray):
    """Vectorized compliant play of one rule over many realizations.

    ``eta`` has shape (N, K) and must hold positive, finite gains.  Returns
    ``(powers, recommended, k_active)`` with shapes (N, K), (N, K) bool and
    (N,) int.  Matches ``stage_action`` row by row when nobody is punishing;
    past the gain check, the only thing that can fail is a planned power
    over its player's cap, raised by ``check_caps``.
    """
    powers, recommended, k_active = unchecked_profile(params, kind, check_gains(eta))
    check_caps(params, kind, powers)
    return powers, recommended, k_active


def unchecked_profile(params: GameParams, kind: StrategyKind, eta: np.ndarray):
    """``compliant_profile`` before ``check_caps``: planned powers may
    exceed their caps, and selfish-equilibrium powers are NaN when the
    equilibrium does not exist.  A valid rule plans every row of positive,
    finite gains."""
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    n, k = eta.shape
    if k != params.n_players:
        raise ValueError(f"expected {params.n_players} columns, got {k}")
    name = kind.name

    if name == "nash":
        powers = params.nash_received / eta  # NaN without an equilibrium: check_caps raises
        return powers, np.ones_like(powers, dtype=bool), np.full(n, k)

    if name == "operating_point":
        powers = params.equal_received / eta
        return powers, np.ones_like(powers, dtype=bool), np.full(n, k)

    if name == "time_sharing":
        top, winner = _first_max(eta.T)  # lowest index wins ties
        powers = np.zeros((n, k))
        np.put(powers, np.arange(0, n * k, k) + winner,  # each row's winner, as a flat index
               np.minimum(params.beta_star * params.sigma2 / top, params.p_max[winner]))
        return powers, winner[:, None] == np.arange(k), np.ones(n, dtype=int)

    if name == "threshold":
        recommended = _threshold_mask(kind.alpha, eta)
        return _equal_powers(params, eta, recommended), recommended, _row_counts(recommended)

    if name == "best_users":
        recommended, k_active = _best_users_mask(params, eta)
        return _equal_powers(params, eta, recommended), recommended, k_active

    if name == "social_optimum":
        # one search over the distinct rows, in sorted order; each row's
        # search is its own, so the order does not change its powers
        distinct, index = np.unique(eta, axis=0, return_inverse=True)
        powers = social_optimum(params, distinct)[0][index.reshape(-1)]
        recommended = powers > 0
        return powers, recommended, _row_counts(recommended)

    raise ValueError(f"unknown strategy kind {name!r}")


def _equal_powers(params: GameParams, eta, recommended):
    # every row recommends someone, and the common received power c is the
    # same for any number of recommended players; (c * 1) / eta is exactly
    # c / eta and (c * 0) / eta is 0, with no branch per entry
    return params.equal_received * recommended / eta
