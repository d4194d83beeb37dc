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

import numpy as np

from .errors import CapError, InformationError, SaturationError
from .oneshot import GameParams, social_optimum

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
# the alarm scales its tolerance by the expected SINR, but by no less than this
_DETECTION_FLOOR = 1e-12


@dataclass(frozen=True)
class StrategyKind:
    """A named stage-decision rule plus its parameters."""

    name: str
    alpha: float | None = None  # threshold rule only
    grid_size: int = 12  # social optimum search only

    def __post_init__(self):
        if self.name not in _VALID_KINDS:
            raise ValueError(f"unknown strategy kind {self.name!r}; valid: {_VALID_KINDS}")
        if not isinstance(self.grid_size, (int, np.integer)) or self.grid_size < 2:
            raise ValueError(f"grid_size must be an integer >= 2, got {self.grid_size!r}")
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
    indices.
    """
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    return np.nonzero(_best_users_mask(params, eta)[0])[0]


def select_by_threshold(alpha: float, eta) -> np.ndarray:
    """Players whose gain is within a factor alpha of the stage's best gain.

    Never empty: the best player always qualifies.  Returns ascending
    player indices.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    return np.nonzero(_threshold_mask(alpha, eta)[0])[0]


def _best_users_mask(params: GameParams, eta: np.ndarray) -> np.ndarray:
    """(N, K) best-user recommendations: per row, the prefix of the gain
    ranking (stable) whose equal-received-power welfare is largest, the
    shortest one on ties."""
    params.require_equal_rates()
    n, k = eta.shape
    order = np.argsort(-eta, axis=1, kind="stable")
    cums = np.cumsum(np.take_along_axis(eta, order, axis=1), axis=1)
    # the common received power equal_power_coeff(m) is the same for every m
    coeff = group_gross_rates(params)[:, 0] / params.equal_power_coeff(1)
    k_star = np.argmax(coeff * cums, axis=1) + 1
    recommended = np.zeros((n, k), dtype=bool)
    np.put_along_axis(recommended, order, np.arange(k) < k_star[:, None], axis=1)
    return recommended


def group_gross_rates(params: GameParams) -> np.ndarray:
    """(K, K) gross rates of equal-received-power groups: row m - 1 holds
    every player's R_i f(gamma_tilde(m)), the goodput of each member of an
    m-player group (its utility times its power).  Row 0 is also the
    selfish equilibrium's, since gamma_tilde(1) = beta_star."""
    gamma = np.array([params.gamma_tilde(m) for m in range(1, params.n_players + 1)])
    return params.eff.value(gamma)[:, None] * params.rates


def _threshold_mask(alpha: float, eta: np.ndarray) -> np.ndarray:
    """(N, K) threshold recommendations: gains within alpha of the row's best."""
    return eta >= alpha * eta.max(axis=1, keepdims=True)


def detect_deviation(expected_sinr, observed_sinr, tol: float):
    """Relative SINR mismatch test with an absolute floor; broadcasts over
    arrays, where a NaN expectation (nothing to monitor) never fires."""
    if not 0.0 < tol < np.inf:  # NaN or inf would silence the alarm
        raise ValueError(f"tol must be positive and finite, got {tol}")
    gap = np.abs(np.subtract(observed_sinr, expected_sinr))
    hit = gap > tol * np.maximum(expected_sinr, _DETECTION_FLOOR)
    return hit if np.ndim(hit) else bool(hit)


def stage_action(kind: StrategyKind, params: GameParams, signal: SignalProfile,
                 punish: PunishmentState, i: int) -> float:
    """Power chosen by player i given its signals and punishment state."""
    if punish.triggered:
        return _nash_power(params, signal.own_gain, i)
    name = kind.name
    if name == "nash":
        return _nash_power(params, signal.own_gain, i)
    if name == "operating_point":
        return _equal_power(params, params.n_players, signal.own_gain, i)
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
        return _equal_power(params, signal.k_active, signal.own_gain, i)
    if name == "social_optimum":
        if signal.global_state is None:
            raise InformationError("social optimum needs the full gain vector")
        powers, _ = social_optimum(params, signal.global_state, kind.grid_size)
        return float(powers[i])
    raise ValueError(f"unknown strategy kind {name!r}")


def _nash_power(params: GameParams, gain: float, i: int) -> float:
    p = params.nash_scale() / gain
    if p > params.p_max[i]:
        raise SaturationError(f"equilibrium power {p:.6g} exceeds player {i}'s cap")
    return float(p)


def _equal_power(params: GameParams, k_active: int, gain: float, i: int) -> float:
    p = params.equal_power_coeff(k_active) / gain
    if p > params.p_max[i]:
        raise CapError(
            f"equal-received-power level {p:.6g} exceeds player {i}'s cap"
        )
    return float(p)


def check_caps(params: GameParams, kinds, powers) -> None:
    """Raise what compliant play raises at the first planned power, in
    row-major order, over its player's cap or undefined (NaN: the selfish
    equilibrium does not exist).  ``kinds`` is the rule, or one per player."""
    ok = powers <= params.p_max
    if ok.all():
        return
    t, i = np.argwhere(~ok)[0]
    kind = kinds if isinstance(kinds, StrategyKind) else kinds[i]
    if kind.name == "nash":
        params.nash_scale()  # raises first when no interior equilibrium exists
        raise SaturationError(f"equilibrium power {powers[t, i]:.6g} exceeds player {i}'s cap")
    raise CapError(f"equal-received-power level {powers[t, i]:.6g} exceeds player {i}'s cap")


def compliant_profile(params: GameParams, kind: StrategyKind, eta: np.ndarray):
    """Vectorized compliant play of one rule over many realizations.

    ``eta`` has shape (N, K).  Returns ``(powers, recommended, k_active)``
    with shapes (N, K), (N, K) bool and (N,) int.  Matches ``stage_action``
    row by row when nobody is punishing; the only thing that can fail is a
    planned power over its player's cap, raised by ``check_caps``.
    """
    powers, recommended, k_active = unchecked_profile(params, kind, eta)
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
        try:
            scale = params.nash_scale()
        except SaturationError:
            scale = np.nan  # no interior equilibrium: check_caps raises
        powers = scale / eta
        return powers, np.ones_like(powers, dtype=bool), np.full(n, k)

    if name == "operating_point":
        powers = params.equal_power_coeff(k) / eta
        return powers, np.ones_like(powers, dtype=bool), np.full(n, k)

    if name == "time_sharing":
        winner = np.argmax(eta, axis=1)  # first max: lowest index wins ties
        recommended = np.zeros((n, k), dtype=bool)
        recommended[np.arange(n), winner] = True
        solo = params.beta_star * params.sigma2 / eta[np.arange(n), winner]
        solo = np.minimum(solo, params.p_max[winner])
        powers = np.zeros((n, k))
        powers[np.arange(n), winner] = solo
        return powers, recommended, np.ones(n, dtype=int)

    if name == "threshold":
        return _equal_power_rows(params, eta, _threshold_mask(kind.alpha, eta))

    if name == "best_users":
        return _equal_power_rows(params, eta, _best_users_mask(params, eta))

    if name == "social_optimum":
        powers = np.zeros((n, k))
        cache: dict[bytes, np.ndarray] = {}
        for row in range(n):
            key = eta[row].tobytes()
            if key not in cache:
                cache[key], _ = social_optimum(params, eta[row], kind.grid_size)
            powers[row] = cache[key]
        recommended = powers > 0
        return powers, recommended, recommended.sum(axis=1).astype(int)

    raise ValueError(f"unknown strategy kind {name!r}")


def _equal_power_rows(params: GameParams, eta, recommended):
    # every row recommends someone, and the common received power is the
    # same for any number of recommended players
    powers = np.where(recommended, params.equal_power_coeff(1) / eta, 0.0)
    return powers, recommended, recommended.sum(axis=1).astype(int)
