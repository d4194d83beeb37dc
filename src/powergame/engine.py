"""Multi-stage game: state evolution, stage plans, grim-trigger
punishment, deviation injection, and discounted/average payoffs.

A run is a deterministic function of (game, model, strategy kinds, config):
the only randomness is the channel path, drawn from a dedicated generator
seeded with ``(seed, spawn_key)``.  Channel evolution does not depend on
actions, so the whole path is drawn up front; runs sharing a seed see
identical channels regardless of strategy, which is what makes paired
(common-random-number) comparisons work; ``estimate_expected_utilities``
draws each such path once and plays every strategy on it.  Rules plan once
per visited joint state where the joint space is no larger than the horizon.

Every run is evaluated over the whole horizon at once: with the path
fixed up front and punishment never ending once it starts, grim trigger
needs no stage loop.  Each rule plans every stage and each player takes
its own rule's column; the deviator's best response overwrites its plan
at the deviation stage (``one_shot``) or from it on (``permanent``).
Every transmitting player whose rule carries an alarm compares its
realized SINR with the value its plan predicts, and the first stage t*
with a mismatch (other than the deviator's own) switches every later
stage to the selfish equilibrium, to which a permanent deviator keeps
best-responding.  Monitoring is skipped when everyone follows one rule and
nobody deviates; monitoring from the total received power alone is not
supported.

Such a run, when its plan is under every cap, needs no SINR pass either:
each transmitter realizes the SINR its rule predicts (beta_star under the
selfish equilibrium, gamma_tilde(k) in a k-player equal-received-power
group, p eta / sigma2 for the lone time-sharing winner), so its utility is
R f(s) / p with one s per row.  These utilities agree with the SINR route
to within rounding (bit for bit under time sharing).  A social-optimum
run, like any run with an alarm or a plan over its cap, gathers its
plan along the path and computes SINR stage by stage.  ``run_game``
computes the SINR its trace records, for the kept stages only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _unravel
from .errors import PowerGameError
from .oneshot import GameParams, _utility_from_sinr, best_response, sinr
from .strategies import (  # noqa: F401  compliant_profile stays importable from here
    MONITORED_KINDS,
    NASH,
    StrategyKind,
    check_caps,
    compliant_profile,
    detect_deviation,
    group_gross_rates,
    unchecked_profile,
)

_FULL_TRACE_MAX = 10_000
_THINNED_EVERY = 100


@dataclass(frozen=True)
class DeviationSpec:
    """Forced unilateral deviation: at ``start`` the deviator plays a best
    response to the compliant plan instead of its recommendation; mode
    ``one_shot`` returns to plan afterwards, ``permanent`` keeps
    best-responding to whatever the others currently play."""

    player: int
    start: int = 1
    mode: str = "one_shot"

    def __post_init__(self):
        if self.mode not in ("one_shot", "permanent"):
            raise ValueError(f"unknown deviation mode {self.mode!r}")
        if self.start < 1:
            raise ValueError("deviation start stage must be >= 1")
        if self.player < 0:
            raise ValueError("deviation player index must be >= 0")


@dataclass(frozen=True)
class EngineConfig:
    horizon: int
    lam: float
    seed: int
    spawn_key: tuple = ()
    deviation: DeviationSpec | None = None
    initial_state: tuple | None = None
    detection_tol: float = 1e-6

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("discount factor must be in (0, 1)")
        if not 0.0 < self.detection_tol < np.inf:  # NaN or inf would silence the alarm
            raise ValueError("detection_tol must be positive and finite")


@dataclass
class StageTrace:
    """Recorded stages (possibly thinned); all arrays share the leading axis."""

    t: np.ndarray  # 1-based stage numbers
    eta: np.ndarray
    powers: np.ndarray
    sinr: np.ndarray
    utility: np.ndarray
    recommended: np.ndarray
    punishing: np.ndarray


@dataclass
class RunResult:
    discounted: np.ndarray  # per-player sum of lam (1-lam)^(t-1) u_i(t)
    time_average: np.ndarray
    weight_sum: float  # 1 - (1-lam)^T
    remainder_bound: float  # (1-lam)^T * max observed stage utility
    trace: StageTrace
    seed: int
    spawn_key: tuple
    punishment_stage: int | None  # stage at which a deviation was detected


def discount_weights(horizon: int, lam: float) -> np.ndarray:
    """Weights lam * (1-lam)^(t-1) for t = 1..horizon."""
    if not 0.0 < lam < 1.0:
        raise ValueError("discount factor must be in (0, 1)")
    return lam * np.exp(np.arange(horizon) * np.log1p(-lam))


def discounted_utility(stage_utils, lam: float):
    """Discounted value of a stage-utility sequence (axis 0 is time)."""
    stage_utils = np.asarray(stage_utils, dtype=float)
    out = discount_weights(stage_utils.shape[0], lam) @ stage_utils
    return out if np.ndim(out) else float(out)


def truncation_bound(stage_utils, lam: float) -> float:
    """(1-lam)^T * sup u: what the truncated tail can contribute at most."""
    stage_utils = np.asarray(stage_utils, dtype=float)
    t = stage_utils.shape[0]
    return float(np.exp(t * np.log1p(-lam)) * stage_utils.max(initial=0.0))


def _normalize_kinds(kinds, n_players: int) -> tuple:
    if isinstance(kinds, StrategyKind):
        return (kinds,) * n_players
    kinds = tuple(kinds)
    if len(kinds) != n_players:
        raise ValueError(f"need one strategy kind per player ({n_players})")
    return kinds


def run_game(params: GameParams, model, kinds, cfg: EngineConfig) -> RunResult:
    """Play the stochastic game and return discounted/average payoffs.

    ``kinds`` is one StrategyKind for everyone or a per-player sequence.
    Deterministic: identical inputs give an identical result.
    """
    kinds = _normalize_kinds(kinds, params.n_players)
    eta, powers, recommended, rows, util_all, punishment_stage = _play(
        params, kinds, *_draw_states(params, model, cfg), cfg)
    horizon = cfg.horizon
    keep = np.arange(0, horizon, 1 if horizon <= _FULL_TRACE_MAX else _THINNED_EVERY)
    kept = keep if rows is None else rows[keep]  # the kept stages' rows
    eta, powers = eta[kept], powers[kept]
    calm = horizon if punishment_stage is None else punishment_stage
    punishing = np.repeat((keep >= calm)[:, None], params.n_players, axis=1)
    trace = StageTrace(
        t=keep + 1,
        eta=eta,
        powers=powers,
        sinr=sinr(params, eta, powers),
        utility=util_all[keep],
        recommended=recommended[kept],
        punishing=punishing,
    )
    return RunResult(
        discounted=discounted_utility(util_all, cfg.lam),
        time_average=util_all.mean(axis=0),
        weight_sum=float(-np.expm1(horizon * np.log1p(-cfg.lam))),
        remainder_bound=truncation_bound(util_all, cfg.lam),
        trace=trace,
        seed=cfg.seed,
        spawn_key=cfg.spawn_key,
        punishment_stage=punishment_stage,
    )


def _draw_states(params: GameParams, model, cfg: EngineConfig):
    """Gains of the path seeded by ``(seed, spawn_key)`` and each stage's row
    in them: the distinct joint states the path visits, in flat-index order,
    when the joint space is no larger than the horizon, else one row per
    stage and the map None."""
    if model.n_players != params.n_players:
        raise ValueError("model and game disagree on the player count")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=cfg.spawn_key))
    path = model.sample_path(cfg.horizon, rng, cfg.initial_state)
    if model.joint_size > cfg.horizon:
        return model.gain_matrix(path), None
    dims = model.law.dims
    flat = np.ravel_multi_index(path.T, dims)
    seen = np.zeros(model.joint_size, dtype=bool)
    seen[flat] = True
    row_of = np.cumsum(seen) - 1
    return model.gain_matrix(_unravel(np.flatnonzero(seen), dims)), row_of[flat]


def _play(params: GameParams, kinds: tuple, eta: np.ndarray, rows, cfg: EngineConfig):
    """Grim-trigger play of per-player ``kinds`` on the gains ``eta``; stage
    t+1 plays row ``rows[t]`` (``rows`` None: row t).

    Every rule plans each row once.  A single rule other than the social
    optimum, with no alarm and its plan under every cap, stays on the rows
    and takes its utilities from the SINR the rule gives each transmitter,
    without computing SINR.  Any other run gathers its plan along the path
    and plays per stage, which finds the punishment stage or raises the
    first failing stage's error.  Returns ``(eta, powers, recommended, rows,
    utility, punishment_stage)``: ``utility`` per stage, the other arrays
    indexed by the returned ``rows`` map (None: by stage).
    """
    dev = cfg.deviation
    if dev is not None and dev.player >= params.n_players:
        raise ValueError("deviation player index out of range")
    planned, recommended, expected, k_active = _plan(params, kinds, eta, dev is not None)
    if (expected is None and kinds[0].name != "social_optimum"
            and np.all(planned <= params.p_max)):
        utility = _compliant_utility(params, kinds[0], eta, planned, k_active)
        return eta, planned, recommended, rows, utility if rows is None else utility[rows], None
    if rows is not None:
        eta, planned, recommended = eta[rows], planned[rows], recommended[rows]
        expected = None if expected is None else expected[rows]
    horizon = eta.shape[0]

    deviating = slice(0, 0)
    if dev is not None:
        deviating = slice(dev.start - 1, None if dev.mode == "permanent" else dev.start)
    powers = _deviate(params, eta, planned, dev, deviating)
    realized = None  # SINR of ``powers``, once computed
    punishment_stage = None
    if expected is not None:
        realized = sinr(params, eta, powers)
        hits = detect_deviation(expected, realized, cfg.detection_tol)
        hits &= powers > 0  # silent players are not monitored
        if dev is not None:
            hits[deviating, dev.player] = False  # nor is the deviator while it deviates
        if hits.any():
            punishment_stage = int(np.argmax(hits.any(axis=1))) + 1

    scheduled = planned
    if punishment_stage is not None and punishment_stage < horizon:
        # grim trigger: everyone plays the selfish equilibrium from the next stage on
        scheduled = planned.copy()
        scheduled[punishment_stage:] = unchecked_profile(params, NASH, eta[punishment_stage:])[0]
        if dev is not None and dev.mode == "one_shot" and punishment_stage < dev.start:
            deviating = slice(0, 0)  # caught before its deviation stage came
        powers = _deviate(params, eta, scheduled, dev, deviating)
        realized = None
    # raise what the earliest scheduled power over its cap raises (the
    # deviator's counts too, although it plays another one)
    calm = horizon if punishment_stage is None else punishment_stage
    check_caps(params, kinds, scheduled[:calm])
    check_caps(params, NASH, scheduled[calm:])

    if realized is None:
        realized = sinr(params, eta, powers)
    util_all = _utility_from_sinr(params, powers, realized)
    return eta, powers, recommended, None, util_all, punishment_stage


def _plan(params, kinds, eta, deviation: bool):
    """Every player's unchecked compliant plan, one plan per distinct rule.

    Returns ``(powers, recommended, expected, k_active)``: ``expected`` is
    the SINR each player's alarm predicts (NaN without an alarm), or None
    when everyone follows one rule and nobody deviates; ``k_active`` is the
    single rule's recommended count per row (None for mixed rules).  Powers
    over their caps are left for the caller to check.
    """
    rules = list(dict.fromkeys(kinds))
    plans = {rule: unchecked_profile(params, rule, eta) for rule in rules}
    k_active = None
    if len(rules) == 1:  # no gathered copy: long compliant runs stay lean
        powers, recommended, k_active = plans[rules[0]]
    else:  # each player takes its own rule's column
        powers = np.stack([plans[kind][0][:, i] for i, kind in enumerate(kinds)], axis=1)
        recommended = np.stack([plans[kind][1][:, i] for i, kind in enumerate(kinds)], axis=1)
    if len(rules) == 1 and not deviation:
        return powers, recommended, None, k_active

    expected = np.full(eta.shape, np.nan)
    for rule, (rule_powers, *_) in plans.items():
        if rule.name in MONITORED_KINDS:  # the alarm predicts the SINR of the rule's own plan
            cols = [i for i, kind in enumerate(kinds) if kind == rule]
            expected[:, cols] = sinr(params, eta, rule_powers)[:, cols]
    return powers, recommended, expected, k_active


def _compliant_utility(params, kind, eta, powers, k_active):
    """Utilities R_i f(s_i) / p_i of one rule's plan ``powers`` (under every
    cap, nobody deviating), from the SINR s_i the rule gives each
    transmitter: beta_star under ``nash``, gamma_tilde of the group size
    under the equal-received-power rules, and p eta / sigma2 for the lone
    ``time_sharing`` winner.  Not for ``social_optimum``."""
    if kind.name == "time_sharing":
        stages = np.arange(powers.shape[0])
        winner = np.argmax(powers, axis=1)  # the only positive power of its row
        gross = np.zeros(powers.shape)
        gross[stages, winner] = params.rates[winner] * params.eff.value(
            powers[stages, winner] * eta[stages, winner] / params.sigma2)
    elif kind.name == "nash":
        gross = group_gross_rates(params)[0]
    else:  # each row's recommended group: all K players under operating_point
        gross = group_gross_rates(params)[k_active - 1]
    return np.divide(gross, powers, out=np.zeros(powers.shape), where=powers > 0)


def _deviate(params, eta, scheduled, dev, stages):
    """``scheduled`` with the deviator best-responding to it on ``stages``."""
    if dev is None:
        return scheduled
    powers = scheduled.copy()
    powers[stages, dev.player] = best_response(params, eta[stages], scheduled[stages],
                                               dev.player)
    return powers


@dataclass
class UtilityEstimate:
    """Monte Carlo estimate of per-player expected stage utility."""

    mean: np.ndarray
    stderr: np.ndarray
    per_replicate: np.ndarray  # (replicates, K) time averages

    @classmethod
    def from_replicates(cls, per: np.ndarray) -> UtilityEstimate:
        """Mean over axis 0 with its standard error (0 for one replicate)."""
        replicates = per.shape[0]
        mean = per.mean(axis=0)
        if replicates > 1:
            stderr = per.std(axis=0, ddof=1) / np.sqrt(replicates)
        else:
            stderr = np.zeros_like(mean)
        return cls(mean=mean, stderr=stderr, per_replicate=per)


def estimate_expected_utility(params: GameParams, model, kinds, horizon: int,
                              seed: int, replicates: int,
                              spawn_prefix: tuple = ()) -> UtilityEstimate:
    """Time-average utility over ``horizon`` stages, per replicate.

    Replicates use independent substreams spawned from ``seed``; passing
    the same seed for two different strategy kinds pairs the replicates
    on identical channel draws.
    """
    return estimate_expected_utilities(
        params, model, [kinds], horizon, seed, replicates, spawn_prefix
    )[0]


def estimate_expected_utilities(params: GameParams, model, kinds_list, horizon: int,
                                seed: int, replicates: int,
                                spawn_prefix: tuple = ()) -> list:
    """``estimate_expected_utility`` of every entry of ``kinds_list``, in
    order, with each replicate's path drawn once and shared by all of them.

    Each estimate equals its own ``estimate_expected_utility`` call bit for
    bit.  If several entries fail, the error of the first listed is raised.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    kinds_list = list(kinds_list)
    means = [[] for _ in kinds_list]
    live, error = len(means), None  # entries from ``live`` on are not evaluated
    for r in range(replicates):
        cfg = EngineConfig(horizon=horizon, lam=0.5, seed=seed,
                           spawn_key=spawn_prefix + (r,))
        eta, rows = _draw_states(params, model, cfg)
        for j, kinds in enumerate(kinds_list[:live]):
            try:
                kinds = _normalize_kinds(kinds, params.n_players)
                *_, util, _ = _play(params, kinds, eta, rows, cfg)
            except (PowerGameError, ValueError) as exc:  # an earlier entry may still fail first
                live, error = j, exc
                break
            means[j].append(util.mean(axis=0))
        if live == 0:
            break
    if error is not None:
        raise error
    return [UtilityEstimate.from_replicates(np.array(per)) for per in means]


def trace_csv(result: RunResult) -> str:
    """Long-format CSV of the recorded stages."""
    lines = ["t,player,eta,power,sinr,utility,recommended,punishing"]
    tr = result.trace
    for r in range(tr.t.size):
        for i in range(tr.eta.shape[1]):
            lines.append(
                f"{tr.t[r]},{i},{tr.eta[r, i]:.12g},{tr.powers[r, i]:.12g},"
                f"{tr.sinr[r, i]:.12g},{tr.utility[r, i]:.12g},"
                f"{int(tr.recommended[r, i])},{int(tr.punishing[r, i])}"
            )
    return "\n".join(lines) + "\n"
