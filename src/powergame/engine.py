"""Multi-stage game: state evolution, stage plans, grim-trigger
punishment, deviation injection, and discounted/average payoffs.

A run is a deterministic function of (game, model, strategy kinds, config):
the only randomness is the channel path, drawn from a dedicated generator
seeded with ``(seed, spawn_key)``.  Channel evolution does not depend on
actions, so the whole path is drawn up front; runs sharing a seed see
identical channels regardless of strategy, which is what makes paired
(common-random-number) comparisons work; ``estimate_expected_utilities``
draws each such path once and plays every strategy on it, a closed-form
one in fixed blocks of rows.  Rules plan once per visited joint state
where the joint space is no larger than the horizon.

Every run is evaluated over the whole horizon at once: with the path
fixed up front and punishment never ending once it starts, grim trigger
needs no stage loop.  Each rule plans every stage and each player takes
its own rule's column; the deviator's best response overwrites its plan
at the deviation stage (``one_shot``) or from it on (``permanent``).
Every transmitting player whose rule carries an alarm compares its
realized SINR with the value its plan predicts, and the first stage t*
with a mismatch (other than the deviator's own) switches every later
stage to the selfish equilibrium, to which a permanent deviator keeps
best-responding.  Monitoring from the total received power alone is not
supported.

One kind of run takes the closed form (``_closed_form``): everyone follows
one rule other than ``social_optimum``, nobody deviates, and the plan is
under every cap.  It needs no SINR pass, since each transmitter realizes
the SINR its rule predicts.  Every other run is monitored, a compliant
social-optimum run or plan over a cap too; there no alarm fires, the
predicted and the realized SINR being the same row-wise computation, and
a plan over a cap raises the first failing stage's error.  ``run_game``
computes the SINR its trace records, for the kept stages only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _unravel
from .errors import PowerGameError
from .oneshot import GameParams, _sinr, _utility_from_sinr, best_response
from .strategies import (  # noqa: F401  compliant_profile stays importable from here
    MONITORED_KINDS,
    NASH,
    StrategyKind,
    check_caps,
    compliant_profile,
    detect_deviation,
    unchecked_profile,
    under_caps,
)

_FULL_TRACE_MAX = 10_000
_THINNED_EVERY = 100
# entries (rows * K) per block when the estimator plays a closed-form rule:
# bounds its per-rule arrays at any horizon, 4096 rows at K = 8
_PLAY_BLOCK_ENTRIES = 1 << 15


def _check_count(name: str, value, low: int) -> None:
    """Refuse a non-integer (a float or a bool; numpy integers pass) or a
    value below ``low`` where an integer input enters the engine."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


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
        _check_count("deviation start stage", self.start, 1)
        _check_count("deviation player index", self.player, 0)


@dataclass(frozen=True)
class EngineConfig:
    horizon: int
    lam: float
    seed: int
    spawn_key: tuple = ()
    deviation: DeviationSpec | None = None
    initial_state: tuple | None = None

    def __post_init__(self):
        _check_count("horizon", self.horizon, 1)
        _check_count("seed", self.seed, 0)
        if not 0.0 < self.lam < 1.0:
            raise ValueError("discount factor must be in (0, 1)")


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
    eta, rows = _draw_states(params, model, cfg.horizon, cfg.seed, cfg.spawn_key,
                             cfg.initial_state)
    eta, powers, recommended, rows, util_all, punishment_stage = _play(
        params, kinds, eta, rows, cfg.deviation)
    horizon = cfg.horizon
    keep = np.arange(0, horizon, 1 if horizon <= _FULL_TRACE_MAX else _THINNED_EVERY)
    kept = keep if rows is None else rows.take(keep)  # the kept stages' rows
    eta, powers = eta.take(kept, axis=0), powers.take(kept, axis=0)
    calm = horizon if punishment_stage is None else punishment_stage
    punishing = np.repeat((keep >= calm)[:, None], params.n_players, axis=1)
    trace = StageTrace(
        t=keep + 1,
        eta=eta,
        powers=powers,
        sinr=_sinr(params, eta, powers),
        utility=util_all.take(keep, axis=0),
        recommended=recommended.take(kept, axis=0),
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


def _draw_states(params, model, horizon: int, seed: int, spawn_key=(), initial_state=None):
    """Gains of the ``horizon``-stage path seeded by ``(seed, spawn_key)``, the
    package's one seeded draw, and each stage's row in them: the distinct
    joint states the path visits, in flat-index order, when the joint space
    is no larger than the horizon, else one row per stage and the map None."""
    _check_count("seed", seed, 0)
    if model.n_players != params.n_players:
        raise ValueError("model and game disagree on the player count")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    path = model.sample_path(horizon, rng, initial_state)
    if model.joint_size > horizon:
        return model.gain_matrix(path), None
    dims = model.law.dims
    flat = np.ravel_multi_index(path.T, dims)
    seen = np.zeros(model.joint_size, dtype=bool)
    seen[flat] = True
    row_of = np.cumsum(seen) - 1
    return model.gain_matrix(_unravel(np.flatnonzero(seen), dims)), row_of[flat]


def _play(params, kinds: tuple, eta: np.ndarray, rows, deviation=None):
    """Grim-trigger play of per-player ``kinds`` on the gains ``eta``; stage
    t+1 plays row ``rows[t]`` (``rows`` None: row t).  A silent player's
    alarm cannot fire: unless it is the deviator, it plays its own plan's
    column, so its realized SINR equals the predicted 0.0 exactly (and a
    NaN prediction never fires).

    A run nobody deviates in takes ``_closed_form`` when it gives one: it
    stays on the rows and computes no SINR.  Any other run plans each row
    once, gathers its plan along the path and plays per stage, which finds
    the punishment stage or raises the first failing stage's error.  The
    analysis scores exact expectations with it, on the joint-state table.
    Returns ``(eta, powers, recommended, rows, utility, punishment_stage)``:
    ``utility`` per stage, the other arrays indexed by the returned ``rows``
    map (None: by stage).
    """
    dev = deviation
    if dev is not None and dev.player >= params.n_players:
        raise ValueError("deviation player index out of range")
    closed = None if dev is not None else _closed_form(params, kinds, eta)
    if closed is not None:
        powers, recommended, utility = closed
        if rows is not None:
            utility = utility.take(rows, axis=0)
        return eta, powers, recommended, rows, utility, None
    planned, recommended, expected = _plan(params, kinds, eta)
    if rows is not None:  # ``take`` gathers rows several times faster than indexing
        eta, planned, recommended, expected = (
            a.take(rows, axis=0) for a in (eta, planned, recommended, expected))
    horizon = eta.shape[0]

    deviating = slice(0, 0)
    if dev is not None:
        deviating = slice(dev.start - 1, None if dev.mode == "permanent" else dev.start)
    powers = _deviate(params, eta, planned, dev, deviating)
    realized = _sinr(params, eta, powers)
    hits = detect_deviation(expected, realized)
    if dev is not None:
        hits[deviating, dev.player] = False  # the deviator is not monitored while it deviates
    hit_stages = hits.any(axis=1)
    punishment_stage = int(np.argmax(hit_stages)) + 1 if hit_stages.any() else None

    scheduled = planned
    if punishment_stage is not None and punishment_stage < horizon:
        # grim trigger: everyone plays the selfish equilibrium from the next stage on
        scheduled = planned.copy()
        scheduled[punishment_stage:] = unchecked_profile(params, NASH, eta[punishment_stage:])[0]
        if dev is not None and dev.mode == "one_shot" and punishment_stage < dev.start:
            deviating = slice(0, 0)  # caught before its deviation stage came
        powers = _deviate(params, eta, scheduled, dev, deviating)
        realized = _sinr(params, eta, powers)
    # raise what the earliest scheduled power over its cap raises (the
    # deviator's counts too, although it plays another one)
    calm = horizon if punishment_stage is None else punishment_stage
    check_caps(params, kinds, scheduled[:calm])
    check_caps(params, NASH, scheduled[calm:])
    util_all = _utility_from_sinr(params, powers, realized)
    return eta, powers, recommended, None, util_all, punishment_stage


def _closed_form(params, kinds, gains, out=None):
    """``(powers, recommended, utility)`` of everyone following one rule on
    the rows ``gains``, nobody deviating; None for mixed rules, for
    ``social_optimum`` and for a plan over a cap, which are played.  The
    utilities go into ``out`` when it is given (an (N, K) C-contiguous
    float array, left untouched on None).

    The utilities R_i f(s_i) / p_i take the SINR s_i the rule gives each
    transmitter: beta_star under ``nash``, gamma_tilde of the group size
    under the equal-received-power rules, and p eta / sigma2 for the lone
    ``time_sharing`` winner.  Silent players get 0.  They agree with the
    SINR route to within rounding (bit for bit under time sharing).
    """
    kind = kinds[0]
    if kind.name == "social_optimum" or len(set(kinds)) > 1:
        return None
    powers, recommended, k_active = unchecked_profile(params, kind, gains)
    if not under_caps(params, powers):
        return None
    return powers, recommended, _compliant_utility(params, kind, gains, powers, recommended,
                                                   k_active, out)


def _plan(params, kinds, eta):
    """Every player's unchecked compliant plan, one plan per distinct rule.

    Returns ``(powers, recommended, expected)``: ``expected`` is the SINR
    each player's alarm predicts, that of its own rule's plan (NaN without
    an alarm).  Powers over their caps are left for the caller to check.
    """
    rules = list(dict.fromkeys(kinds))
    plans = {rule: unchecked_profile(params, rule, eta) for rule in rules}
    if len(rules) == 1:  # no gathered copy: long runs stay lean
        powers, recommended, _ = plans[rules[0]]
    else:  # each player takes its own rule's column
        powers = np.stack([plans[kind][0][:, i] for i, kind in enumerate(kinds)], axis=1)
        recommended = np.stack([plans[kind][1][:, i] for i, kind in enumerate(kinds)], axis=1)
    expected = np.full(eta.shape, np.nan)
    for rule, (rule_powers, *_) in plans.items():
        if rule.name in MONITORED_KINDS:
            cols = [i for i, kind in enumerate(kinds) if kind == rule]
            expected[:, cols] = _sinr(params, eta, rule_powers)[:, cols]
    return powers, recommended, expected


def _compliant_utility(params, kind, eta, powers, recommended, k_active, out=None):
    """``_closed_form``'s utilities of one rule's plan ``powers`` and
    ``recommended`` mask, under every cap, written to ``out`` if given."""
    if out is None:
        out = np.empty(powers.shape)
    if kind.name == "time_sharing":
        flat = np.flatnonzero(recommended)  # each row's one winner, as a flat index
        p = np.take(powers, flat)
        solo = params.rates[flat % powers.shape[1]] * params.eff.value(
            p * np.take(eta, flat) / params.sigma2) / p
        out.fill(0.0)
        np.put(out, flat, solo)
        return out
    # each row's group: all K players under operating_point, and row 0 of
    # the table under nash, whose SINR is gamma_tilde(1) = beta_star
    gross = params.group_gross_rates
    nash = kind.name == "nash"
    if (nash or kind.name == "operating_point") and powers.min(initial=np.inf) > 0:
        # everyone transmits, in one group
        return np.divide(gross[0 if nash else -1], powers, out=out)
    # ``clip`` lets ``take`` write to ``out`` unbuffered (every index is in range)
    np.take(gross, np.zeros_like(k_active) if nash else k_active - 1, axis=0, out=out,
            mode="clip")
    transmits = powers > 0
    if transmits.all():  # everyone recommended everywhere: no mask arithmetic needed
        out /= powers
    else:  # (gross * 1) / (p + 0) is exactly gross / p, and (gross * 0) / (0 + 1) is 0
        out *= transmits
        silent = np.logical_not(transmits, out=transmits)
        out /= powers + silent
    return out


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
    _check_count("horizon", horizon, 1)
    _check_count("replicates", replicates, 1)
    kinds_list = list(kinds_list)
    means = [[] for _ in kinds_list]
    live, error = len(means), None  # entries from ``live`` on are not evaluated
    for r in range(replicates):
        eta, rows = _draw_states(params, model, horizon, seed, spawn_prefix + (r,))
        for j, kinds in enumerate(kinds_list[:live]):
            try:
                kinds = _normalize_kinds(kinds, params.n_players)
                average = _closed_form_average(params, kinds, eta, rows)
                if average is None:  # played whole, which raises if a plan is over a cap
                    average = _play(params, kinds, eta, rows)[4].mean(axis=0)
            except (PowerGameError, ValueError) as exc:  # an earlier entry may still fail first
                live, error = j, exc
                break
            means[j].append(average)
        del eta, rows  # the next path is drawn without this one alive
        if live == 0:
            break
    if error is not None:
        raise error
    return [UtilityEstimate.from_replicates(np.array(per)) for per in means]


def _closed_form_average(params: GameParams, kinds: tuple, eta: np.ndarray, rows):
    """``mean(axis=0)`` of the utilities ``_play`` gives ``kinds`` with no
    deviation, bit for bit, one block of rows at a time; None where the
    whole path must be played: K = 1, or ``_closed_form`` giving None on
    the visited-state table or on some block of stages.

    Each block is scored or gathered in place into rows 1.. of one buffer
    whose row 0 carries the running (K,) total, so ``einsum`` over the
    buffer continues the row-by-row sum that ``mean`` makes over a whole
    C-contiguous array with K >= 2 (with K = 1 it sums pairwise).  Per
    stage (``rows`` None) each block of gains is scored; on the visited
    states the table is scored once and gathered one block of ``rows`` at
    a time.
    """
    k = eta.shape[1]
    if k < 2:
        return None
    table = None
    if rows is not None:
        table = _closed_form(params, kinds, eta)
        if table is None:
            return None
        table = table[2]  # only the utilities stay alive through the blocks
    n = eta.shape[0] if rows is None else rows.size
    step = max(1, _PLAY_BLOCK_ENTRIES // k)
    buf = np.zeros((min(step, n) + 1, k))
    for start in range(0, n, step):
        m = min(step, n - start)
        if table is not None:  # ``clip`` lets ``take`` write to ``buf`` unbuffered
            table.take(rows[start:start + m], axis=0, out=buf[1:m + 1], mode="clip")
        elif _closed_form(params, kinds, eta[start:start + m], buf[1:m + 1]) is None:
            return None
        buf[0] = np.einsum("tk->k", buf[:m + 1])
    return buf[0] / n


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
