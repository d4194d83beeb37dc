"""Equilibrium analysis for the multi-stage game.

Everything here works on the patient-player limit quantities: expected
stage utilities under the stationary state distribution, the punishment
floor opponents can force, the feasible region of expected utility pairs,
and the largest discount factor at which grim-trigger-backed user
selection stays an equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import stationary_distribution
from .engine import UtilityEstimate, _draw_states, _play, estimate_expected_utilities
from .errors import ModelError
from .geometry import (
    clip_to_lower_bounds,
    convex_hulls,
    weighted_minkowski_sum,
)
from .oneshot import (GameParams, _grid_profiles, _power_grids, best_response, check_grid_size,
                      nash_powers, utility)
from .strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    TIME_SHARING,
    StrategyKind,
    compliant_profile,
    threshold,
)

_MC_STATE_SAMPLES = 20_000
# joint states per utility call in ``feasible_region_2p``: its cloud arrays,
# about states * grid_size**2 * 2 floats, stay small enough that they do not
# raise the peak memory of a region run (32 states did, by 0.25 MB)
_REGION_BLOCK_STATES = 16


def joint_state_table(model):
    """(index matrix, gain matrix, stationary probabilities) over all joint
    states; only possible when the joint space is small enough."""
    states = model.joint_states()
    gains = model.gain_matrix(states)
    probs = stationary_distribution(model.law)
    return states, gains, probs


def expected_utilities_exact(params: GameParams, model, kind: StrategyKind) -> np.ndarray:
    """Exact per-player expected stage utility of compliant play of ``kind``
    under the stationary state distribution: the engine's per-state
    utilities (``_play``) weighted by the joint states' probabilities."""
    _, gains, probs = joint_state_table(model)
    return probs @ _play(params, (kind,) * params.n_players, gains, None)[4]


def _punished_utilities(params: GameParams, gains: np.ndarray) -> np.ndarray:
    """Each player's utility from its best response to every other player
    transmitting at its cap: utility falls in the interference, so the cap
    is the opponents' minimizing play.  An unbounded opponent cap drives the
    level to 0.  ``gains`` has shape (S, K); returns (S, K)."""
    out = np.zeros(gains.shape)
    for i in range(params.n_players):
        jam = params.p_max.copy()
        jam[i] = 0.0  # the player's own cap, even an infinite one, keeps its floor
        if np.isinf(jam).any():
            continue
        powers = np.tile(jam, (gains.shape[0], 1))
        powers[:, i] = best_response(params, gains, jam, i)
        out[:, i] = utility(params, gains, powers, i)
    return out


def minmax_levels(params: GameParams, model, *, seed: int = 0,
                  samples: int = _MC_STATE_SAMPLES) -> np.ndarray:
    """Punishment floor per player: expected best-response utility against
    all opponents transmitting at their caps.

    Exact state enumeration when the joint space fits in memory, else the
    mean over ``samples`` stages of the engine's path seeded by ``seed``.
    """
    params.require_equal_rates()
    try:
        _, gains, probs = joint_state_table(model)
        return probs @ _punished_utilities(params, gains)
    except ModelError:
        gains, rows = _draw_states(params, model, samples, seed)
        gains = gains if rows is None else gains.take(rows, axis=0)  # one row per stage
        return _punished_utilities(params, gains).mean(axis=0)


@dataclass
class RegionResult:
    """Feasible expected-utility region of a 2-player game."""

    hull: np.ndarray  # (M, 2) CCW vertices
    minmax: np.ndarray  # (2,) punishment floors
    fstar: np.ndarray  # hull clipped to {x >= minmax}
    markers: dict  # strategy label -> exact expected utility pair
    state_gains: np.ndarray  # (S, 2)
    state_probs: np.ndarray  # (S,)
    state_grids: list  # per state, per player candidate power arrays


def feasible_region_2p(params: GameParams, model, grid_size: int = 12) -> RegionResult:
    """Feasible set of expected utility pairs over stationary state-feedback
    strategies (with public randomization) on quantized action grids.

    Per joint state the achievable utility pairs form a finite cloud; the
    expected-utility set is the Minkowski sum of the clouds' convex hulls,
    weighted by the stationary probabilities.  The channel law does not
    depend on actions, so this holds for any irreducible law, Markov laws
    included.  Each state's grids are ``oneshot._power_grids``, and its
    profiles ``oneshot._grid_profiles``; the padding of the grids only
    repeats profiles, which the hull drops.  Requires K = 2 and, in every
    joint state, the selfish equilibrium under the caps (else
    ``SaturationError``).
    """
    if params.n_players != 2:
        raise ValueError("the exact region is only computed for 2-player games")
    check_grid_size(grid_size)

    _, gains, probs = joint_state_table(model)
    nash_powers(params, gains)  # raises where the equilibrium exceeds a cap
    padded, sizes = _power_grids(params, gains, grid_size)
    hulls = []
    for lo in range(0, gains.shape[0], _REGION_BLOCK_STATES):
        block = slice(lo, lo + _REGION_BLOCK_STATES)
        profiles = _grid_profiles([padded[block, 0], padded[block, 1]])
        clouds = utility(params, gains[block, None, :], profiles)
        hulls.extend(convex_hulls(clouds))
    grids = [[g[:n] for g, n in zip(state, state_sizes)]
             for state, state_sizes in zip(padded, sizes)]
    region = weighted_minkowski_sum(hulls, probs)
    floors = minmax_levels(params, model)
    markers = {
        kind.label: expected_utilities_exact(params, model, kind)
        for kind in (NASH, OPERATING_POINT, TIME_SHARING, BEST_USERS)
    }
    return RegionResult(
        hull=region,
        minmax=floors,
        fstar=clip_to_lower_bounds(region, floors),
        markers=markers,
        state_gains=gains,
        state_probs=probs,
        state_grids=grids,
    )


@dataclass
class LambdaBound:
    """Largest discount factor keeping grim-trigger user selection an
    equilibrium, with the quantities the bound is built from."""

    lambda_max: float
    per_player: np.ndarray
    delta: np.ndarray  # E[u selection] - E[u equilibrium], per player
    delta_stderr: np.ndarray
    penalty: float  # best one-stage deviation utility bound
    selection: UtilityEstimate
    equilibrium: UtilityEstimate
    warning: bool  # some player's delta was not positive


def lambda_max(params: GameParams, model, *, horizon: int = 100_000,
               replicates: int = 4, seed: int = 0,
               spawn_prefix: tuple = ()) -> LambdaBound:
    """Equilibrium bound lam <= delta / (penalty + delta), per player.

    ``delta`` is the expected per-stage gain of compliant selection over
    the selfish equilibrium (paired Monte Carlo, common random numbers);
    ``penalty`` bounds what one deviation stage can ever pay:
    rate * sup_gain * f(beta_star) / (sigma2 * beta_star).
    """
    rate = params.require_equal_rates()
    sel, eq = estimate_expected_utilities(
        params, model, [BEST_USERS, NASH], horizon, seed, replicates, spawn_prefix
    )
    paired = UtilityEstimate.from_replicates(sel.per_replicate - eq.per_replicate)
    delta = paired.mean
    bs = params.beta_star
    penalty = rate * model.sup_gain * float(params.eff.value(bs)) / (params.sigma2 * bs)
    gain = np.clip(delta, 0.0, None)
    per_player = gain / (penalty + gain)
    return LambdaBound(
        lambda_max=float(per_player.min()),
        per_player=per_player,
        delta=delta,
        delta_stderr=paired.stderr,
        penalty=penalty,
        selection=sel,
        equilibrium=eq,
        warning=bool(np.any(delta <= 0)),
    )


@dataclass
class DominanceReport:
    """Per-strategy expected-utility estimates plus any dominance findings."""

    estimates: dict  # label -> UtilityEstimate, common random numbers
    violations: list  # human-readable findings; empty when dominance holds


def dominance_report(params: GameParams, model, *, horizon: int = 100_000,
                     replicates: int = 4, seed: int = 0,
                     alphas: tuple = (0.5,),
                     spawn_prefix: tuple = ()) -> DominanceReport:
    """Estimate E[u] per player under every built-in rule and check that
    best-user selection is not beaten beyond 2 paired standard errors.

    A violated comparison is reported as a finding, not raised: it either
    falsifies the implementation or the noise tolerance.
    """
    params.require_equal_rates()
    kinds = [BEST_USERS, NASH, OPERATING_POINT, TIME_SHARING]
    kinds += [threshold(a) for a in alphas]
    paired = estimate_expected_utilities(
        params, model, kinds, horizon, seed, replicates, spawn_prefix
    )
    estimates = {kind.label: est for kind, est in zip(kinds, paired)}
    sel = estimates["best_users"]
    violations = []
    for label in ("nash", "operating_point", "time_sharing"):
        paired = sel.per_replicate - estimates[label].per_replicate
        gap = UtilityEstimate.from_replicates(paired)
        diff, se = gap.mean, gap.stderr
        bad = diff < -(2.0 * se + 1e-12)
        for i in np.nonzero(bad)[0]:
            violations.append(
                f"player {i}: E[u best_users] - E[u {label}] = {diff[i]:.6g} "
                f"(paired se {se[i]:.3g})"
            )
    return DominanceReport(estimates=estimates, violations=violations)


@dataclass
class PartitionResult:
    """How often a fixed player meets each (recommended?, group size)
    configuration under best-user selection."""

    k: np.ndarray  # group sizes 1..K
    recommended_freq: np.ndarray
    not_recommended_freq: np.ndarray
    player: int


def config_partition(params: GameParams, model, *, horizon: int = 100_000,
                     seed: int = 0, player: int = 0) -> PartitionResult:
    gains, rows = _draw_states(params, model, horizon, seed)
    gains = gains if rows is None else gains.take(rows, axis=0)  # planned per stage, as errors are
    _, recommended, k_active = compliant_profile(params, BEST_USERS, gains)
    mine = recommended[:, player]
    k_vals = np.arange(1, params.n_players + 1)
    h1 = np.array([(mine & (k_active == k)).mean() for k in k_vals])
    h2 = np.array([(~mine & (k_active == k)).mean() for k in k_vals])
    return PartitionResult(
        k=k_vals, recommended_freq=h1, not_recommended_freq=h2, player=player
    )
