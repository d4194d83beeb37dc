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
from .engine import UtilityEstimate, estimate_expected_utilities
from .errors import ModelError
from .geometry import (
    clip_to_lower_bounds,
    convex_hull,
    weighted_minkowski_sum,
)
from .oneshot import GameParams, _power_grid, nash_powers, utility
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


def joint_state_table(model):
    """(index matrix, gain matrix, stationary probabilities) over all joint
    states; only possible when the joint space is small enough."""
    states = model.joint_states()
    gains = model.gain_matrix(states)
    probs = stationary_distribution(model.law)
    return states, gains, probs


def expected_utilities_exact(params: GameParams, model, kind: StrategyKind) -> np.ndarray:
    """Exact per-player expected stage utility of compliant play of ``kind``
    under the stationary state distribution (enumerates joint states)."""
    _, gains, probs = joint_state_table(model)
    powers, _, _ = compliant_profile(params, kind, gains)
    return probs @ utility(params, gains, powers)


def _punished_utilities(params: GameParams, gains: np.ndarray) -> np.ndarray:
    """Best utility each player can reach while everyone else jams at the cap.

    Utility falls in the interference, so the opponents' minimizing play is
    the cap; the inner maximum is the usual best response in closed form.
    An unbounded opponent cap drives the level to 0.  ``gains`` has shape
    (S, K); returns (S, K).
    """
    bs = params.beta_star
    k = params.n_players
    received_cap = params.p_max * gains  # may contain inf
    interference = np.zeros_like(gains)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        interference[:, i] = received_cap[:, others].sum(axis=1)
    noise_plus = interference + params.sigma2
    want = bs * noise_plus / gains
    capped = want > params.p_max
    with np.errstate(invalid="ignore", divide="ignore"):
        u_free = params.rates * params.eff.value(bs) * gains / (bs * noise_plus)
        u_free = np.where(np.isfinite(u_free), u_free, 0.0)
        if np.any(capped):
            sinr_cap = np.where(
                np.isfinite(noise_plus), received_cap / noise_plus, 0.0
            )
            u_cap = params.rates * np.asarray(params.eff.value(sinr_cap)) / params.p_max
            u_cap = np.where(np.isfinite(u_cap), u_cap, 0.0)
            return np.where(capped, u_cap, u_free)
    return u_free


def minmax_levels(params: GameParams, model, *, seed: int = 0,
                  samples: int = _MC_STATE_SAMPLES) -> np.ndarray:
    """Punishment floor per player: expected best-response utility against
    all opponents transmitting at their caps.

    Exact state enumeration when the joint space fits in memory, seeded
    Monte Carlo over the stationary law otherwise.
    """
    params.require_equal_rates()
    try:
        _, gains, probs = joint_state_table(model)
        return probs @ _punished_utilities(params, gains)
    except ModelError:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        idx = model.sample_path(samples, rng)
        gains = model.gain_matrix(idx)
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
    included.  Each player's grid is ``oneshot._power_grid``.  Requires
    K = 2 and, in every joint state, the selfish equilibrium under the caps
    (else ``SaturationError``).
    """
    if params.n_players != 2:
        raise ValueError("the exact region is only computed for 2-player games")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")

    _, gains, probs = joint_state_table(model)
    hulls = []
    grids = []
    for eta_s in gains:
        nash_powers(params, eta_s)  # raises where the equilibrium exceeds a cap
        g0 = _power_grid(params, eta_s, 0, grid_size)
        g1 = _power_grid(params, eta_s, 1, grid_size)
        grids.append((g0, g1))
        p0, p1 = np.meshgrid(g0, g1, indexing="ij")
        profiles = np.stack([p0.ravel(), p1.ravel()], axis=-1)
        points = utility(params, eta_s, profiles)
        hulls.append(convex_hull(points))
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
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gains = model.gain_matrix(model.sample_path(horizon, rng))
    _, recommended, k_active = compliant_profile(params, BEST_USERS, gains)
    mine = recommended[:, player]
    k_vals = np.arange(1, params.n_players + 1)
    h1 = np.array([(mine & (k_active == k)).mean() for k in k_vals])
    h2 = np.array([(~mine & (k_active == k)).mean() for k in k_vals])
    return PartitionResult(
        k=k_vals, recommended_freq=h1, not_recommended_freq=h2, player=player
    )
