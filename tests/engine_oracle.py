"""Reference implementation of ``run_game``: the per-stage loop.

This is the stage-by-stage evaluation the package used before play was
evaluated over the whole horizon at once.  Every stage asks each player's
``stage_action`` for its power, injects the deviation, and runs the SINR
alarm through ``detect_deviation``; detection at stage t switches every
player to the selfish equilibrium from stage t+1 on.  Tests compare
``powergame.engine.run_game`` against ``run_game_oracle`` on seeded and
generated runs.  The scalar selectors it uses are private copies of the
package's former ones, and it plans the social optimum with the scalar
search in ``oneshot_oracle``, so the reference does not share the
vectorized selection masks or the lockstep welfare search it checks; it
looks its gains up with ``channels_oracle.gain_matrix_oracle``.

``compliant_utility_oracle`` is the SINR route for one rule's compliant
plan, which the engine replaces by the SINR the rule gives each
transmitter.

``unchecked_profile_oracle`` holds the former vectorized kernels of the
three selection rules: a stable argsort for best users and row reductions
along the player axis for the threshold rule, the time-sharing winner and
the recommended counts.  ``closed_form_utility_oracle`` is the former
masked divide for the utilities of all five closed-form rules.  The
package now computes these with column sweeps, which must agree with them
bit for bit.

``best_users_sort_oracle`` is the best-users kernel the package used
before it ranked gains with a sorting network: ``np.sort`` along each row
and ``stable_top_oracle``, which takes each row's m best players in the
stable ranking with an index-order tie loop on every row.

``draw_states_oracle`` is the route ``_draw_states`` took before the
joint laws drew flat joint indices: the (N, K) path of
``ChannelModel.sample_path``, flattened with ``np.ravel_multi_index`` to
build the visited-state table.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from channels_oracle import gain_matrix_oracle
from oneshot_oracle import social_optimum_oracle

from powergame.engine import (
    RunResult,
    StageTrace,
    _normalize_kinds,
    discount_weights,
    truncation_bound,
)
from powergame.oneshot import GameParams, best_response, sinr, utility
from powergame.strategies import (
    MONITORED_KINDS,
    PunishmentState,
    SignalProfile,
    detect_deviation,
    stage_action,
    unchecked_profile,
)


def compliant_utility_oracle(params, kind, eta):
    """Utilities of ``kind``'s plan on the (N, K) gains ``eta`` by the SINR
    route: ``oneshot.utility`` of the ``unchecked_profile`` powers."""
    return utility(params, eta, unchecked_profile(params, kind, eta)[0])


def unchecked_profile_oracle(params: GameParams, kind, eta: np.ndarray):
    """``strategies.unchecked_profile`` of the three selection rules (time
    sharing, threshold and best users), by the former vectorized kernels."""
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    n, k = eta.shape
    if k != params.n_players:
        raise ValueError(f"expected {params.n_players} columns, got {k}")
    name = kind.name

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

    raise ValueError(f"unknown strategy kind {name!r}")


def _best_users_mask(params: GameParams, eta: np.ndarray) -> np.ndarray:
    """(N, K) best-user recommendations: per row, the prefix of the gain
    ranking (stable) whose equal-received-power welfare is largest, the
    shortest one on ties."""
    params.require_equal_rates()
    n, k = eta.shape
    order = np.argsort(-eta, axis=1, kind="stable")
    cums = np.cumsum(np.take_along_axis(eta, order, axis=1), axis=1)
    # equal_received, the common received power, is the same for every m
    coeff = params.group_gross_rates[:, 0] / params.equal_received
    k_star = np.argmax(coeff * cums, axis=1) + 1
    recommended = np.zeros((n, k), dtype=bool)
    np.put_along_axis(recommended, order, np.arange(k) < k_star[:, None], axis=1)
    return recommended


def best_users_sort_oracle(params: GameParams, eta: np.ndarray):
    """``strategies._best_users_mask``, the (N, K) recommendations and (N,)
    counts, by ``np.sort`` along each row and ``stable_top_oracle``."""
    params.require_equal_rates()
    desc = np.sort(eta, axis=1)[:, ::-1]
    coeff = params.group_gross_rates[:, 0] / params.equal_received
    values = [np.multiply(c, prefix) for c, prefix in zip(coeff, accumulate(desc.T))]
    k_star = np.argmax(np.stack(values, axis=1), axis=1) + 1  # the first maximum
    return stable_top_oracle(eta, desc, k_star), k_star


def stable_top_oracle(eta: np.ndarray, desc: np.ndarray, m) -> np.ndarray:
    """(N, K) mask of each row's ``m`` best players in the stable gain
    ranking (larger gain first, lower index first among equal gains), given
    ``desc``, each row of ``eta`` sorted descending; ``m`` in 1..K is one
    count for every row or one per row.  Every gain above the m-th largest
    is in, and the gains equal to it are taken in index order until m
    players are."""
    n, k = eta.shape
    cut = desc[np.arange(n), m - 1]
    left = np.full(n, m)  # places left for the gains equal to the cutoff
    for j in range(k - 1):  # the smallest gain is never above a cutoff
        left -= desc[:, j] > cut
    top = eta > cut[:, None]
    tie = eta == cut[:, None]
    for j in range(k):
        take = tie[:, j] & (left > 0)
        left -= take
        top[:, j] |= take
    return top


def _threshold_mask(alpha: float, eta: np.ndarray) -> np.ndarray:
    """(N, K) threshold recommendations: gains within alpha of the row's best."""
    return eta >= alpha * eta.max(axis=1, keepdims=True)


def _equal_power_rows(params, eta, recommended):
    # every row recommends someone, and the common received power is the
    # same for any number of recommended players
    powers = np.where(recommended, params.equal_received / eta, 0.0)
    return powers, recommended, recommended.sum(axis=1).astype(int)


def closed_form_utility_oracle(params, kind, eta, powers, k_active):
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
        gross = params.group_gross_rates[0]
    else:  # each row's recommended group: all K players under operating_point
        gross = params.group_gross_rates[k_active - 1]
    return np.divide(gross, powers, out=np.zeros(powers.shape), where=powers > 0)


def draw_states_oracle(params, model, horizon, seed, spawn_key=(), initial_state=None):
    """``_draw_states`` from the per-player path: the gains per stage when
    the joint space is larger than the horizon, else the visited states'
    gains in flat-index order and each stage's row in them."""
    if model.n_players != params.n_players:
        raise ValueError("model and game disagree on the player count")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    path = model.sample_path(horizon, rng, initial_state)
    if model.joint_size > horizon:
        return gain_matrix_oracle(model, path), None
    dims = model.law.dims
    flat = np.ravel_multi_index(path.T, dims)
    visited = np.unique(flat)
    row_of = np.full(model.joint_size, -1, dtype=np.int64)
    row_of[visited] = np.arange(visited.size)
    states = np.stack(np.unravel_index(visited, dims), axis=-1)
    return gain_matrix_oracle(model, states), row_of[flat]


def run_game_oracle(params, model, kinds, cfg) -> RunResult:
    """``run_game`` evaluated one stage at a time (full trace, no thinning)."""
    kinds = _normalize_kinds(kinds, params.n_players)
    if model.n_players != params.n_players:
        raise ValueError("model and game disagree on the player count")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=cfg.spawn_key))
    idx = model.sample_path(cfg.horizon, rng, cfg.initial_state)
    eta = gain_matrix_oracle(model, idx)
    powers, recommended, sinr_all, util_all, punishing, punishment_stage = (
        _run_sequential(params, model, kinds, cfg, eta)
    )
    t = np.arange(1, cfg.horizon + 1)
    return RunResult(
        discounted=discount_weights(cfg.horizon, cfg.lam) @ util_all,
        time_average=util_all.mean(axis=0),
        weight_sum=float(-np.expm1(cfg.horizon * np.log1p(-cfg.lam))),
        remainder_bound=truncation_bound(util_all, cfg.lam),
        trace=StageTrace(t=t, eta=eta, powers=powers, sinr=sinr_all, utility=util_all,
                         recommended=recommended, punishing=punishing),
        seed=cfg.seed,
        spawn_key=cfg.spawn_key,
        punishment_stage=punishment_stage,
    )


def _stage_plans(params, kinds, row, so_cache):
    """Recommendation signal per player for one stage.

    Each distinct rule present computes its own receiver recommendation;
    a player sees the recommendation addressed to its rule.  Returns
    (recommended (K,) bool, k_active (K,) int, social profile or None).
    """
    n = params.n_players
    recommended = np.ones(n, dtype=bool)
    k_active = np.full(n, n)
    so_profile = None
    done = {}
    for i, kind in enumerate(kinds):
        key = (kind.name, kind.alpha)
        if key not in done:
            if kind.name == "best_users":
                members = _select_best_users(params, row)
                mask = np.zeros(n, dtype=bool)
                mask[members] = True
                done[key] = (mask, members.size)
            elif kind.name == "threshold":
                members = _select_by_threshold(kind.alpha, row)
                mask = np.zeros(n, dtype=bool)
                mask[members] = True
                done[key] = (mask, members.size)
            elif kind.name == "time_sharing":
                mask = np.zeros(n, dtype=bool)
                mask[int(np.argmax(row))] = True
                done[key] = (mask, 1)
            elif kind.name == "social_optimum":
                state = row.tobytes()
                if state not in so_cache:
                    so_cache[state], _ = social_optimum_oracle(params, row)
                so_profile = so_cache[state]
                mask = so_profile > 0
                done[key] = (mask, int(mask.sum()))
            else:  # nash / operating_point: everyone is always "in"
                done[key] = (np.ones(n, dtype=bool), n)
        mask, count = done[key]
        recommended[i] = mask[i]
        k_active[i] = count
    return recommended, k_active, so_profile


def _select_best_users(params, eta) -> np.ndarray:
    """Welfare-maximizing subset under equal-received-power play.

    At equal rates the optimum over all 2^K - 1 subsets is always a
    prefix of the gain ranking, so only the K prefix sets are scored
    (ties in gain broken by player index).  Returns ascending player
    indices.
    """
    rate = params.require_equal_rates()
    eta = np.asarray(eta, dtype=float)
    order = np.argsort(-eta, kind="stable")
    cums = np.cumsum(eta[order])
    k = params.n_players
    coeff = np.array(
        [rate * params.eff.value(params.gamma_tilde(m)) / params.equal_received
         for m in range(1, k + 1)]
    )
    k_best = int(np.argmax(coeff * cums)) + 1  # first max: smallest k on ties
    return np.sort(order[:k_best])


def _select_by_threshold(alpha: float, eta) -> np.ndarray:
    """Players whose gain is within a factor alpha of the stage's best gain.

    Never empty: the best player always qualifies.  Returns ascending
    player indices.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    eta = np.asarray(eta, dtype=float)
    return np.nonzero(eta >= alpha * eta.max())[0]


def _expected_sinr(params, kind, k_active, i, so_profile, row):
    if kind.name == "operating_point":
        return params.gamma_tilde(params.n_players)
    if kind.name in ("threshold", "best_users"):
        return params.gamma_tilde(int(k_active))
    if kind.name == "social_optimum":
        return float(sinr(params, row, so_profile, i))
    return None


def _run_sequential(params, model, kinds, cfg, eta):
    horizon, n = eta.shape
    dev = cfg.deviation
    if dev is not None and dev.player >= n:
        raise ValueError("deviation player index out of range")
    punish = PunishmentState()
    powers = np.zeros((horizon, n))
    recommended = np.zeros((horizon, n), dtype=bool)
    sinr_all = np.zeros((horizon, n))
    util_all = np.zeros((horizon, n))
    punishing = np.zeros((horizon, n), dtype=bool)
    so_cache: dict[bytes, np.ndarray] = {}

    for t in range(horizon):
        stage = t + 1
        row = eta[t]
        rec, k_act, so_profile = _stage_plans(params, kinds, row, so_cache)
        recommended[t] = rec
        punishing[t] = punish.triggered

        p_t = np.empty(n)
        for i, kind in enumerate(kinds):
            signal = SignalProfile(
                own_gain=float(row[i]),
                recommended=bool(rec[i]),
                k_active=int(k_act[i]),
                global_state=row if kind.name == "social_optimum" else None,
            )
            p_t[i] = stage_action(kind, params, signal, punish, i)

        if dev is None:
            deviating = False
        elif dev.mode == "one_shot":
            deviating = stage == dev.start and not punish.triggered
        else:  # permanent: keeps best-responding, even to the punishment
            deviating = stage >= dev.start
        if deviating:
            p_t[dev.player] = best_response(params, row, p_t, dev.player)

        s_t = sinr(params, row, p_t)
        util_all[t] = utility(params, row, p_t)
        sinr_all[t] = s_t
        powers[t] = p_t

        if not punish.triggered:
            for i, kind in enumerate(kinds):
                if kind.name not in MONITORED_KINDS or p_t[i] <= 0:
                    continue
                if deviating and i == dev.player:
                    continue
                expected = _expected_sinr(params, kind, k_act[i], i, so_profile, row)
                if expected is not None and detect_deviation(expected, float(s_t[i])):
                    punish.trigger(stage)
                    break

    return powers, recommended, sinr_all, util_all, punishing, punish.trigger_stage
