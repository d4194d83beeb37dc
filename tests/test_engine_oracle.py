"""``run_game`` against the per-stage reference loop in ``engine_oracle``.

Agreement means the same punishment stage, the same recorded trace and
payoffs within 1e-12, and the same exception, class and message, wherever
the reference raises.  Rayleigh-16 joint spaces are larger than every
horizon here, so those runs play one row per stage; the two-state models
(4 and 8 joint states) plan on the visited states and, where an alarm or a
cap needs it, gather that plan along the path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_oracle import run_game_oracle
from powergame.channels import TruncatedRayleighSpec, TwoStateSpec, build_model
from powergame.efficiency import ExponentialEfficiency
from powergame.engine import DeviationSpec, EngineConfig, run_game
from powergame.errors import SaturationError
from powergame.oneshot import GameParams
from powergame.strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    threshold,
)

RULES = (NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5), BEST_USERS, SOCIAL_OPTIMUM)
TOL = 1e-12


def _outcome(run, params, model, kinds, cfg):
    try:
        return run(params, model, kinds, cfg)
    except Exception as exc:  # the reference's error class is part of the contract
        return exc


def assert_agrees(params, model, kinds, cfg):
    got = _outcome(run_game, params, model, kinds, cfg)
    want = _outcome(run_game_oracle, params, model, kinds, cfg)
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return
    assert got.punishment_stage == want.punishment_stage
    for name in ("eta", "powers", "sinr", "utility"):
        np.testing.assert_allclose(getattr(got.trace, name), getattr(want.trace, name),
                                   rtol=0, atol=TOL, err_msg=name)
    np.testing.assert_array_equal(got.trace.recommended, want.trace.recommended)
    np.testing.assert_array_equal(got.trace.punishing, want.trace.punishing)
    np.testing.assert_allclose(got.discounted, want.discounted, rtol=0, atol=TOL)
    np.testing.assert_allclose(got.time_average, want.time_average, rtol=0, atol=TOL)


def _assignments(k):
    yield from RULES
    for shift in (0, 2, 3):  # mixed: every rule, each at a few player positions
        yield tuple(RULES[(i + shift) % len(RULES)] for i in range(k))
    yield (SOCIAL_OPTIMUM,) + (BEST_USERS,) * (k - 1)


# at cap 0.09 the selfish equilibrium binds in the low state (gain 1.2) and
# the equal-received-power levels never do
TWO_STATE = TwoStateSpec(1.2, 4.0, 0.5)


def _matrix():
    for spec, counts in ((TruncatedRayleighSpec(), (2, 3, 5)), (TWO_STATE, (2, 3))):
        for k in counts:
            for p_max in (np.inf, 0.09):
                for kinds in _assignments(k):
                    social = any(r.name == "social_optimum"
                                 for r in (kinds if isinstance(kinds, tuple) else (kinds,)))
                    horizon, seeds = (4, (4,)) if social and k == 5 else (10, (4, 5))
                    devs = [None] + [DeviationSpec(k - 1, start, mode)
                                     for start in (1, horizon // 2, horizon + 1)
                                     for mode in ("one_shot", "permanent")]
                    for dev in devs:
                        yield spec, k, p_max, kinds, dev, horizon, seeds


def _label(case):
    spec, k, p_max, kinds, dev, _, _ = case
    rules = kinds.label if not isinstance(kinds, tuple) else "+".join(r.label for r in kinds)
    d = "none" if dev is None else f"{dev.mode}@{dev.start}"
    model = "two_state-" if spec is TWO_STATE else ""
    return f"{model}K{k}-cap{p_max:g}-{rules}-{d}"


@pytest.mark.parametrize("case", list(_matrix()), ids=_label)
def test_matches_reference_on_seeded_matrix(case):
    spec, k, p_max, kinds, dev, horizon, seeds = case
    params = GameParams.symmetric(k, a=0.1, p_max=p_max)
    model = build_model(spec, k)
    for seed in seeds:
        cfg = EngineConfig(horizon=horizon, lam=0.2, seed=seed, deviation=dev)
        assert_agrees(params, model, kinds, cfg)


def test_cap_of_an_unplayed_rule_is_not_checked():
    # player 0 time-shares, so its operating-point power is never over its
    # cap; the selfish power it plays once punishment starts is
    params = GameParams(2, ExponentialEfficiency(0.1), p_max=[0.05, np.inf])
    model = build_model(TruncatedRayleighSpec(), 2)
    for seed in range(3):
        cfg = EngineConfig(horizon=20, lam=0.2, seed=seed)
        with pytest.raises(SaturationError):
            run_game(params, model, [TIME_SHARING, OPERATING_POINT], cfg)
        assert_agrees(params, model, [TIME_SHARING, OPERATING_POINT], cfg)


def test_punished_stages_check_the_equilibrium_cap():
    # an equal-power level after detection is over its cap, but nobody plays it
    params = GameParams.symmetric(3, a=0.1, p_max=0.09)
    model = build_model(TruncatedRayleighSpec(), 3)
    for seed in (4, 5):
        cfg = EngineConfig(horizon=25, lam=0.2, seed=seed, deviation=DeviationSpec(0, 1))
        with pytest.raises(SaturationError):
            run_game(params, model, BEST_USERS, cfg)
        assert_agrees(params, model, BEST_USERS, cfg)


def test_social_optimum_with_every_candidate_over_the_cap():
    # a gain below 0.1 / 0.09 puts each named power level of its player over
    # the cap, so that player's welfare grid is 0 plus a fill up to the cap
    params = GameParams.symmetric(3, a=0.1, p_max=0.09)
    model = build_model(TruncatedRayleighSpec(), 3)
    for seed in (4, 5):
        cfg = EngineConfig(horizon=30, lam=0.2, seed=seed)
        res = run_game(params, model, SOCIAL_OPTIMUM, cfg)
        assert (res.trace.eta < 0.1 / 0.09).any()
        assert_agrees(params, model, SOCIAL_OPTIMUM, cfg)


def test_detection_before_the_deviation_stage_cancels_a_one_shot():
    # the selfish player trips the alarm at stage 1, so from stage 2 on
    # everyone plays the equilibrium, the deviator included (it is its own
    # best response there)
    params = GameParams.symmetric(3, a=0.1)
    model = build_model(TruncatedRayleighSpec(), 3)
    kinds = [BEST_USERS, NASH, OPERATING_POINT]
    for mode in ("one_shot", "permanent"):
        cfg = EngineConfig(horizon=8, lam=0.2, seed=2, deviation=DeviationSpec(2, 4, mode))
        res = run_game(params, model, kinds, cfg)
        assert res.punishment_stage == 1
        np.testing.assert_allclose(res.trace.powers[1:],
                                   params.nash_scale() / res.trace.eta[1:], rtol=1e-12)
        assert_agrees(params, model, kinds, cfg)


@st.composite
def runs(draw):
    k = draw(st.integers(2, 4))
    pool = st.sampled_from(RULES)
    if draw(st.booleans()):
        kinds = draw(pool)
    else:
        kinds = tuple(draw(st.lists(pool, min_size=k, max_size=k)))
    horizon = draw(st.integers(1, 40))
    dev = None
    if draw(st.booleans()):
        dev = DeviationSpec(draw(st.integers(0, k - 1)), draw(st.integers(1, horizon + 2)),
                            draw(st.sampled_from(["one_shot", "permanent"])))
    p_max = draw(st.sampled_from([np.inf, 0.5, 0.15, 0.09]))
    cfg = EngineConfig(horizon=horizon, lam=0.2, seed=draw(st.integers(0, 2**16)),
                       deviation=dev)
    return GameParams.symmetric(k, a=0.1, p_max=p_max), kinds, cfg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(runs())
def test_matches_reference_on_generated_runs(run):
    params, kinds, cfg = run
    model = build_model(TruncatedRayleighSpec(), params.n_players)
    assert_agrees(params, model, kinds, cfg)
