import itertools
import re

import numpy as np
import pytest

from powergame.efficiency import ExponentialEfficiency
from powergame.errors import InformationError, PowerGameError
from powergame.oneshot import GameParams, operating_point_powers, utility
from powergame.strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    PunishmentState,
    SignalProfile,
    StrategyKind,
    check_caps,
    compliant_profile,
    detect_deviation,
    select_best_users,
    select_by_threshold,
    stage_action,
    threshold,
    unchecked_profile,
    under_caps,
)


def params_for(k, a, sigma2=1.0, p_max=np.inf):
    return GameParams(k, ExponentialEfficiency(a), sigma2=sigma2, p_max=p_max)


def exhaustive_best_subset(params, eta):
    """Oracle: welfare argmax over every non-empty subset, each playing the
    equal-received-power profile for its size; first-listed winner on ties."""
    best, best_w = None, -np.inf
    k = params.n_players
    for r in range(1, k + 1):
        for subset in itertools.combinations(range(k), r):
            powers = operating_point_powers(params, eta, list(subset))
            w = utility(params, eta, powers).sum()
            if w > best_w + 1e-12:
                best, best_w = set(subset), w
    return best, best_w


class TestBestUserSelection:
    def test_high_a_picks_only_the_best(self):
        p = params_for(3, 0.5)
        assert set(select_best_users(p, [4.0, 2.0, 1.0])) == {0}

    def test_low_a_keeps_everyone(self):
        p = params_for(3, 0.1)
        assert set(select_best_users(p, [4.0, 2.0, 1.0])) == {0, 1, 2}

    def test_single_player(self):
        p = params_for(1, 0.3)
        assert set(select_best_users(p, [0.7])) == {0}

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for k, a in [(4, 0.2), (6, 0.1), (8, 0.1)]:
            p = params_for(k, a)
            for _ in range(30):
                eta = rng.uniform(0.2, 5.0, k)
                chosen = set(select_best_users(p, eta))
                oracle, oracle_w = exhaustive_best_subset(p, eta)
                powers = operating_point_powers(p, eta, sorted(chosen))
                assert utility(p, eta, powers).sum() == pytest.approx(oracle_w, rel=1e-10)
                assert chosen == oracle

    def test_equal_gains_selects_all(self):
        p = params_for(10, 0.1)
        assert set(select_best_users(p, np.ones(10))) == set(range(10))

    def test_tie_broken_by_player_index(self):
        p = params_for(3, 0.5)
        # both players 0 and 1 have the best gain; only one slot is worth it
        chosen = select_best_users(p, [4.0, 4.0, 0.1])
        assert 0 in chosen

    def test_requires_equal_rates(self):
        p = GameParams(2, ExponentialEfficiency(0.1), rates=[1.0, 2.0])
        with pytest.raises(ValueError):
            select_best_users(p, [1.0, 2.0])


@pytest.mark.parametrize("a", [0.01, 0.05, 0.1, 1 / 9, 1.5, 7.0])
@pytest.mark.parametrize("rates", [1.0, 2.5, [0.5, 1.0, 1.7, 3.0, 0.2, 1.1, 2.2, 0.9, 1.3, 4.0]])
def test_group_gross_rates_fall_with_group_size(a, rates):
    # f(gamma_tilde(m)) = exp(-a / gamma_tilde(m)) = exp(-(1 + (m - 1) a))
    params = GameParams(10, ExponentialEfficiency(a), rates=rates)
    got = params.group_gross_rates
    m = np.arange(1, 11)[:, None]
    want = params.rates * np.exp(-(1.0 + (m - 1) * a))
    assert got.shape == (10, 10)
    assert params.group_gross_rates is got and not got.flags.writeable  # one shared table
    assert np.all(np.diff(got, axis=0) < 0)
    # exp scales the rounding of a / gamma_tilde(m) by that exponent, so the
    # bound holds while it stays at most 2: everywhere the selfish
    # equilibrium of 10 players exists
    if 9 * a <= 1.0:
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


class TestThresholdSelection:
    def test_half_threshold(self):
        assert set(select_by_threshold(0.5, [4.0, 2.0, 1.0])) == {0, 1}

    def test_zero_threshold_keeps_all(self):
        assert set(select_by_threshold(0.0, [4.0, 2.0, 1.0])) == {0, 1, 2}

    def test_unit_threshold_keeps_best(self):
        assert set(select_by_threshold(1.0, [4.0, 2.0, 1.0])) == {0}

    def test_never_empty(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            eta = rng.uniform(0.1, 5.0, 6)
            assert select_by_threshold(1.0, eta).size >= 1

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            select_by_threshold(1.5, [1.0])
        with pytest.raises(ValueError):
            threshold(-0.1)


class TestStageAction:
    def test_not_recommended_is_silent(self):
        p = params_for(2, 0.1)
        sig = SignalProfile(own_gain=1.0, recommended=False, k_active=1)
        assert stage_action(BEST_USERS, p, sig, PunishmentState(), 0) == 0.0

    def test_recommended_plays_sized_power(self):
        p = params_for(2, 0.1)
        sig = SignalProfile(own_gain=2.0, recommended=True, k_active=2)
        assert stage_action(BEST_USERS, p, sig, PunishmentState(), 0) == pytest.approx(0.05)

    def test_punishment_overrides_everything(self):
        p = params_for(2, 0.1)
        punished = PunishmentState()
        punished.trigger(3)
        sig = SignalProfile(own_gain=1.0, recommended=False, k_active=1)
        for kind in (BEST_USERS, OPERATING_POINT, TIME_SHARING, NASH):
            assert stage_action(kind, p, sig, punished, 0) == pytest.approx(1 / 9)

    def test_time_sharing_solo_power(self):
        p = params_for(3, 0.1)
        sig = SignalProfile(own_gain=2.0, recommended=True, k_active=1)
        assert stage_action(TIME_SHARING, p, sig, PunishmentState(), 0) == pytest.approx(0.05)
        silent = SignalProfile(own_gain=2.0, recommended=False, k_active=1)
        assert stage_action(TIME_SHARING, p, silent, PunishmentState(), 0) == 0.0

    def test_missing_signals_raise(self):
        p = params_for(2, 0.1)
        with pytest.raises(InformationError):
            stage_action(BEST_USERS, p, SignalProfile(own_gain=1.0), PunishmentState(), 0)
        with pytest.raises(InformationError):
            stage_action(
                BEST_USERS, p,
                SignalProfile(own_gain=1.0, recommended=True, k_active=None),
                PunishmentState(), 0,
            )
        with pytest.raises(InformationError):
            stage_action(
                SOCIAL_OPTIMUM, p, SignalProfile(own_gain=1.0), PunishmentState(), 0
            )

    def test_social_optimum_uses_global_state(self):
        p = params_for(2, 0.1)
        eta = np.array([1.0, 1.0])
        sig = SignalProfile(own_gain=1.0, global_state=eta)
        out = stage_action(SOCIAL_OPTIMUM, p, sig, PunishmentState(), 0)
        assert out > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StrategyKind("boost")
        with pytest.raises(ValueError):
            StrategyKind("nash", alpha=0.5)


class TestDeviationDetection:
    def test_exact_compliance(self):
        p = params_for(2, 0.1)
        g = p.gamma_tilde(2)
        assert not detect_deviation(g, g)

    def test_doubled_power_detected(self):
        # oracle: recompute the SINR when the opponent doubles its power
        p = params_for(2, 0.1)
        eta = np.array([1.0, 2.0])
        plan = operating_point_powers(p, eta)
        cheat = plan.copy()
        cheat[1] *= 2
        observed = cheat[0] * eta[0] / (cheat[1] * eta[1] + 1.0)
        assert detect_deviation(p.gamma_tilde(2), observed)

    def test_off_plan_transmitter_in_solo_stage(self):
        p = params_for(2, 0.1)
        eta = np.array([2.0, 1.0])
        solo = np.array([0.05, 0.0])  # expected: no interference
        expected = solo[0] * eta[0] / 1.0
        intruded = np.array([0.05, 0.3])
        observed = intruded[0] * eta[0] / (intruded[1] * eta[1] + 1.0)
        assert detect_deviation(expected, observed)

    @pytest.mark.parametrize("expected,observed,fires", [
        (1.0, 1.0 + 0.5e-6, False), (1.0, 1.0 + 2e-6, True),  # relative tolerance 1e-6
        (0.0, 5e-19, False), (0.0, 2e-18, True),  # floor 1e-12 times the tolerance
    ])
    def test_tolerance_and_floor_boundaries(self, expected, observed, fires):
        assert detect_deviation(expected, observed) is fires

    def test_a_nan_prediction_never_fires(self):
        # NaN is the expectation of a player nobody monitors
        assert detect_deviation(float("nan"), 1.0) is False
        hits = detect_deviation(np.array([np.nan, 1.0, 1.0]), np.array([5.0, 1.0, 5.0]))
        assert hits.tolist() == [False, False, True]


def test_grim_trigger_is_absorbing():
    state = PunishmentState()
    state.trigger(5)
    state.trigger(9)
    assert state.triggered and state.trigger_stage == 5


def test_threshold_edge_cases_match_other_rules():
    p = params_for(4, 0.1)
    rng = np.random.default_rng(23)
    for _ in range(50):
        eta = rng.uniform(0.2, 5.0, 4)
        assert set(select_by_threshold(0.0, eta)) == set(range(4))
        winner = int(np.argmax(eta))
        assert set(select_by_threshold(1.0, eta)) == {winner}


BAD_GAINS = [float("nan"), 0.0, -1.0, float("inf")]
SELECTORS = {
    "select_best_users": lambda eta: select_best_users(params_for(3, 0.1), eta),
    "select_by_threshold": lambda eta: select_by_threshold(0.5, eta),
    "compliant_profile": lambda eta: compliant_profile(params_for(3, 0.1), BEST_USERS, eta),
}


@pytest.mark.parametrize("bad", BAD_GAINS, ids=["nan", "zero", "negative", "inf"])
@pytest.mark.parametrize("name", list(SELECTORS))
def test_selectors_refuse_gains_that_are_not_positive_and_finite(name, bad):
    # a NaN used to select nobody (threshold) or everybody (best users), and
    # compliant_profile planned a zero gain with a divide-by-zero warning
    with pytest.raises(ValueError, match="channel gains must be positive and finite"):
        SELECTORS[name]([bad, 1.0, 2.0])


@pytest.mark.parametrize("name", list(SELECTORS))
def test_selectors_refuse_an_empty_gain_vector(name):
    with pytest.raises(ValueError):
        SELECTORS[name]([])


TWO_PLAYER_SELECTORS = {
    "select_best_users": lambda eta: select_best_users(params_for(2, 0.1), eta),
    "select_by_threshold": lambda eta: select_by_threshold(0.5, eta),
}


@pytest.mark.parametrize("eta", [[[1.0, 2.0], [5.0, 1.0]], [[1.0, 2.0]], [[[1.0, 2.0]]], 2.0],
                         ids=["two_rows", "one_row", "three_axes", "scalar"])
@pytest.mark.parametrize("name", list(TWO_PLAYER_SELECTORS))
def test_selectors_take_one_realization_only(name, eta):
    # best users used to answer for the first of several rows ([0 1] for the
    # two rows here), and the threshold rule with row indices ([0 0] for the
    # three axes)
    with pytest.raises(ValueError, match="expects a single realization"):
        TWO_PLAYER_SELECTORS[name](eta)


def test_best_users_needs_one_gain_per_player():
    with pytest.raises(ValueError, match="expected 3 channel gains"):
        select_best_users(params_for(3, 0.1), [4.0, 2.0])


class TestCompliantProfile:
    @pytest.mark.parametrize(
        "kind",
        [NASH, OPERATING_POINT, TIME_SHARING, BEST_USERS, threshold(0.5),
         SOCIAL_OPTIMUM],
    )
    def test_matches_stage_action(self, kind):
        p = params_for(3, 0.2)
        rng = np.random.default_rng(31)
        eta = rng.uniform(0.3, 4.0, (12, 3))
        powers, recommended, k_active = compliant_profile(p, kind, eta)
        for t in range(eta.shape[0]):
            for i in range(3):
                sig = SignalProfile(
                    own_gain=float(eta[t, i]),
                    recommended=bool(recommended[t, i]),
                    k_active=int(k_active[t]),
                    global_state=eta[t] if kind.name == "social_optimum" else None,
                )
                expected = stage_action(kind, p, sig, PunishmentState(), i)
                assert powers[t, i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "kind,a",
        [(NASH, 0.5),  # (K-1) a = 1: no interior equilibrium
         (NASH, 0.1), (OPERATING_POINT, 0.1), (BEST_USERS, 0.1), (threshold(0.1), 0.1)],
    )
    def test_cap_errors_match_stage_action(self, kind, a):
        # player 0's planned power is over its cap (or undefined); per-stage play
        # raises the same exception with the same message as the vectorized plan
        p = params_for(3, a, p_max=[0.05, np.inf, np.inf])
        eta = np.array([[0.5, 0.6, 0.7]])
        with pytest.raises(PowerGameError) as planned:
            compliant_profile(p, kind, eta)
        _, recommended, k_active = unchecked_profile(p, kind, eta)
        assert recommended[0, 0]
        sig = SignalProfile(own_gain=0.5, recommended=True, k_active=int(k_active[0]))
        expected = dict(expected_exception=type(planned.value),
                        match=f"^{re.escape(str(planned.value))}$")
        with pytest.raises(**expected):
            stage_action(kind, p, sig, PunishmentState(), 0)
        if kind.name == "nash":  # punishment plays the selfish equilibrium
            with pytest.raises(**expected):
                stage_action(BEST_USERS, p, sig, PunishmentState(True, 0), 0)

    def test_selection_k_active_consistency(self):
        p = params_for(5, 0.15)
        rng = np.random.default_rng(37)
        eta = rng.uniform(0.3, 4.0, (40, 5))
        _, recommended, k_active = compliant_profile(p, BEST_USERS, eta)
        np.testing.assert_array_equal(recommended.sum(axis=1), k_active)
        for t in range(40):
            assert set(np.nonzero(recommended[t])[0]) == set(select_best_users(p, eta[t]))



class TestCapScreen:
    """``check_caps`` and the closed-form route screen a plan with one max
    against the lowest cap; NaN and a binding cap fall through to the full
    comparison, which raises at the first failing power in row-major order."""

    @staticmethod
    def assert_raises_like_stage_action(params, kind, eta, t, i):
        powers, _, k_active = unchecked_profile(params, kind, eta)
        assert not under_caps(params, powers)
        sig = SignalProfile(own_gain=float(eta[t, i]), recommended=True,
                            k_active=int(k_active[t]))
        with pytest.raises(PowerGameError) as staged:
            stage_action(kind, params, sig, PunishmentState(), i)
        with pytest.raises(type(staged.value), match=f"^{re.escape(str(staged.value))}$"):
            check_caps(params, kind, powers)

    def test_nan_nash_plan(self):
        # (K-1) a = 1: no interior equilibrium, so every planned power is NaN
        params = params_for(3, 0.5)
        eta = np.random.default_rng(5).uniform(0.5, 2.0, (50, 3))
        assert np.isnan(unchecked_profile(params, NASH, eta)[0]).all()
        self.assert_raises_like_stage_action(params, NASH, eta, 0, 0)

    def test_plan_over_one_players_lower_cap(self):
        # the level 0.1 / eta first passes player 1's cap of 0.05 at row 3;
        # player 2 passes its cap of 10 later, player 1 meets its cap at row 1
        params = params_for(3, 0.1, p_max=[10.0, 0.05, 10.0])
        eta = np.full((8, 3), 4.0)
        eta[1, 1], eta[3, 1], eta[5, 2] = 2.0, 1.0, 0.005
        self.assert_raises_like_stage_action(params, OPERATING_POINT, eta, 3, 1)
        eta[3, 1] = 2.0  # now only player 2's cap is passed
        self.assert_raises_like_stage_action(params, OPERATING_POINT, eta, 5, 2)

    def test_binding_caps_pass(self):
        # powers above the lowest cap but each under its own; 0.05 is exactly
        # player 1's cap
        params = params_for(3, 0.1, p_max=[10.0, 0.05, 10.0])
        eta = np.array([[0.02, 2.0, 0.1], [4.0, 4.0, 0.01]])
        powers = unchecked_profile(params, OPERATING_POINT, eta)[0]
        assert powers.max() > params.p_max.min() and under_caps(params, powers)
        check_caps(params, OPERATING_POINT, powers)
        check_caps(params, OPERATING_POINT, powers[:0])  # no rows: nothing to raise

    def test_screen_agrees_with_the_full_comparison(self):
        rng = np.random.default_rng(17)
        for caps in ([np.inf] * 3, [1.0, 0.5, np.inf], [0.5] * 3):
            params = params_for(3, 0.1, p_max=caps)
            for _ in range(200):
                powers = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, np.inf, np.nan],
                                    (int(rng.integers(0, 4)), 3),
                                    p=[0.15] * 6 + [0.05] * 2)
                assert under_caps(params, powers) == bool(np.all(powers <= params.p_max))
