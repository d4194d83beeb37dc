import itertools
import math

import numpy as np
import pytest

from powergame import engine
from powergame.channels import (
    ChannelModel,
    IIDJointLaw,
    IIDProductLaw,
    MarkovJointLaw,
    TruncatedRayleighSpec,
    TwoStateSpec,
    build_model,
    load_model,
    save_model,
)
from powergame.efficiency import ExponentialEfficiency
from powergame.engine import (
    DeviationSpec,
    _FULL_TRACE_MAX,
    _PLAY_BLOCK_ENTRIES,
    EngineConfig,
    _closed_form_average,
    _draw_states,
    _play,
    discount_weights,
    discounted_utility,
    estimate_expected_utilities,
    estimate_expected_utility,
    run_game,
    trace_csv,
    truncation_bound,
)
from powergame.errors import CapError, SaturationError
from powergame.oneshot import GameParams, sinr, utility
from engine_oracle import draw_states_oracle, run_game_oracle
from powergame.strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    select_best_users,
    threshold,
)


def params_for(k, a, sigma2=1.0, p_max=np.inf):
    return GameParams(k, ExponentialEfficiency(a), sigma2=sigma2, p_max=p_max)


def single_state_model(gains):
    return ChannelModel(tuple((float(g),) for g in gains), IIDJointLaw([1.0], (1,) * len(gains)))


class TestDiscounting:
    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("horizon", [10, 1000])
    def test_weight_normalization(self, lam, horizon):
        total = discount_weights(horizon, lam).sum()
        closed = -math.expm1(horizon * math.log1p(-lam))
        assert abs(total - closed) <= 1e-12

    def test_first_stage_weight(self):
        assert discounted_utility([1.0, 0.0, 0.0], 0.5) == pytest.approx(0.5)

    def test_two_stage_example(self):
        assert discounted_utility([1.0, 1.0], 0.5) == pytest.approx(0.75)

    def test_constant_sequence_approaches_level(self):
        v = discounted_utility(np.full(5000, 3.0), 0.01)
        assert abs(v - 3.0) <= 3.0 * (1 - 0.01) ** 5000 + 1e-12

    def test_matrix_input(self):
        u = np.array([[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_allclose(discounted_utility(u, 0.5), [0.75, 1.5])

    def test_truncation_bound(self):
        u = np.array([1.0, 4.0, 2.0])
        assert truncation_bound(u, 0.5) == pytest.approx(0.5**3 * 4.0)

    def test_lam_validated(self):
        with pytest.raises(ValueError):
            discount_weights(10, 1.0)
        with pytest.raises(ValueError):
            EngineConfig(horizon=10, lam=0.0, seed=1)

    @pytest.mark.parametrize("horizon", [10.5, 10.0, True, False, np.float64(3.0), np.bool_(True)])
    def test_non_integer_horizon_refused(self, horizon):
        # 10.5 was built and failed in run_game with a numpy casting
        # TypeError; True played one stage
        with pytest.raises(ValueError, match="horizon must be an integer"):
            EngineConfig(horizon=horizon, lam=0.5, seed=1)

    @pytest.mark.parametrize("field,value", [
        ("player", 1.5), ("player", 1.0), ("player", True),
        ("start", 2.5), ("start", 2.0), ("start", True),
    ])
    def test_non_integer_deviation_refused(self, field, value):
        # these were built and failed later with an IndexError or TypeError
        spec = {"player": 1, "start": 2, field: value}
        with pytest.raises(ValueError, match="must be an integer"):
            DeviationSpec(**spec)

    def test_numpy_integer_inputs_accepted(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        dev = DeviationSpec(player=np.int64(1), start=np.int32(3))
        got = run_game(params, model, OPERATING_POINT,
                       EngineConfig(horizon=np.int64(20), lam=0.5, seed=2, deviation=dev))
        want = run_game(params, model, OPERATING_POINT,
                        EngineConfig(horizon=20, lam=0.5, seed=2,
                                     deviation=DeviationSpec(player=1, start=3)))
        assert got.discounted.tobytes() == want.discounted.tobytes()
        assert got.punishment_stage == want.punishment_stage

    @pytest.mark.parametrize("seed,match", [
        (True, "seed must be an integer"), (False, "seed must be an integer"),
        (np.bool_(True), "seed must be an integer"), (1.5, "seed must be an integer"),
        (1.0, "seed must be an integer"), (np.float64(2.0), "seed must be an integer"),
        (-1, "seed must be >= 0"), (np.int64(-3), "seed must be >= 0"),
    ])
    def test_bad_seed_refused(self, seed, match):
        # True played as seed 1 and was recorded as True; 1.5 failed late
        # with numpy's TypeError
        with pytest.raises(ValueError, match=match):
            EngineConfig(horizon=10, lam=0.5, seed=seed)
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        with pytest.raises(ValueError, match=match):
            _draw_states(params, model, 5, seed)

    def test_bad_seed_refused_by_the_estimator(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_expected_utility(params, model, NASH, 5, 2.5, 2)
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_expected_utilities(params, model, [NASH, BEST_USERS], 5, True, 2)

    def test_numpy_integer_seed_accepted(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        got = run_game(params, model, NASH, EngineConfig(horizon=20, lam=0.5, seed=np.uint32(7)))
        want = run_game(params, model, NASH, EngineConfig(horizon=20, lam=0.5, seed=7))
        assert got.discounted.tobytes() == want.discounted.tobytes()
        got = estimate_expected_utility(params, model, NASH, 20, np.int64(7), 2)
        want = estimate_expected_utility(params, model, NASH, 20, 7, 2)
        assert got.per_replicate.tobytes() == want.per_replicate.tobytes()


class TestRunGame:
    def test_single_stage_value(self):
        params = params_for(1, 0.1)
        model = single_state_model([1.0])
        cfg = EngineConfig(horizon=1, lam=0.9, seed=0)
        res = run_game(params, model, NASH, cfg)
        assert res.discounted[0] == pytest.approx(3.310914970542981, abs=1e-12)
        assert res.weight_sum == pytest.approx(0.9)

    def test_determinism_fast_path(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        cfg = EngineConfig(horizon=300, lam=0.1, seed=123)
        a = run_game(params, model, BEST_USERS, cfg)
        b = run_game(params, model, BEST_USERS, cfg)
        np.testing.assert_array_equal(a.discounted, b.discounted)
        np.testing.assert_array_equal(a.trace.powers, b.trace.powers)
        np.testing.assert_array_equal(a.trace.eta, b.trace.eta)

    def test_sequential_path_matches_fast_path(self):
        # the per-stage reference loop lives in tests/engine_oracle.py
        params = params_for(3, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 3)
        cfg = EngineConfig(horizon=200, lam=0.1, seed=9)
        fast = run_game(params, model, BEST_USERS, cfg)
        slow = run_game_oracle(params, model, BEST_USERS, cfg)
        np.testing.assert_allclose(fast.trace.powers, slow.trace.powers, atol=1e-15)
        np.testing.assert_allclose(fast.discounted, slow.discounted, atol=1e-13)
        assert slow.punishment_stage is None

    def test_trace_replay_matches_selection(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        cfg = EngineConfig(horizon=500, lam=0.01, seed=77)
        res = run_game(params, model, BEST_USERS, cfg)
        tr = res.trace
        assert tr.t.size == 500
        for t in range(tr.t.size):
            offline = np.zeros(2, dtype=bool)
            offline[select_best_users(params, tr.eta[t])] = True
            np.testing.assert_array_equal(tr.recommended[t], offline)

    def test_trace_self_consistency(self):
        # utilities and SINRs recompute from (eta, powers) via raw formulas
        params = params_for(3, 0.2, sigma2=2.0)
        model = build_model(TwoStateSpec(0.5, 2.0, 0.4), 3)
        cfg = EngineConfig(horizon=300, lam=0.05, seed=5)
        res = run_game(params, model, BEST_USERS, cfg)
        tr = res.trace
        received = tr.powers * tr.eta
        denom = received.sum(axis=1, keepdims=True) - received + 2.0
        sinr_oracle = received / denom
        np.testing.assert_allclose(tr.sinr, sinr_oracle, atol=1e-12)
        with np.errstate(divide="ignore"):
            util_oracle = np.where(
                tr.powers > 0, np.exp(-0.2 / np.where(sinr_oracle > 0, sinr_oracle, 1.0)) / np.where(tr.powers > 0, tr.powers, 1.0), 0.0
            )
        np.testing.assert_allclose(tr.utility, util_oracle, atol=1e-12)

    # Rayleigh-16: 256 joint states at K = 2 and 4096 at K = 3 play on the
    # visited states, K = 5 one row per stage; 12 000 stages are thinned
    TRACE_RUNS = {
        "table": (2, 3000, None),
        "per_stage": (5, 2000, None),
        "thinned": (3, 12_000, None),
        "deviating": (2, 3000, DeviationSpec(1, 500, "permanent")),
    }

    @pytest.mark.parametrize("kind", [NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5),
                                      BEST_USERS], ids=lambda kind: kind.label)
    @pytest.mark.parametrize("run", list(TRACE_RUNS))
    def test_trace_recomputes_from_its_powers(self, run, kind):
        k, horizon, dev = self.TRACE_RUNS[run]
        params = params_for(k, 0.1, sigma2=1.3)
        model = build_model(TruncatedRayleighSpec(bins=16), k)
        cfg = EngineConfig(horizon=horizon, lam=0.05, seed=8, deviation=dev)
        res = run_game(params, model, kind, cfg)
        tr = res.trace
        assert tr.t.size == (120 if run == "thinned" else horizon)
        assert tr.sinr.tobytes() == sinr(params, tr.eta, tr.powers).tobytes()
        want = utility(params, tr.eta, tr.powers)
        if dev is None:  # closed-form utilities
            np.testing.assert_allclose(tr.utility, want, rtol=1e-13, atol=0)
        else:  # the SINR route, as before utilities had a closed form
            assert tr.utility.tobytes() == want.tobytes()
            assert res.discounted.tobytes() == discounted_utility(want, cfg.lam).tobytes()

    def test_discounted_below_max_stage_utility(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        cfg = EngineConfig(horizon=400, lam=0.2, seed=3)
        res = run_game(params, model, OPERATING_POINT, cfg)
        assert np.all(res.discounted >= 0)
        assert np.all(res.discounted <= res.trace.utility.max() + 1e-12)

    def test_trace_thinning(self):
        params = params_for(1, 0.1)
        model = single_state_model([1.0])
        res = run_game(params, model, NASH, EngineConfig(horizon=20_000, lam=0.1, seed=1))
        assert res.trace.t.size == 200
        assert res.trace.t[0] == 1 and res.trace.t[1] == 101
        res_full = run_game(params, model, NASH, EngineConfig(horizon=100, lam=0.1, seed=1))
        assert res_full.trace.t.size == 100

    def test_forced_initial_state(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        cfg = EngineConfig(horizon=5, lam=0.5, seed=2, initial_state=(1, 1))
        res = run_game(params, model, OPERATING_POINT, cfg)
        np.testing.assert_allclose(res.trace.eta[0], [4.0, 4.0])

    def test_dimension_checks(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 3)
        cfg = EngineConfig(horizon=5, lam=0.5, seed=2)
        with pytest.raises(ValueError):
            run_game(params, model, NASH, cfg)
        with pytest.raises(ValueError):
            run_game(params_for(3, 0.1), model, [NASH, NASH], cfg)


class TestPunishment:
    def test_no_false_positives_over_seeded_runs(self):
        params = params_for(3, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 3)
        for seed in range(1000):
            # a deviation past the horizon turns the monitor on over compliant play
            cfg = EngineConfig(horizon=20, lam=0.1, seed=seed,
                               deviation=DeviationSpec(0, start=21))
            res = run_game(params, model, BEST_USERS, cfg)
            assert res.punishment_stage is None
            assert not res.trace.punishing.any()

    def test_one_shot_deviation_detected_same_stage(self):
        # single deterministic state (4, 1), a=0.5: only player 0 is selected
        params = params_for(2, 0.5)
        model = single_state_model([4.0, 1.0])
        cfg = EngineConfig(
            horizon=8, lam=0.2, seed=0,
            deviation=DeviationSpec(player=1, start=3, mode="one_shot"),
        )
        res = run_game(params, model, BEST_USERS, cfg)
        tr = res.trace
        assert res.punishment_stage == 3
        assert tr.powers[1, 1] == 0.0  # compliant: silent when not recommended
        assert tr.powers[2, 1] > 0.0  # the deviation stage
        assert not tr.punishing[2].any() and tr.punishing[3].all()
        # from stage 4 on everyone plays the one-shot equilibrium profile
        expected = params.nash_scale() / np.array([4.0, 1.0])
        for t in range(3, 8):
            np.testing.assert_allclose(tr.powers[t], expected, atol=1e-12)

    def test_deviation_best_response_value(self):
        # deviator best-responds to the compliant plan: beta* (I + sigma2) / eta
        params = params_for(2, 0.5)
        model = single_state_model([4.0, 1.0])
        cfg = EngineConfig(
            horizon=4, lam=0.2, seed=0,
            deviation=DeviationSpec(player=1, start=3, mode="one_shot"),
        )
        res = run_game(params, model, BEST_USERS, cfg)
        interference = 0.5  # player 0 at the k=1 level: received power = a sigma2
        assert res.trace.powers[2, 1] == pytest.approx(0.5 * (interference + 1.0) / 1.0)

    def test_permanent_deviation_converges_to_equilibrium_profile(self):
        params = params_for(2, 0.5)
        model = single_state_model([4.0, 1.0])
        cfg = EngineConfig(
            horizon=10, lam=0.2, seed=0,
            deviation=DeviationSpec(player=1, start=2, mode="permanent"),
        )
        res = run_game(params, model, BEST_USERS, cfg)
        assert res.punishment_stage == 2
        expected = params.nash_scale() / np.array([4.0, 1.0])
        for t in range(2, 10):
            np.testing.assert_allclose(res.trace.powers[t], expected, atol=1e-12)

    def test_mixed_kinds_trigger_monitoring(self):
        # a selfish player looks like a deviator to selection players
        params = params_for(2, 0.1)
        model = single_state_model([1.0, 1.0])
        cfg = EngineConfig(horizon=6, lam=0.2, seed=0)
        res = run_game(params, model, [BEST_USERS, NASH], cfg)
        assert res.punishment_stage == 1

    def test_unmonitored_kinds_never_punish(self):
        # time sharing carries no deviation alarm
        params = params_for(2, 0.1)
        model = single_state_model([1.0, 1.0])
        cfg = EngineConfig(horizon=6, lam=0.2, seed=0)
        res = run_game(params, model, [TIME_SHARING, NASH], cfg)
        assert res.punishment_stage is None

    def test_social_optimum_monitoring_is_self_consistent(self):
        from powergame.strategies import SOCIAL_OPTIMUM

        params = params_for(2, 0.2)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        cfg = EngineConfig(horizon=25, lam=0.2, seed=5, deviation=DeviationSpec(0, start=26))
        res = run_game(params, model, SOCIAL_OPTIMUM, cfg)
        assert res.punishment_stage is None
        assert res.trace.utility.sum() > 0

    def test_social_optimum_solved_once_per_joint_state(self, monkeypatch):
        # K = 3 plans on the 8 joint states the path visits
        self._assert_each_state_solved_once(monkeypatch, 3)

    def test_social_optimum_solved_once_per_repeated_row(self, monkeypatch):
        # K = 5 (32 joint states, more than the horizon) plans on the path,
        # whose rows repeat
        self._assert_each_state_solved_once(monkeypatch, 5)

    @staticmethod
    def _assert_each_state_solved_once(monkeypatch, k):
        from powergame import oneshot, strategies
        from powergame.strategies import SOCIAL_OPTIMUM

        solved = []  # one entry per row passed in, whatever the number of calls

        def counted(params, eta, grid_size=12):
            solved.extend(row.tobytes() for row in np.atleast_2d(eta))
            return solve(params, eta, grid_size)

        solve = oneshot.social_optimum
        monkeypatch.setattr(strategies, "social_optimum", counted)
        monkeypatch.setattr(oneshot, "social_optimum", counted)
        params = params_for(k, 0.2)
        model = build_model(TwoStateSpec(1.0, 4.0), k)
        cfg = EngineConfig(horizon=30, lam=0.2, seed=5,
                           deviation=DeviationSpec(1, start=10, mode="one_shot"))
        res = run_game(params, model, SOCIAL_OPTIMUM, cfg)
        states = {row.tobytes() for row in res.trace.eta}
        assert len(states) < cfg.horizon
        assert sorted(solved) == sorted(states)  # each visited state exactly once

    def test_punishing_flags_monotone(self):
        params = params_for(2, 0.5)
        model = single_state_model([4.0, 1.0])
        cfg = EngineConfig(
            horizon=12, lam=0.2, seed=0,
            deviation=DeviationSpec(player=1, start=5, mode="one_shot"),
        )
        res = run_game(params, model, BEST_USERS, cfg)
        flags = res.trace.punishing[:, 0].astype(int)
        assert np.all(np.diff(flags) >= 0)


class TestEstimates:
    def test_deterministic_game_zero_stderr(self):
        params = params_for(1, 0.1)
        model = single_state_model([1.0])
        est = estimate_expected_utility(params, model, NASH, 50, seed=4, replicates=3)
        assert est.mean[0] == pytest.approx(10 * math.exp(-1), abs=1e-12)
        assert est.stderr[0] == pytest.approx(0.0, abs=1e-14)

    def test_equal_power_profile_two_state_mean(self):
        # closed form E[u_i] = E[eta_i] e^{-(1 + a)} / (a sigma2) = 25 e^{-1.1}
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        est = estimate_expected_utility(
            params, model, OPERATING_POINT, 20_000, seed=6, replicates=10
        )
        target = 25 * math.exp(-1.1)
        assert target == pytest.approx(8.321777092451988, abs=1e-12)
        assert np.all(np.abs(est.mean - target) <= 4 * est.stderr + 1e-9)

    def test_time_sharing_matches_enumeration_oracle(self):
        # oracle: enumerate the 4 joint states; winner (ties to player 0)
        # transmits at beta* sigma2 / eta
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        states = list(itertools.product([1.0, 4.0], repeat=2))
        e_oracle = np.zeros(2)
        for h in states:
            winner = 0 if h[0] >= h[1] else 1
            e_oracle[winner] += 0.25 * h[winner] * math.exp(-1) / 0.1
        np.testing.assert_allclose(
            e_oracle, [8.277287426357454, 3.6787944117144233], atol=1e-12
        )
        est = estimate_expected_utility(
            params, model, TIME_SHARING, 30_000, seed=8, replicates=10
        )
        assert np.all(np.abs(est.mean - e_oracle) <= 4 * est.stderr + 1e-9)

    def test_replicates_reproducible_individually(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        est = estimate_expected_utility(params, model, BEST_USERS, 200, seed=11, replicates=3)
        cfg = EngineConfig(horizon=200, lam=0.5, seed=11, spawn_key=(1,))
        res = run_game(params, model, BEST_USERS, cfg)
        np.testing.assert_array_equal(est.per_replicate[1], res.time_average)

    def test_common_seed_pairs_channel_draws(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        cfg = EngineConfig(horizon=100, lam=0.5, seed=13)
        a = run_game(params, model, BEST_USERS, cfg)
        b = run_game(params, model, NASH, cfg)
        np.testing.assert_array_equal(a.trace.eta, b.trace.eta)


PAIRED_KINDS = [NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5), BEST_USERS,
                SOCIAL_OPTIMUM, (BEST_USERS, OPERATING_POINT, NASH)]


def _paired_models():
    rows = np.random.default_rng(4).uniform(0.1, 1.0, (8, 8))
    markov = MarkovJointLaw(rows / rows.sum(axis=1, keepdims=True), (2, 2, 2))
    return {"rayleigh": build_model(TruncatedRayleighSpec(bins=8), 3),
            "markov": ChannelModel(((0.4, 2.5), (0.7, 1.3), (0.2, 5.0)), markov)}


class TestPairedEstimates:
    @pytest.mark.parametrize("name", ["rayleigh", "markov"])
    def test_each_estimate_equals_its_own_call(self, name):
        params = params_for(3, 0.1)
        model = _paired_models()[name]
        paired = estimate_expected_utilities(params, model, PAIRED_KINDS, 60, 21, 3, (2,))
        assert len(paired) == len(PAIRED_KINDS)
        for kinds, est in zip(PAIRED_KINDS, paired):
            alone = estimate_expected_utility(params, model, kinds, 60, 21, 3, (2,))
            for field in ("per_replicate", "mean", "stderr"):
                got, want = getattr(est, field), getattr(alone, field)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (kinds, field)
            for r in range(3):  # and each replicate is its own run_game
                cfg = EngineConfig(horizon=60, lam=0.5, seed=21, spawn_key=(2, r))
                run = run_game(params, model, kinds, cfg)
                assert est.per_replicate[r].tobytes() == run.time_average.tobytes()

    def test_first_listed_failure_raises(self):
        # caps [0.105, 0.05] on gains {1, 4}: the selfish equilibrium fails
        # whenever a gain is 1, equal received power only when player 1's is;
        # with this seed the first fails at replicate 0, the second at 2
        params = params_for(2, 0.1, p_max=[0.105, 0.05])
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        args = (1, 15)
        with pytest.raises(SaturationError):
            estimate_expected_utility(params, model, NASH, *args, replicates=1)
        estimate_expected_utility(params, model, OPERATING_POINT, *args, replicates=2)
        with pytest.raises(CapError) as alone:
            estimate_expected_utility(params, model, OPERATING_POINT, *args, replicates=4)

        with pytest.raises(CapError) as paired:
            estimate_expected_utilities(params, model, [OPERATING_POINT, NASH], *args, 4)
        assert str(paired.value) == str(alone.value)
        with pytest.raises(SaturationError):
            estimate_expected_utilities(params, model, [NASH, OPERATING_POINT], *args, 4)
        with pytest.raises(CapError):
            estimate_expected_utilities(
                params, model, [BEST_USERS, OPERATING_POINT, NASH], *args, 4)

    def test_replicates_validated(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        with pytest.raises(ValueError):
            estimate_expected_utilities(params, model, [NASH, BEST_USERS], 10, 0, 0)

    @pytest.mark.parametrize("horizon,replicates,name", [
        (10.5, 2, "horizon"), (True, 2, "horizon"), (np.float64(10.0), 2, "horizon"),
        (10, 2.5, "replicates"), (10, True, "replicates"), (10, 2.0, "replicates"),
    ])
    def test_non_integer_counts_refused(self, horizon, replicates, name):
        # a float horizon used to play its floor, a float replicate count
        # failed in range() with a bare TypeError
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            estimate_expected_utility(params, model, NASH, horizon, 0, replicates)

    def test_numpy_integer_counts_accepted(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        got = estimate_expected_utility(params, model, NASH, np.int64(10), 0, np.int32(2))
        want = estimate_expected_utility(params, model, NASH, 10, 0, 2)
        assert got.per_replicate.tobytes() == want.per_replicate.tobytes()


class TestErgodicAndInitialState:
    def test_time_average_matches_state_enumeration(self):
        # oracle: exact expectation by enumerating the product state space
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0, 0.3), 2)
        gains, probs = [1.0, 4.0], [0.7, 0.3]
        e_oracle = np.zeros(2)
        for (i, gi), (j, gj) in itertools.product(enumerate(gains), repeat=2):
            # all-player equal-received-power profile: u = eta e^{-(1+a)}/(a s2)
            e_oracle += (
                probs[i] * probs[j]
                * np.array([gi, gj]) * math.exp(-1.1) / 0.1
            )
        est = estimate_expected_utility(
            params, model, OPERATING_POINT, 20_000, seed=21, replicates=10
        )
        assert np.all(np.abs(est.mean - e_oracle) <= 4 * est.stderr + 1e-9)

    def test_discounted_utility_independent_of_initial_state(self):
        # small discount factor: forced initial states must agree within noise
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        reps = 16
        means, ses = [], []
        for initial in itertools.product(range(2), repeat=2):
            vals = []
            for r in range(reps):
                cfg = EngineConfig(
                    horizon=6000, lam=1e-3, seed=100 + r, initial_state=initial
                )
                vals.append(run_game(params, model, BEST_USERS, cfg).discounted)
            vals = np.array(vals)
            means.append(vals.mean(axis=0))
            ses.append(vals.std(axis=0, ddof=1) / math.sqrt(reps))
        for a, b in itertools.combinations(range(4), 2):
            gap = np.abs(means[a] - means[b])
            tol = 3 * np.sqrt(ses[a] ** 2 + ses[b] ** 2)
            assert np.all(gap <= tol)


@pytest.fixture
def alarms(monkeypatch):
    """(whether any player is monitored, whether the alarm fired) for
    every ``detect_deviation`` call the engine makes."""
    calls = []
    detect = engine.detect_deviation

    def spy(expected, realized):
        hits = detect(expected, realized)
        calls.append((bool(np.isfinite(expected).any()), bool(hits.any())))
        return hits

    monkeypatch.setattr(engine, "detect_deviation", spy)
    return calls


def test_a_compliant_social_optimum_run_is_monitored_and_never_punished(alarms):
    params = params_for(3, 0.1)
    model = build_model(TruncatedRayleighSpec(bins=16), 3)
    res = run_game(params, model, SOCIAL_OPTIMUM, EngineConfig(horizon=40, lam=0.1, seed=4))
    assert res.punishment_stage is None and not res.trace.punishing.any()
    estimate_expected_utility(params, model, SOCIAL_OPTIMUM, 40, seed=4, replicates=2)
    assert alarms == [(True, False)] * 3


@pytest.mark.parametrize("kind", [OPERATING_POINT, BEST_USERS])
def test_a_plan_over_a_cap_is_monitored_and_raises_the_first_stage_error(kind, alarms):
    # at p_max 0.05 every player with gain 1 needs 0.1 W; on this path the
    # first such stage names player 1, the first such joint state player 0
    params = params_for(3, 0.1, p_max=0.05)
    model = build_model(TwoStateSpec(1.0, 4.0), 3)
    want = "equal-received-power level 0.1 exceeds player 1's cap"
    with pytest.raises(CapError) as got:
        run_game(params, model, kind, EngineConfig(horizon=50, lam=0.1, seed=1, spawn_key=(0,)))
    assert type(got.value) is CapError and str(got.value) == want
    with pytest.raises(CapError) as got:
        estimate_expected_utility(params, model, kind, 50, seed=1, replicates=1)
    assert type(got.value) is CapError and str(got.value) == want
    assert alarms == [(True, False)] * 2


@pytest.mark.parametrize("kinds", [
    (TIME_SHARING,) * 3,
    (BEST_USERS, threshold(0.5), SOCIAL_OPTIMUM),
], ids=["time_sharing", "mixed"])
def test_a_silent_player_realizes_its_predicted_zero_sinr_exactly(kinds):
    # why ``_play`` masks no alarm by power: a silent player that does not
    # deviate plays its own plan's zero, so it realizes the 0.0 SINR its
    # alarm predicts, also while another player deviates
    params = params_for(3, 0.1)
    model = build_model(TruncatedRayleighSpec(bins=16), 3)
    eta, rows = _draw_states(params, model, 200, 7)
    assert rows is None
    planned, _, expected = engine._plan(params, kinds, eta)
    dev = DeviationSpec(player=0, mode="permanent")
    powers = engine._deviate(params, eta, planned, dev, slice(0, None))
    realized = engine._sinr(params, eta, powers)
    silent = planned == 0.0
    silent[:, dev.player] = False
    assert silent.any()
    assert np.all(realized[silent] == 0.0)
    assert np.all((expected[silent] == 0.0) | np.isnan(expected[silent]))
    assert not engine.detect_deviation(expected, realized)[silent].any()


def uniform_gains_model(k, bins):
    """``k`` players with ``bins`` gains each in [0.1, 10], all equally likely."""
    gains = np.geomspace(0.1, 10.0, bins)
    return ChannelModel((gains,) * k, IIDProductLaw([np.full(bins, 1.0 / bins)] * k))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("bins, per_stage", [(2, False), (512, True)],
                         ids=["visited_states", "per_stage"])
def test_closed_form_average_is_the_whole_path_mean_bit_for_bit(k, bins, per_stage):
    # the number of stages at and around the block edges: a block edge must
    # not change the order of the additions that ``mean`` makes
    model = uniform_gains_model(k, bins)
    params = params_for(k, 0.1)
    step = _PLAY_BLOCK_ENTRIES // k
    for n in (step - 1, step, step + 1, 3 * step + 7):
        eta, rows = _draw_states(params, model, n, 2300 + k)
        assert (rows is None) == per_stage
        for kind in (NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5), BEST_USERS):
            kinds = (kind,) * k
            want = _play(params, kinds, eta, rows)[4].mean(axis=0)
            got = _closed_form_average(params, kinds, eta, rows)
            assert got.tobytes() == want.tobytes(), (n, kind)


def test_closed_form_average_gives_up_where_it_cannot_score(monkeypatch):
    params = params_for(2, 0.1, p_max=1.0)
    step = _PLAY_BLOCK_ENTRIES // 2
    eta = np.ones((3 * step // 2, 2))
    eta[-1, 1] = 0.05  # the operating point needs 2 W here, in the second block
    scored = []
    closed_form = engine._closed_form

    def spy(params, kinds, gains, out=None):
        scored.append(gains.shape[0])
        return closed_form(params, kinds, gains, out)

    monkeypatch.setattr(engine, "_closed_form", spy)
    assert _closed_form_average(params, (OPERATING_POINT,) * 2, eta, None) is None
    assert scored == [step, step // 2]
    # mixed rules and the social optimum are played from the first block on
    for kinds in ((OPERATING_POINT, NASH), (SOCIAL_OPTIMUM,) * 2):
        scored.clear()
        assert _closed_form_average(params, kinds, eta[:-1], None) is None
        assert scored == [step]
    # one player: ``mean`` sums its column pairwise, so the path is played whole
    scored.clear()
    assert _closed_form_average(params_for(1, 0.1), (NASH,), eta[:, :1], None) is None
    assert scored == []


def test_trace_csv_format():
    params = params_for(2, 0.1)
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    res = run_game(params, model, BEST_USERS, EngineConfig(horizon=3, lam=0.5, seed=0))
    text = trace_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "t,player,eta,power,sinr,utility,recommended,punishing"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert float(first[2]) in (1.0, 4.0)


def _markov_model(dims, seed):
    """A sticky Markov law over ``dims``, as the benchmark's Markov models."""
    rng = np.random.default_rng(seed)
    size = math.prod(dims)
    rows = rng.uniform(0.1, 1.0, (size, size))
    rows /= rows.sum(axis=1, keepdims=True)
    gains = tuple(np.sort(rng.uniform(0.2, 5.0, d)) for d in dims)
    return ChannelModel(gains, MarkovJointLaw(0.5 * np.eye(size) + 0.5 * rows, dims))


def _mu_file_model(path):
    """An ``IIDJointLaw`` over 3 x 5 joint states, loaded from a ``mu`` file."""
    mu = np.random.default_rng(5).uniform(0.2, 1.0, 15)
    save_model(ChannelModel(([0.5, 1.0, 2.0], [0.3, 0.6, 1.2, 2.4, 4.8]),
                            IIDJointLaw(mu / mu.sum(), (3, 5))), path)
    return load_model(path)


DRAW_MODELS = {
    "rayleigh16": lambda tmp: build_model(TruncatedRayleighSpec(bins=16), 2),
    "two_state_p03": lambda tmp: build_model(TwoStateSpec(1.0, 4.0, p_high=0.3), 4),
    "mu_file": lambda tmp: _mu_file_model(tmp / "mu.json"),
    "markov_16x16": lambda tmp: _markov_model((16, 16), 1),
    "markov_8x8x4": lambda tmp: _markov_model((8, 8, 4), 2),
    "markov_4x4x4x4": lambda tmp: _markov_model((4, 4, 4, 4), 3),
}


@pytest.mark.parametrize("name", DRAW_MODELS)
@pytest.mark.parametrize("initial", [None, "last", "middle"])
def test_draw_states_matches_the_per_player_route(name, initial, tmp_path):
    # the visited-state table is built from a flat draw; it must be the
    # table of the (N, K) path flattened, bit for bit, with and without a
    # forced first state, on both sides of the joint size
    model = DRAW_MODELS[name](tmp_path)
    dims = model.law.dims
    if name in ("rayleigh16", "two_state_p03"):  # the dyadic draw, and the searched one
        assert (model.law._dyadic_bins is not None) == (name == "rayleigh16")
    if initial is not None:
        initial = tuple(d - 1 if initial == "last" else d // 2 for d in dims)
    params = params_for(len(dims), 0.1)
    size = model.joint_size
    for horizon in (1, size // 2, size - 1, size, size + 1, 4 * size):
        for seed in (0, 17):
            got = _draw_states(params, model, horizon, seed, (3,), initial)
            want = draw_states_oracle(params, model, horizon, seed, (3,), initial)
            assert (got[1] is None) == (want[1] is None) == (size > horizon)
            assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
            if got[1] is not None:
                assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
            if initial is not None:
                first = got[0][0 if got[1] is None else got[1][0]]
                assert first.tolist() == [g[i] for g, i in zip(model.gains, initial)]


@pytest.mark.parametrize("name", DRAW_MODELS)
@pytest.mark.parametrize("initial", [
    (0,), (0, 0, 0, 0, 0), (0, 99), (0, -1), (1.0, 0), (True, 0), (0.5, 1), 1.5, "01",
], ids=["short", "long", "over", "negative", "float", "bool", "fraction", "scalar", "string"])
def test_a_bad_initial_state_raises_the_same_error_on_both_routes(name, initial, tmp_path):
    model = DRAW_MODELS[name](tmp_path)
    k = model.n_players
    if isinstance(initial, tuple) and len(initial) == 2 and k > 2:
        initial = initial + (0,) * (k - 2)  # the same fault at the model's K
    params = params_for(k, 0.1)
    messages = set()
    for horizon in (model.joint_size - 1, model.joint_size):  # per stage, then the table
        cfg = EngineConfig(horizon=horizon, lam=0.5, seed=4, initial_state=initial)
        with pytest.raises(ValueError, match="invalid initial state") as exc:
            run_game(params, model, NASH, cfg)
        messages.add(str(exc.value))
        for draw in (model.sample_path, model.sample_flat):
            with pytest.raises(ValueError, match="invalid initial state") as exc:
                draw(horizon, np.random.default_rng(4), initial)
            messages.add(str(exc.value))
    assert len(messages) == 1


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("run", ["closed_form", "monitored", "deviating"])
def test_time_average_is_the_trace_mean_bit_for_bit(k, run):
    # ``run_game`` averages with ``einsum`` for K >= 2; the full trace holds
    # every stage's utility, whose ``mean(axis=0)`` it must equal
    params = params_for(k, 0.1)
    kinds, deviation = (NASH,) * k, None
    if run == "monitored":
        kinds = (SOCIAL_OPTIMUM,) if k == 1 else tuple(
            (BEST_USERS, NASH, OPERATING_POINT)[i % 3] for i in range(k))
    elif run == "deviating":
        kinds, deviation = (OPERATING_POINT,) * k, DeviationSpec(0, 40, "permanent")
    for model in (build_model(TruncatedRayleighSpec(bins=16), k),
                  build_model(TwoStateSpec(1.0, 4.0, p_high=0.3), k)):
        for horizon in (1, 2, 999, _FULL_TRACE_MAX):
            if deviation is not None and horizon < deviation.start:
                continue
            cfg = EngineConfig(horizon=horizon, lam=0.1, seed=31 + k, deviation=deviation)
            res = run_game(params, model, kinds, cfg)
            assert res.trace.t.size == horizon
            want = res.trace.utility.mean(axis=0)
            assert res.time_average.tobytes() == want.tobytes(), (model.law.dims, horizon)


PAYOFF_MODELS = {
    # 16 joint states: the visited-state table from 16 stages on, one row per stage below
    "markov16": (lambda: _markov_model((4, 4), 7), (10, 600, _FULL_TRACE_MAX + 1)),
    "rayleigh16_k5": (lambda: build_model(TruncatedRayleighSpec(bins=16), 5), (10, 300)),
    "rayleigh16_k1": (lambda: build_model(TruncatedRayleighSpec(bins=16), 1), (10, 600)),
}
PAYOFF_RUNS = {
    "closed_form": (lambda k: (NASH,) * k, None),
    "one_shot": (lambda k: (BEST_USERS,) * k, DeviationSpec(0, 5, "one_shot")),
    "permanent": (lambda k: (OPERATING_POINT,) * k, DeviationSpec(0, 5, "permanent")),
    "mixed": (lambda k: tuple((BEST_USERS, NASH, threshold(0.5))[i % 3] for i in range(k)),
              DeviationSpec(0, 5, "one_shot")),
    "social_optimum": (lambda k: (SOCIAL_OPTIMUM,) * k, None),
}


@pytest.mark.parametrize("name", PAYOFF_MODELS)
@pytest.mark.parametrize("run", PAYOFF_RUNS)
def test_payoffs_are_run_games_bit_for_bit(name, run):
    build, horizons = PAYOFF_MODELS[name]
    model = build()
    k = model.n_players
    params = params_for(k, 0.1)
    kinds, deviation = PAYOFF_RUNS[run]
    for horizon in horizons:
        for seed, spawn_key in ((3, ()), (8, (1, 2))):
            cfg = EngineConfig(horizon=horizon, lam=0.05, seed=seed, spawn_key=spawn_key,
                               deviation=deviation)
            res = run_game(params, model, kinds(k), cfg)
            discounted, average = engine._payoffs(params, model, kinds(k), cfg)
            for got, want in ((discounted, res.discounted), (average, res.time_average)):
                assert got.dtype == want.dtype and got.shape == want.shape == (k,)
                assert got.tobytes() == want.tobytes(), (horizon, seed)


@pytest.mark.parametrize("kind", [OPERATING_POINT, BEST_USERS])
@pytest.mark.parametrize("deviation", [None, DeviationSpec(2, 3, "one_shot")])
def test_payoffs_raise_what_run_game_raises_for_a_plan_over_a_cap(kind, deviation):
    params = params_for(3, 0.1, p_max=0.05)
    model = build_model(TwoStateSpec(1.0, 4.0), 3)
    for horizon in (5, 50):  # one row per stage, then the visited-state table
        cfg = EngineConfig(horizon=horizon, lam=0.1, seed=1, spawn_key=(0,), deviation=deviation)
        with pytest.raises(CapError) as want:
            run_game(params, model, kind, cfg)
        with pytest.raises(CapError) as got:
            engine._payoffs(params, model, kind, cfg)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("spawn_key,match", [
    ((True,), "spawn key entry must be an integer"),
    ((np.bool_(False),), "spawn key entry must be an integer"),
    ((1.5,), "spawn key entry must be an integer"),
    ((0, 2.0), "spawn key entry must be an integer"),
    ((0, "1"), "spawn key entry must be an integer"),
    ((-1,), "spawn key entry must be >= 0"),
    ((0, np.int64(-2)), "spawn key entry must be >= 0"),
    (3, "spawn key must be a tuple of integers >= 0"),
    ([0, 1], "spawn key must be a tuple of integers >= 0"),
    (None, "spawn key must be a tuple of integers >= 0"),
])
def test_a_bad_spawn_key_is_refused(spawn_key, match):
    # (True,) played as spawn 1 and was recorded as (True,); (1.5,) failed
    # at the draw with numpy's TypeError, and 3 with "'int' object is not iterable"
    with pytest.raises(ValueError, match=match):
        EngineConfig(horizon=10, lam=0.5, seed=1, spawn_key=spawn_key)
    params = params_for(2, 0.1)
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    with pytest.raises(ValueError, match=match):
        _draw_states(params, model, 5, 1, spawn_key)


@pytest.mark.parametrize("prefix,match", [
    ((True,), "spawn prefix entry must be an integer"),
    ((1.5,), "spawn prefix entry must be an integer"),
    ((-1,), "spawn prefix entry must be >= 0"),
    ([0], "spawn prefix must be a tuple of integers >= 0"),
])
def test_a_bad_spawn_prefix_is_refused_by_the_estimator(prefix, match):
    params = params_for(2, 0.1)
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    with pytest.raises(ValueError, match=match):
        estimate_expected_utility(params, model, NASH, 5, 2, 2, spawn_prefix=prefix)


def test_numpy_integer_spawn_key_accepted():
    params = params_for(2, 0.1)
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    got = run_game(params, model, NASH, EngineConfig(horizon=20, lam=0.5, seed=7,
                                                     spawn_key=(np.int64(1), np.uint8(2))))
    want = run_game(params, model, NASH, EngineConfig(horizon=20, lam=0.5, seed=7,
                                                      spawn_key=(1, 2)))
    assert got.discounted.tobytes() == want.discounted.tobytes()
    got = estimate_expected_utility(params, model, NASH, 20, 7, 2, spawn_prefix=(np.int32(4),))
    want = estimate_expected_utility(params, model, NASH, 20, 7, 2, spawn_prefix=(4,))
    assert got.per_replicate.tobytes() == want.per_replicate.tobytes()
