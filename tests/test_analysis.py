import itertools
import math

import numpy as np
import pytest

from analysis_oracle import punished_utilities_oracle
from oneshot_oracle import power_grid_oracle
from powergame import analysis, channels, engine
from powergame.analysis import (
    config_partition,
    dominance_report,
    expected_utilities_exact,
    feasible_region_2p,
    joint_state_table,
    lambda_max,
    minmax_levels,
)
from powergame.channels import (
    IIDJointLaw,
    MarkovJointLaw,
    ChannelModel,
    TruncatedRayleighSpec,
    TwoStateSpec,
    build_model,
    stationary_distribution,
)
from powergame.efficiency import ExponentialEfficiency
from powergame.engine import estimate_expected_utilities, estimate_expected_utility
from powergame.errors import CapError, ModelError, SaturationError
from powergame.geometry import point_in_convex_polygon
from powergame.oneshot import GameParams, utility
from powergame.strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    compliant_profile,
    threshold,
)


def params_for(k, a, sigma2=1.0, p_max=np.inf, rates=1.0):
    return GameParams(k, ExponentialEfficiency(a), rates=rates, sigma2=sigma2, p_max=p_max)


def single_state_model(gains):
    return ChannelModel(tuple((float(g),) for g in gains), IIDJointLaw([1.0], (1,) * len(gains)))


def fig3_like():
    params = params_for(2, 0.5, p_max=5.0)
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    return params, model


def per_stage_gains(model, horizon, seed):
    """The gains of every stage of the path seeded by ``seed``, drawn the
    way the analysis drew them before it used the engine's draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return model.gain_matrix(model.sample_path(horizon, rng))


class TestMinmax:
    def test_single_player_is_solo_optimum(self):
        params = params_for(1, 0.1)
        model = single_state_model([1.0])
        assert minmax_levels(params, model)[0] == pytest.approx(
            10 * math.exp(-1), abs=1e-12
        )

    def test_symmetric_pair_with_unit_caps(self):
        params = params_for(2, 0.1, p_max=1.0)
        model = single_state_model([1.0, 1.0])
        levels = minmax_levels(params, model)
        # e^{-1} / (0.1 * (1 + 1)): opponent jams at 1 W over unit gain
        np.testing.assert_allclose(levels, math.exp(-1) / 0.2, atol=1e-12)

    def test_two_state_matches_enumeration_oracle(self):
        params = params_for(2, 0.1, p_max=1.0)
        model = build_model(TwoStateSpec(1.0, 4.0, 0.3), 2)
        # oracle: probability-weighted per-state closed forms, written out
        levels = np.zeros(2)
        gains, probs = [1.0, 4.0], [0.7, 0.3]
        for (i, gi), (j, gj) in itertools.product(enumerate(gains), repeat=2):
            pr = probs[i] * probs[j]
            for me, (g_me, g_op) in enumerate([(gi, gj), (gj, gi)]):
                interference = 1.0 * g_op
                want = 0.1 * (interference + 1.0) / g_me
                if want <= 1.0:
                    u = math.exp(-1) * g_me / (0.1 * (interference + 1.0))
                else:
                    s = 1.0 * g_me / (interference + 1.0)
                    u = math.exp(-0.1 / s) / 1.0
                levels[me] += pr * u
        np.testing.assert_allclose(minmax_levels(params, model), levels, atol=1e-12)

    def test_unbounded_opponent_caps_drive_level_to_zero(self):
        params = params_for(2, 0.1)  # caps default to inf
        model = single_state_model([1.0, 1.0])
        np.testing.assert_allclose(minmax_levels(params, model), 0.0, atol=1e-300)

    def test_inner_maximum_beats_grid_search(self):
        params = params_for(3, 0.2, p_max=2.0)
        model = single_state_model([0.7, 1.3, 2.1])
        levels = minmax_levels(params, model)
        eta = np.array([0.7, 1.3, 2.1])
        for i in range(3):
            grid = np.linspace(1e-6, 2.0, 4001)
            jam = np.full(3, 2.0)
            best = -np.inf
            for p in grid:
                prof = jam.copy()
                prof[i] = p
                best = max(best, utility(params, eta, prof, i))
            assert levels[i] >= best - 1e-9

    def test_jamming_is_the_worst_interference(self):
        # utility at the inner max is decreasing in opponents' powers
        params = params_for(2, 0.2, p_max=1.5)
        eta = np.array([1.0, 2.0])
        levels = minmax_levels(params, single_state_model(eta))
        for frac in (0.2, 0.5, 0.9):
            jam = np.array([0.0, 1.5 * frac])
            grid = np.linspace(1e-6, 1.5, 2001)
            best = max(
                utility(params, eta, np.array([p, jam[1]]), 0) for p in grid
            )
            assert best >= levels[0] - 1e-9

    def test_monte_carlo_fallback_for_large_joint_spaces(self):
        params = params_for(5, 0.1, p_max=10.0)
        model = build_model(TruncatedRayleighSpec(bins=16), 5)  # 16^5 joint states
        with pytest.raises(ModelError):
            joint_state_table(model)
        levels = minmax_levels(params, model, seed=3, samples=4000)
        assert levels.shape == (5,)
        assert np.all(levels > 0) and np.all(np.isfinite(levels))
        with pytest.raises(ValueError, match="horizon"):
            minmax_levels(params, model, seed=3, samples=0)

    @pytest.mark.parametrize(
        "params,model",
        [pytest.param(params_for(2, a, p_max=cap), build_model(TruncatedRayleighSpec(bins=16), 2),
                      id=f"rayleigh16-K2-a{a}-cap{cap}")
         for a in (0.1, 0.3, 0.5) for cap in (5.0, 20.0, np.inf)]
        + [pytest.param(*fig3_like(), id="fig3"),
           pytest.param(params_for(3, 0.1, p_max=2.0), build_model(TruncatedRayleighSpec(bins=6), 3),
                        id="rayleigh6-K3-cap2"),
           pytest.param(params_for(5, 0.1, p_max=2.0), build_model(TruncatedRayleighSpec(bins=6), 5),
                        id="rayleigh6-K5-cap2"),
           pytest.param(params_for(3, 0.2, p_max=[2.0, np.inf, 5.0]),
                        build_model(TruncatedRayleighSpec(bins=6), 3), id="one-infinite-cap")],
    )
    def test_matches_the_closed_form_oracle(self, params, model):
        _, gains, probs = joint_state_table(model)
        expected = probs @ punished_utilities_oracle(params, gains)
        # atol=0: a floor the oracle puts at 0 (an infinite opponent cap) must be exactly 0
        np.testing.assert_allclose(minmax_levels(params, model), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("k", [3, 5])
    def test_own_cap_binds_in_deep_fades(self, k):
        # the premise of the Rayleigh-6 oracle cases: the own cap binds in some
        # joint states and not in others
        params = params_for(k, 0.1, p_max=2.0)
        _, gains, _ = joint_state_table(build_model(TruncatedRayleighSpec(bins=6), k))
        want = 0.1 * (2.0 * (gains.sum(axis=1, keepdims=True) - gains) + 1.0) / gains
        assert np.any(want > 2.0) and np.any(want <= 2.0)

    def test_monte_carlo_path_matches_the_oracle_on_the_same_gains(self):
        params = params_for(5, 0.1, p_max=10.0)
        model = build_model(TruncatedRayleighSpec(bins=16), 5)  # 16^5 > 2^17 joint states
        gains = per_stage_gains(model, 2000, 7)
        expected = punished_utilities_oracle(params, gains).mean(axis=0)
        levels = minmax_levels(params, model, seed=7, samples=2000)
        np.testing.assert_allclose(levels, expected, rtol=1e-15, atol=0)

    def test_monte_carlo_fallback_gathers_a_visited_state_table(self, monkeypatch):
        # a joint space refused for enumeration but no larger than the
        # samples: the engine's draw returns the visited states and each
        # stage's row, and the floor is still the mean over the stages
        params = params_for(3, 0.1, p_max=10.0)
        model = build_model(TruncatedRayleighSpec(bins=6), 3)  # 216 joint states
        monkeypatch.setattr(channels, "_JOINT_CAP", 100)
        with pytest.raises(ModelError):
            joint_state_table(model)
        for samples in (216, 3000):
            table, rows = engine._draw_states(params, model, samples, 7)
            assert rows is not None and table.shape[0] <= 216
            gains = per_stage_gains(model, samples, 7)
            want = analysis._punished_utilities(params, gains).mean(axis=0)
            got = minmax_levels(params, model, seed=7, samples=samples)
            assert got.tobytes() == want.tobytes()
            np.testing.assert_allclose(
                got, punished_utilities_oracle(params, gains).mean(axis=0), rtol=1e-15, atol=0)

    def test_below_equilibrium_play(self):
        # punishment is at least as harsh as equilibrium play
        params = params_for(2, 0.5, p_max=5.0)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        levels = minmax_levels(params, model)
        nash_mean = expected_utilities_exact(params, model, NASH)
        assert np.all(levels <= nash_mean + 1e-12)


class TestExactExpectations:
    def test_matches_hand_enumeration_for_selection(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0, 0.3), 2)
        # oracle: enumerate states, apply the selection rule by hand
        coeff = {1: 1.0, 2: 2 * math.exp(-0.1)}  # proportional group welfare
        expect = np.zeros(2)
        gains, probs = [1.0, 4.0], [0.7, 0.3]
        for (i, gi), (j, gj) in itertools.product(enumerate(gains), repeat=2):
            pr = probs[i] * probs[j]
            eta = np.array([gi, gj])
            order = np.argsort(-eta, kind="stable")
            w1 = coeff[1] * eta[order[0]]
            w2 = coeff[2] * eta.sum() / 2.0 * 2.0 / 2.0  # e^{-a} * sum / ... keep raw
            w2 = math.exp(-0.1) * eta.sum()
            members = [order[0]] if w1 >= w2 else [0, 1]
            k = len(members)
            for m in members:
                # u = eta * exp(-(1 + a (k-1))) / (a sigma2)
                expect[m] += pr * eta[m] * math.exp(-(1 + 0.1 * (k - 1))) / 0.1
        got = expected_utilities_exact(params, model, BEST_USERS)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_large_joint_space_rejected(self):
        params = params_for(5, 0.1)
        model = build_model(TruncatedRayleighSpec(bins=16), 5)
        with pytest.raises(ModelError):
            expected_utilities_exact(params, model, NASH)


def former_exact(params, model, kind):
    """``expected_utilities_exact`` as it was before it played through the
    engine: the checked compliant profile scored by the public ``utility``."""
    _, gains, probs = joint_state_table(model)
    return probs @ utility(params, gains, compliant_profile(params, kind, gains)[0])


def rayleigh16_k2(a, p_max=np.inf):
    return params_for(2, a, p_max=p_max), build_model(TruncatedRayleighSpec(bins=16), 2)


EXACT_RULES = [NASH, OPERATING_POINT, TIME_SHARING, BEST_USERS, SOCIAL_OPTIMUM]


class TestExactThroughTheEngine:
    @pytest.mark.parametrize("kind", EXACT_RULES, ids=lambda kind: kind.label)
    @pytest.mark.parametrize("case", [
        pytest.param(fig3_like, id="fig3"),
        pytest.param(lambda: rayleigh16_k2(0.1), id="rayleigh16-a0.1"),
        pytest.param(lambda: rayleigh16_k2(0.5, 20.0), id="rayleigh16-a0.5-cap20"),
    ])
    def test_two_players_match_the_former_route_bit_for_bit(self, case, kind, monkeypatch):
        params, model = case()
        want = former_exact(params, model, kind)
        for name in ("compliant_profile", "utility"):  # the engine scores the rule
            monkeypatch.setattr(analysis, name, lambda *args, name=name: pytest.fail(name))
        assert expected_utilities_exact(params, model, kind).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", EXACT_RULES + [threshold(0.5)], ids=lambda kind: kind.label)
    @pytest.mark.parametrize("case", [
        pytest.param(fig3_like, id="fig3"),
        pytest.param(lambda: (params_for(3, 0.1),
                              build_model(TwoStateSpec(1.0, 4.0, 0.3), 3)), id="two_state-K3"),
        pytest.param(lambda: (params_for(4, 0.1, p_max=5.0),
                              build_model(TwoStateSpec(1.0, 4.0, 0.3), 4)), id="two_state-K4"),
        pytest.param(lambda: (params_for(3, 0.2, p_max=10.0),
                              build_model(TruncatedRayleighSpec(bins=6), 3)), id="rayleigh6-K3"),
        pytest.param(lambda: (params_for(4, 0.1),
                              build_model(TruncatedRayleighSpec(bins=4), 4)), id="rayleigh4-K4"),
    ])
    def test_more_players_and_threshold_match_the_former_route(self, case, kind):
        params, model = case()
        np.testing.assert_allclose(expected_utilities_exact(params, model, kind),
                                   former_exact(params, model, kind), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", EXACT_RULES + [threshold(0.5)], ids=lambda kind: kind.label)
    @pytest.mark.parametrize("case", [
        pytest.param(lambda: (params_for(3, 0.5), build_model(TwoStateSpec(1.0, 4.0), 3)),
                     id="saturated-K3"),
        pytest.param(lambda: (params_for(2, 0.5, p_max=0.3),
                              build_model(TwoStateSpec(1.0, 4.0), 2)), id="fig3-cap0.3"),
        pytest.param(lambda: rayleigh16_k2(0.5, 2.0), id="rayleigh16-cap2"),
        pytest.param(lambda: (params_for(3, 0.2, p_max=[0.5, 5.0, 1.0]),
                              build_model(TruncatedRayleighSpec(bins=6), 3)),
                     id="rayleigh6-K3-unequal-caps"),
    ])
    def test_caps_and_saturation_raise_what_they_raised(self, case, kind):
        params, model = case()
        try:
            want = former_exact(params, model, kind)
        except (CapError, SaturationError) as exc:
            with pytest.raises(type(exc)) as got:
                expected_utilities_exact(params, model, kind)
            assert str(got.value) == str(exc)
        else:
            # the selfish equilibrium is saturated or over a cap in every case
            assert kind != NASH
            np.testing.assert_allclose(expected_utilities_exact(params, model, kind), want,
                                       rtol=1e-15, atol=0)


class TestRegion:
    def test_single_state_region_is_the_cloud_hull(self):
        params = params_for(2, 0.5, p_max=5.0)
        model = single_state_model([1.0, 4.0])
        region = feasible_region_2p(params, model, grid_size=6)
        g0, g1 = region.state_grids[0]
        pts = []
        for p0 in g0:
            for p1 in g1:
                pts.append(utility(params, np.array([1.0, 4.0]), np.array([p0, p1])))
        from powergame.geometry import convex_hull

        oracle = convex_hull(pts)
        assert region.hull.shape == oracle.shape
        np.testing.assert_allclose(np.sort(region.hull, axis=0),
                                   np.sort(oracle, axis=0), atol=1e-12)

    def test_equals_exhaustive_profile_enumeration_small(self):
        params = params_for(2, 0.5, p_max=5.0)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        region = feasible_region_2p(params, model, grid_size=3)
        _, gains, probs = joint_state_table(model)
        # oracle: every pure stationary state-feedback profile = one action
        # pair per state; expected utility is the prob-weighted sum
        per_state_points = []
        for s in range(gains.shape[0]):
            g0, g1 = region.state_grids[s]
            pts = [
                utility(params, gains[s], np.array([p0, p1]))
                for p0 in g0
                for p1 in g1
            ]
            per_state_points.append(pts)
        sums = [np.zeros(2)]
        for s, pts in enumerate(per_state_points):
            sums = [base + probs[s] * np.asarray(pt) for base in sums for pt in pts]
        from powergame.geometry import convex_hull

        oracle = convex_hull(sums)
        # vertex sets agree within 1e-9 (counts may differ by borderline
        # collinear points); support functions agree to float precision
        for v in oracle:
            assert np.min(np.linalg.norm(region.hull - v, axis=1)) <= 1e-9
        for v in region.hull:
            assert np.min(np.linalg.norm(oracle - v, axis=1)) <= 1e-9
        ang = np.linspace(0, 2 * np.pi, 721)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        gap = np.abs(
            (region.hull @ dirs.T).max(axis=0) - (oracle @ dirs.T).max(axis=0)
        ).max()
        assert gap <= 1e-9

    def test_markers_inside_hull_and_dominance(self):
        params, model = fig3_like()
        region = feasible_region_2p(params, model, grid_size=12)
        for name, point in region.markers.items():
            assert point_in_convex_polygon(point, region.hull, tol=1e-9), name
        bus = region.markers["best_users"]
        nash = region.markers["nash"]
        op = region.markers["operating_point"]
        assert np.all(bus >= nash - 1e-12)
        assert np.all(bus >= op - 1e-12)
        assert np.all(op >= nash - 1e-12)
        assert np.all(bus >= region.minmax - 1e-12)

    def test_fstar_within_hull_and_above_floors(self):
        params, model = fig3_like()
        region = feasible_region_2p(params, model, grid_size=10)
        assert region.fstar.shape[0] >= 3
        for v in region.fstar:
            assert point_in_convex_polygon(v, region.hull, tol=1e-9)
            assert np.all(v >= region.minmax - 1e-9)

    def test_requires_two_players(self):
        params = params_for(3, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 3)
        with pytest.raises(ValueError):
            feasible_region_2p(params, model)
        markov = ChannelModel(
            (np.array([1.0, 4.0]),),
            MarkovJointLaw([[0.9, 0.1], [0.5, 0.5]], dims=(2,)),
        )
        with pytest.raises(ValueError):
            feasible_region_2p(params_for(1, 0.1), markov)

    @pytest.mark.parametrize("seed", range(5))
    def test_markov_region_is_its_stationary_iid_region(self, seed):
        # the law does not depend on actions: only the stationary weights count
        rows = np.random.default_rng(seed).uniform(0.1, 1.0, (4, 4))
        matrix = rows / rows.sum(axis=1, keepdims=True)
        gains = (np.array([0.5, 2.0]), np.array([0.7, 1.5]))
        markov_law = MarkovJointLaw(matrix, (2, 2))
        iid_law = IIDJointLaw(stationary_distribution(markov_law), (2, 2))
        params = params_for(2, 0.5, p_max=5.0)
        got = feasible_region_2p(params, ChannelModel(gains, markov_law))
        want = feasible_region_2p(params, ChannelModel(gains, iid_law))
        for name in ("hull", "fstar", "minmax"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.markers.keys() == want.markers.keys()
        for name, point in got.markers.items():
            assert point.tobytes() == want.markers[name].tobytes(), name

    @pytest.mark.parametrize("p_max,grid_size", [
        (np.inf, 12), (20.0, 12), (50.0, 6), (20.0, 3), (np.inf, 2),
    ])
    def test_state_grids_are_the_welfare_grids(self, p_max, grid_size):
        params = params_for(2, 0.5, p_max=p_max)
        model = build_model(TruncatedRayleighSpec(1.0, 0.1, 10.0, 4), 2)
        region = feasible_region_2p(params, model, grid_size)
        for eta, grids in zip(region.state_gains, region.state_grids):
            for i in (0, 1):
                np.testing.assert_array_equal(
                    grids[i], power_grid_oracle(params, eta, i, grid_size))

    def test_cap_binding_in_some_joint_states_is_refused(self):
        # at p_max 5 the selfish equilibrium power is over the cap in 31 of
        # 256 joint states: the region grid and the nash marker both refuse
        params = params_for(2, 0.5, p_max=5.0)
        model = build_model(TruncatedRayleighSpec(), 2)
        with pytest.raises(SaturationError):
            expected_utilities_exact(params, model, NASH)
        with pytest.raises(SaturationError):
            feasible_region_2p(params, model)

    @pytest.mark.parametrize("p_max,players", [(5.0, "[0, 1]"), ([50.0, 5.0], "[1]")])
    def test_capped_rayleigh16_refusal_names_the_players(self, p_max, players):
        # the first joint state has both players' weakest gains, so it names
        # every player whose cap binds anywhere
        params = params_for(2, 0.5, p_max=p_max)
        model = build_model(TruncatedRayleighSpec(), 2)
        with pytest.raises(SaturationError) as err:
            feasible_region_2p(params, model)
        assert str(err.value) == f"equilibrium powers exceed caps for players {players}"

    def test_refusal_names_the_first_capped_state(self):
        # the cap binds for player 1 in joint state (0, 0) and for both
        # players in (1, 0); states run row-major, so (0, 0) is named
        gains = (np.array([2.0, 0.1]), np.array([0.1, 2.0]))
        model = ChannelModel(gains, IIDJointLaw(np.full(4, 0.25), (2, 2)))
        with pytest.raises(SaturationError) as err:
            feasible_region_2p(params_for(2, 0.5, p_max=5.0), model)
        assert str(err.value) == "equilibrium powers exceed caps for players [1]"


class TestLambdaBound:
    def test_deterministic_closed_form(self):
        params = params_for(2, 0.1)
        model = single_state_model([1.0, 1.0])
        bound = lambda_max(params, model, horizon=50, replicates=2, seed=0)
        # closed forms: selection keeps both players at the equal-power level
        u_sel = math.exp(-1.1) / 0.1
        u_nash = 9 * math.exp(-1)
        delta = u_sel - u_nash
        penalty = math.exp(-1) / 0.1
        np.testing.assert_allclose(bound.delta, delta, atol=1e-12)
        assert bound.penalty == pytest.approx(penalty, abs=1e-12)
        assert bound.lambda_max == pytest.approx(delta / (penalty + delta), abs=1e-12)
        assert not bound.warning
        np.testing.assert_allclose(bound.delta_stderr, 0.0, atol=1e-14)

    def test_single_player_bound_is_zero(self):
        params = params_for(1, 0.1)
        model = single_state_model([1.0])
        bound = lambda_max(params, model, horizon=50, replicates=2, seed=0)
        assert bound.lambda_max == 0.0
        assert bound.warning

    def test_formula_monotonicity(self):
        g = lambda delta, pen: delta / (pen + delta)
        for pen in (0.5, 2.0, 10.0):
            deltas = np.linspace(0.01, 5, 50)
            vals = [g(d, pen) for d in deltas]
            assert all(x < y for x, y in zip(vals, vals[1:]))
        for delta in (0.1, 1.0):
            pens = np.linspace(0.5, 20, 50)
            vals = [g(delta, p) for p in pens]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_penalty_uses_sup_gain(self):
        params = params_for(2, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        bound = lambda_max(params, model, horizon=200, replicates=2, seed=1)
        assert bound.penalty == pytest.approx(4.0 * math.exp(-1) / 0.1, abs=1e-12)


def count_paths(monkeypatch):
    calls = []
    original = ChannelModel.sample_path

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ChannelModel, "sample_path", counted)
    return calls


class TestPairedPaths:
    """Paired estimates draw each replicate's path once for all strategies."""

    def test_estimator(self, monkeypatch):
        params = params_for(3, 0.1)
        model = build_model(TruncatedRayleighSpec(bins=8), 3)
        calls = count_paths(monkeypatch)
        kinds = [NASH, OPERATING_POINT, BEST_USERS, (BEST_USERS, NASH, OPERATING_POINT)]
        estimate_expected_utilities(params, model, kinds, 40, 5, 4)
        assert len(calls) == 4
        calls.clear()
        estimate_expected_utility(params, model, BEST_USERS, 40, 5, 3)
        assert len(calls) == 3

    def test_dominance_report(self, monkeypatch):
        params = params_for(3, 0.1)
        model = build_model(TruncatedRayleighSpec(bins=8), 3)
        calls = count_paths(monkeypatch)
        report = dominance_report(params, model, horizon=50, replicates=3, seed=2,
                                  alphas=(0.3, 0.7))
        assert len(report.estimates) == 6
        assert len(calls) == 3

    def test_lambda_max(self, monkeypatch):
        params = params_for(3, 0.1)
        model = build_model(TruncatedRayleighSpec(bins=8), 3)
        calls = count_paths(monkeypatch)
        lambda_max(params, model, horizon=50, replicates=4, seed=2)
        assert len(calls) == 4


class TestDominance:
    def test_single_player_strategies_coincide(self):
        params = params_for(1, 0.1)
        model = single_state_model([2.0])
        report = dominance_report(params, model, horizon=100, replicates=2, seed=0)
        means = {name: est.mean[0] for name, est in report.estimates.items()}
        for name in ("nash", "operating_point", "time_sharing", "threshold(0.5)"):
            assert means[name] == pytest.approx(means["best_users"], abs=1e-12)
        assert report.violations == []

    def test_equal_gains_selection_equals_equal_power_profile(self):
        params = params_for(10, 0.1)
        model = single_state_model([1.0] * 10)
        report = dominance_report(params, model, horizon=50, replicates=2, seed=0)
        np.testing.assert_array_equal(
            report.estimates["best_users"].per_replicate,
            report.estimates["operating_point"].per_replicate,
        )

    def test_continuous_like_gains_dominance_holds(self):
        # distinct bin values make gain ties measure-zero, the regime the
        # per-player dominance claim lives in
        params = params_for(3, 0.1)
        model = build_model(TruncatedRayleighSpec(bins=8), 3)
        report = dominance_report(params, model, horizon=20_000, replicates=4, seed=5)
        assert report.violations == []
        sel = report.estimates["best_users"].mean
        for other in ("nash", "operating_point", "time_sharing"):
            assert np.all(sel >= report.estimates[other].mean - 1e-9)

    def test_tie_favoured_player_violation_is_reported_not_raised(self):
        # two-state gains tie often; the index tie rule hands every tied
        # time-sharing stage to player 0, whose E[u] then beats selection.
        # The contract is to report that as a finding.
        params = params_for(3, 0.1)
        model = build_model(TwoStateSpec(1.0, 4.0), 3)
        report = dominance_report(params, model, horizon=20_000, replicates=4, seed=5)
        assert any("time_sharing" in v and "player 0" in v for v in report.violations)
        exact_sel = expected_utilities_exact(params, model, BEST_USERS)
        exact_nash = expected_utilities_exact(params, model, NASH)
        exact_op = expected_utilities_exact(params, model, OPERATING_POINT)
        assert np.all(exact_sel >= exact_nash - 1e-12)
        assert np.all(exact_sel >= exact_op - 1e-12)

    def test_requires_equal_rates(self):
        params = GameParams(2, ExponentialEfficiency(0.1), rates=[1.0, 2.0])
        model = build_model(TwoStateSpec(1.0, 4.0), 2)
        with pytest.raises(ValueError):
            dominance_report(params, model, horizon=10, replicates=2, seed=0)


class TestPartition:
    def test_equal_gains_all_mass_on_full_group(self):
        params = params_for(5, 0.2)
        model = single_state_model([1.0] * 5)
        # oracle: k e^{-0.2 (k-1)} is maximized at k = 5 on 1..5
        scores = [k * math.exp(-0.2 * (k - 1)) for k in range(1, 6)]
        assert int(np.argmax(scores)) + 1 == 5
        part = config_partition(params, model, horizon=500, seed=0)
        assert part.recommended_freq[4] == pytest.approx(1.0)
        assert part.recommended_freq[:4].sum() == 0.0
        assert part.not_recommended_freq.sum() == 0.0

    def test_single_player(self):
        params = params_for(1, 0.1)
        model = single_state_model([1.0])
        part = config_partition(params, model, horizon=100, seed=0)
        assert part.recommended_freq[0] == pytest.approx(1.0)

    def test_a_visited_state_table_gives_the_per_stage_frequencies(self):
        # 16 joint states, no more than the horizon: the engine's draw
        # returns a table, whose gains are gathered along the stages
        params = params_for(4, 0.15)
        model = build_model(TwoStateSpec(1.0, 4.0, 0.3), 4)
        for horizon, player in ((16, 0), (5000, 2)):
            assert engine._draw_states(params, model, horizon, 3)[1] is not None
            _, recommended, k_active = compliant_profile(
                params, BEST_USERS, per_stage_gains(model, horizon, 3))
            mine = recommended[:, player]
            part = config_partition(params, model, horizon=horizon, seed=3, player=player)
            for k in range(1, 5):
                assert part.recommended_freq[k - 1] == (mine & (k_active == k)).mean()
                assert part.not_recommended_freq[k - 1] == (~mine & (k_active == k)).mean()

    def test_frequencies_sum_to_one(self):
        params = params_for(4, 0.15)
        model = build_model(TwoStateSpec(1.0, 4.0), 4)
        part = config_partition(params, model, horizon=5000, seed=2)
        total = part.recommended_freq.sum() + part.not_recommended_freq.sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_players_see_the_same_frequencies(self):
        # needs atomless-like gains: with two-state gains the index tie rule
        # skews recommendations toward low player indices
        params = params_for(3, 0.2)
        model = build_model(TruncatedRayleighSpec(bins=8), 3)
        horizon = 40_000
        parts = [
            config_partition(params, model, horizon=horizon, seed=7, player=i)
            for i in range(2)
        ]
        for k in range(3):
            f0 = parts[0].recommended_freq[k]
            f1 = parts[1].recommended_freq[k]
            se = math.sqrt(max(f0 * (1 - f0), 1e-6) / horizon)
            assert abs(f0 - f1) <= 4 * se * math.sqrt(2)
