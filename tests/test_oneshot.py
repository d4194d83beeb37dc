import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from oneshot_oracle import (
    efficiency_value_oracle,
    power_grid_oracle,
    social_optimum_oracle,
    utility_from_sinr_oracle,
)

from powergame import oneshot
from powergame.efficiency import ExponentialEfficiency
from powergame.errors import CapError, SaturationError
from powergame.oneshot import (
    GameParams,
    _first_of_each_state,
    _power_grids,
    _sinr,
    _utility_from_sinr,
    _welfare,
    best_response,
    nash_powers,
    operating_point_powers,
    sinr,
    social_optimum,
    utility,
    welfare,
)


def params_for(k, a, sigma2=1.0, p_max=np.inf, rates=1.0):
    return GameParams(k, ExponentialEfficiency(a), rates=rates, sigma2=sigma2, p_max=p_max)


class TestGameParamsValidation:
    @pytest.mark.parametrize("field, value", [
        ("rates", np.nan), ("rates", [1.0, np.nan]), ("rates", np.inf),
        ("sigma2", np.nan), ("sigma2", np.inf),
        ("p_max", np.nan), ("p_max", [1.0, np.nan]), ("p_max", 0.0),
    ])
    def test_nan_and_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GameParams(2, ExponentialEfficiency(0.1), **{field: value})


class TestGainValidation:
    # each public function of a realization; best_response needs a player
    FUNCTIONS = {
        "sinr": lambda p, eta: sinr(p, eta, [1.0, 1.0]),
        "utility": lambda p, eta: utility(p, eta, [1.0, 1.0]),
        "welfare": lambda p, eta: welfare(p, eta, [1.0, 1.0]),
        "best_response": lambda p, eta: best_response(p, eta, [1.0, 1.0], 0),
        "nash_powers": nash_powers,
        "operating_point_powers": operating_point_powers,
        "social_optimum": social_optimum,
    }

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("gain", [np.nan, np.inf, -np.inf, 0.0])
    def test_gains_must_be_positive_and_finite(self, name, gain):
        with pytest.raises(ValueError, match="channel gains must be positive and finite"):
            self.FUNCTIONS[name](params_for(2, 0.1), [gain, 2.0])


class TestPowerValidation:
    FUNCTIONS = {"sinr": sinr, "utility": utility, "welfare": welfare}

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    def test_powers_must_be_nonnegative_and_finite(self, name, power):
        with pytest.raises(ValueError, match="powers must be nonnegative and finite"):
            self.FUNCTIONS[name](params_for(2, 0.1), [1.0, 2.0], [power, 1.0])

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_a_bad_power_anywhere_in_a_batch_is_refused(self, name):
        powers = np.ones((3, 4, 2))
        powers[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="powers"):
            self.FUNCTIONS[name](params_for(2, 0.1), np.ones((3, 1, 2)), powers)

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_gains_are_checked_before_powers(self, name):
        with pytest.raises(ValueError, match="channel gains must be positive and finite"):
            self.FUNCTIONS[name](params_for(2, 0.1), [-1.0, 2.0], [np.nan, 1.0])

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("eta, powers", [
        ([4.0, 1.0], [1e308, 1.0]),  # p * eta overflows
        ([1.0, 1.0], [1e308, 1e308]),  # each p * eta is finite, their sum is not
        ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1e308, 1e308]]),  # in one row of a batch
    ], ids=["product", "sum", "batch"])
    def test_received_powers_must_not_overflow(self, name, eta, powers):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="received powers p \\* eta and their sum"):
                self.FUNCTIONS[name](params_for(2, 0.1), eta, powers)

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_a_sinr_over_a_tiny_noise_power_must_not_overflow(self, name):
        params = params_for(2, 0.1, sigma2=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="each SINR, must be finite"):
                self.FUNCTIONS[name](params, [1.0, 1.0], [1e10, 0.0])
        # the engine's unchecked kernel leaves it to its callers
        with np.errstate(over="ignore"):
            assert _sinr(params, np.array([1.0, 1.0]), np.array([1e10, 0.0])).tolist() == \
                [np.inf, 0.0]

    def test_a_received_power_near_the_largest_double_is_scored(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sinr(params_for(2, 0.1), [1.0, 1.0], [1e308, 0.0]).tolist() == [1e308, 0.0]

    def test_negative_zero_is_a_silent_player(self):
        p = params_for(2, 0.1)
        assert utility(p, [1.0, 2.0], [-0.0, 0.5]).tolist() == \
            utility(p, [1.0, 2.0], [0.0, 0.5]).tolist()
        assert utility(p, [1.0, 2.0], [-0.0, 0.5], 0) == 0.0
        assert welfare(p, [1.0, 2.0], [-0.0, -0.0]) == 0.0

    def test_best_response_still_ignores_an_infinite_own_entry(self):
        p = params_for(2, 0.1)
        assert best_response(p, [1.0, 2.0], [np.inf, 5.0], 0) == pytest.approx(1.1)


class TestSinr:
    def test_symmetric(self):
        p = params_for(2, 0.1)
        assert sinr(p, [1.0, 1.0], [1.0, 1.0], 0) == pytest.approx(0.5)

    def test_no_interference(self):
        p = params_for(2, 0.1)
        assert sinr(p, [2.0, 1.0], [0.05, 0.0], 0) == pytest.approx(0.1)

    def test_direct_arithmetic(self):
        p = params_for(2, 0.1, sigma2=0.5)
        expected = 0.2 * 1.0 / (0.1 * 4.0 + 0.5)  # oracle arithmetic
        assert sinr(p, [1.0, 4.0], [0.2, 0.1], 0) == pytest.approx(expected, abs=1e-12)

    def test_batched(self):
        p = params_for(2, 0.1)
        eta = np.array([[1.0, 1.0], [2.0, 1.0]])
        pw = np.array([[1.0, 1.0], [0.05, 0.0]])
        out = sinr(p, eta, pw)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(0.5)
        assert out[1, 0] == pytest.approx(0.1)


class TestUtility:
    def test_single_player(self):
        p = params_for(1, 0.1)
        assert utility(p, [1.0], [0.1], 0) == pytest.approx(10 * math.exp(-1), abs=1e-12)

    def test_silent_is_zero(self):
        p = params_for(2, 0.1)
        assert utility(p, [1.0, 1.0], [0.0, 0.3], 0) == 0.0

    def test_symmetric_pair(self):
        p = params_for(2, 0.5)
        # SINR = 1/3, u = e^{-1.5} / 0.5
        assert utility(p, [1.0, 1.0], [0.5, 0.5], 0) == pytest.approx(
            math.exp(-1.5) / 0.5, abs=1e-12
        )

    def test_rate_scales_utility(self):
        lo = params_for(1, 0.1, rates=1.0)
        hi = params_for(1, 0.1, rates=3.0)
        assert utility(hi, [1.0], [0.1], 0) == pytest.approx(
            3 * utility(lo, [1.0], [0.1], 0)
        )


class TestBestResponse:
    def test_no_interference(self):
        p = params_for(2, 0.1)
        assert best_response(p, [1.0, 1.0], [0.0, 0.0], 0) == pytest.approx(0.1)

    def test_unit_interference(self):
        p = params_for(2, 0.1)
        assert best_response(p, [1.0, 1.0], [0.0, 1.0], 0) == pytest.approx(0.2)

    def test_cap_binds(self):
        p = params_for(2, 0.1, p_max=1.0)
        assert best_response(p, [1.0, 1.0], [0.0, 100.0], 0) == pytest.approx(1.0)

    def test_own_entry_is_ignored_even_when_infinite(self):
        p = GameParams.symmetric(2, a=0.1)
        got = best_response(p, [1.0, 2.0], [np.inf, 5.0], 0)
        assert got == best_response(p, [1.0, 2.0], [0.0, 5.0], 0)
        assert got == pytest.approx(1.1)

    def test_is_grid_argmax(self):
        # oracle: dense grid search of u_i against fixed opponents
        p = params_for(3, 0.2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            eta = rng.uniform(0.5, 4.0, 3)
            others = rng.uniform(0.01, 1.0, 3)
            br = best_response(p, eta, others, 1)
            grid = np.geomspace(br / 50, br * 50, 3001)
            interference = others[0] * eta[0] + others[2] * eta[2]
            s = grid * eta[1] / (interference + 1.0)
            u = np.exp(-0.2 / s) / grid
            u_br = math.exp(-0.2 / (br * eta[1] / (interference + 1.0))) / br
            assert u_br >= u.max() - 1e-12


class TestNashPowers:
    def test_symmetric_two_player(self):
        p = params_for(2, 0.1)
        np.testing.assert_allclose(nash_powers(p, [1.0, 1.0]), [1 / 9, 1 / 9], atol=1e-12)

    def test_single_player(self):
        p = params_for(1, 0.1)
        np.testing.assert_allclose(nash_powers(p, [2.0]), [0.05], atol=1e-12)

    def test_asymmetric_gains_equal_sinr(self):
        p = params_for(2, 0.1)
        out = nash_powers(p, [1.0, 4.0])
        np.testing.assert_allclose(out, [1 / 9, 1 / 36], atol=1e-12)
        s = sinr(p, [1.0, 4.0], out)
        np.testing.assert_allclose(s, [0.1, 0.1], atol=1e-10)

    def test_fixed_point_of_iterated_best_response(self):
        # oracle: iterate simultaneous best responses to convergence
        p = params_for(3, 0.15)
        eta = np.array([0.7, 1.3, 2.9])
        cur = np.full(3, 1.0)
        for _ in range(400):
            cur = np.array([best_response(p, eta, cur, i) for i in range(3)])
        np.testing.assert_allclose(nash_powers(p, eta), cur, rtol=1e-10)

    def test_equal_received_power(self):
        p = params_for(4, 0.2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            eta = rng.uniform(0.2, 5.0, 4)
            received = nash_powers(p, eta) * eta
            assert np.ptp(received) <= 1e-12 * received[0]

    def test_saturated_game_rejected(self):
        p = params_for(3, 0.5)  # (K-1) beta_star = 1
        with pytest.raises(SaturationError):
            nash_powers(p, [1.0, 1.0, 1.0])
        # the cooperative profile is still well defined
        operating_point_powers(p, [1.0, 1.0, 1.0])

    def test_cap_violation(self):
        p = params_for(2, 0.1, p_max=0.05)
        with pytest.raises(SaturationError):
            nash_powers(p, [1.0, 1.0])

    def test_rows_match_one_row_calls(self):
        p = params_for(3, 0.15, p_max=[np.inf, 2.0, 0.5])
        eta = np.random.default_rng(4).uniform(0.5, 5.0, (6, 3))
        out = nash_powers(p, eta)
        assert out.shape == (6, 3)
        for row, row_out in zip(eta, out):
            assert nash_powers(p, row).tobytes() == row_out.tobytes()

    def test_rows_name_the_first_capped_row(self):
        # row 1 is over player 1's cap, row 2 over both players' caps
        p = params_for(2, 0.5, p_max=5.0)  # equilibrium power 1 / gain
        with pytest.raises(SaturationError, match=r"for players \[1\]$"):
            nash_powers(p, [[2.0, 2.0], [2.0, 0.1], [0.1, 0.1]])


class TestOperatingPoint:
    def test_two_player_example(self):
        p = params_for(2, 0.1)
        np.testing.assert_allclose(
            operating_point_powers(p, [1.0, 2.0]), [0.1, 0.05], atol=1e-12
        )

    def test_single_player_equals_equilibrium(self):
        p = params_for(1, 0.1)
        np.testing.assert_allclose(
            operating_point_powers(p, [1.0]), nash_powers(p, [1.0]), atol=1e-12
        )

    def test_three_player_example(self):
        p = params_for(3, 0.2, sigma2=2.0)
        out = operating_point_powers(p, [1.0, 2.0, 4.0])
        np.testing.assert_allclose(out, [0.4, 0.2, 0.1], atol=1e-12)
        s = sinr(p, [1.0, 2.0, 4.0], out)
        np.testing.assert_allclose(s, 0.2 / 1.4, atol=1e-10)

    def test_inactive_players_silent(self):
        p = params_for(3, 0.1)
        out = operating_point_powers(p, [1.0, 2.0, 3.0], active=[0, 2])
        assert out[1] == 0.0
        received = out[[0, 2]] * np.array([1.0, 3.0])
        assert np.ptp(received) <= 1e-12 * received[0]
        s = sinr(p, [1.0, 2.0, 3.0], out)
        np.testing.assert_allclose(s[[0, 2]], p.gamma_tilde(2), atol=1e-10)

    def test_cap_error_not_clipped(self):
        p = params_for(2, 0.1, p_max=0.06)
        with pytest.raises(CapError):
            operating_point_powers(p, [1.0, 2.0])

    def test_empty_active_rejected(self):
        p = params_for(2, 0.1)
        with pytest.raises(ValueError):
            operating_point_powers(p, [1.0, 1.0], active=[])


class TestParetoDominance:
    @pytest.mark.parametrize("k", [2, 5])
    def test_operating_point_dominates(self, k):
        p = params_for(k, 0.1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            eta = rng.uniform(0.3, 4.0, k)
            u_ne = utility(p, eta, nash_powers(p, eta))
            u_op = utility(p, eta, operating_point_powers(p, eta))
            assert np.all(u_op > u_ne)  # strict for k >= 2

    def test_single_player_equality(self):
        p = params_for(1, 0.3)
        eta = np.array([1.7])
        assert utility(p, eta, nash_powers(p, eta), 0) == pytest.approx(
            utility(p, eta, operating_point_powers(p, eta), 0)
        )


def test_scale_covariance():
    # scaling sigma2 and all gains together changes nothing observable
    base = params_for(3, 0.2, sigma2=1.0)
    scaled = params_for(3, 0.2, sigma2=7.0)
    eta = np.array([0.5, 1.0, 2.0])
    p_base = nash_powers(base, eta)
    p_scaled = nash_powers(scaled, 7.0 * eta)
    np.testing.assert_allclose(p_base, p_scaled, rtol=1e-12)
    np.testing.assert_allclose(
        utility(base, eta, p_base), utility(scaled, 7.0 * eta, p_scaled), rtol=1e-12
    )


def test_equal_rates_required_for_analysis_helpers():
    p = GameParams(2, ExponentialEfficiency(0.1), rates=[1.0, 2.0])
    with pytest.raises(ValueError):
        p.require_equal_rates()


class TestSocialOptimum:
    def test_single_player_hits_selfish_optimum(self):
        p = params_for(1, 0.1)
        powers, w = social_optimum(p, [1.0], grid_size=40)
        assert powers[0] == pytest.approx(0.1, rel=1e-9)
        assert w == pytest.approx(10 * math.exp(-1), rel=1e-9)

    def test_dominates_named_profiles(self):
        p = params_for(2, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(25):
            eta = rng.uniform(0.5, 4.0, 2)
            _, w = social_optimum(p, eta, grid_size=14)
            assert w >= welfare(p, eta, nash_powers(p, eta)) - 1e-12
            assert w >= welfare(p, eta, operating_point_powers(p, eta)) - 1e-12
            order = np.argsort(-eta)
            for m in (1, 2):
                cand = welfare(p, eta, operating_point_powers(p, eta, order[:m]))
                assert w >= cand - 1e-12

    def test_spec_case_beats_selection(self):
        p = params_for(2, 0.5)
        eta = np.array([4.0, 1.0])
        _, w = social_optimum(p, eta, grid_size=14)
        best_selection = max(
            welfare(p, eta, operating_point_powers(p, eta, [0])),
            welfare(p, eta, operating_point_powers(p, eta, [0, 1])),
        )
        assert w >= best_selection - 1e-12

    def test_coordinate_ascent_path(self):
        p = params_for(6, 0.1)
        eta = np.linspace(0.5, 3.0, 6)
        _, w = social_optimum(p, eta, grid_size=10)
        assert w >= welfare(p, eta, operating_point_powers(p, eta)) - 1e-12
        assert w >= welfare(p, eta, nash_powers(p, eta)) - 1e-12

    def test_grid_size_validated(self):
        p = params_for(2, 0.1)
        with pytest.raises(ValueError):
            social_optimum(p, [1.0, 1.0], grid_size=1)

    @pytest.mark.parametrize("grid_size", [12.0, "12", None])
    def test_grid_size_must_be_an_integer(self, grid_size):
        # refused with the rule's own message, not numpy's TypeError
        with pytest.raises(ValueError, match="grid_size must be an integer >= 2"):
            social_optimum(params_for(5, 0.1), np.linspace(0.5, 3.0, 5), grid_size=grid_size)

    @pytest.mark.parametrize("k", [2, 5])
    def test_rows_are_solved_on_their_own(self, k):
        p = params_for(k, 0.1)
        eta = np.random.default_rng(k).uniform(0.5, 3.0, (3, k))
        powers, w = social_optimum(p, eta)
        assert powers.shape == (3, k) and w.shape == (3,)
        for row, row_powers, row_w in zip(eta, powers, w):
            one_powers, one_w = social_optimum(p, row)
            assert type(one_w) is float
            assert one_powers.tobytes() == row_powers.tobytes()
            assert np.float64(one_w).tobytes() == row_w.tobytes()
        empty_powers, empty_w = social_optimum(p, np.empty((0, k)))
        assert empty_powers.shape == (0, k) and empty_w.shape == (0,)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_uncapped_grid_has_grid_size_points(self, k):
        # 0, the equilibrium power, one equal-received-power power and the fill
        p = params_for(k, 0.1)
        eta = np.linspace(0.5, 3.0, k)
        for grid_size in (3, 6, 12):
            for i in range(k):
                grid = power_grid_oracle(p, eta, i, grid_size)
                assert grid.size == grid_size
                assert p.nash_scale() / eta[i] in grid
                assert p.equal_received / eta[i] in grid

    @pytest.mark.parametrize("k,a,p_max,grid_sizes", [
        (1, 0.1, np.inf, (2, 3, 12)),  # one player: both seeds are one power
        (3, 0.1, np.inf, (2, 3, 12)),  # uncapped
        (4, 0.1, 0.3, (2, 3, 12)),  # one cap, binding in some rows
        (3, 0.1, [np.inf, 0.5, 0.05], (2, 3, 12)),  # capped and uncapped players
        (3, 0.5, np.inf, (2, 3, 12)),  # (K-1) beta_star = 1: no equilibrium
        (3, 0.5, 0.4, (2, 3, 12)),  # no equilibrium, capped
        (3, 0.1, 0.02, (2, 3, 12)),  # both seeds over the cap in most rows
        (10, 0.1, np.inf, (40,)),  # a fill point on a seed (a point short)
    ])
    def test_batched_grids_are_the_one_row_grids(self, k, a, p_max, grid_sizes):
        # every (row, player) grid of one call equals the scalar grid's bytes,
        # then repeats its last point up to the longest grid
        p = params_for(k, a, p_max=p_max)
        eta = np.random.default_rng(k).uniform(0.05, 6.0, (8, k))
        eta[0] = 1.0  # equal gains; at K = 10 a fill point lands on a seed
        eta[1, -1] = eta[1, 0]
        for grid_size in grid_sizes:
            grids, sizes = _power_grids(p, eta, grid_size)
            assert grids.shape == (8, k, sizes.max())
            for row, row_grids, row_sizes in zip(eta, grids, sizes):
                for i in range(k):
                    want = power_grid_oracle(p, row, i, grid_size)
                    assert row_sizes[i] == want.size
                    assert row_grids[i, :want.size].tobytes() == want.tobytes()
                    assert np.all(row_grids[i, want.size:] == want[-1])
            if k == 10:
                assert sizes[0, 0] == grid_size - 1

    def test_fill_point_on_a_seed_is_counted_once(self):
        # at K = 10, a = 0.1 the equilibrium power is 10 times the equal
        # one; a 37-point fill over the three decades around them steps by
        # 10**(1/12), so its 13th and 25th points round to or next to them
        p = params_for(10, 0.1)
        grid = power_grid_oracle(p, np.ones(10), 0, 40)
        assert 38 <= grid.size < 40
        assert p.nash_scale() in grid and p.equal_received in grid

    def test_every_candidate_over_the_cap(self):
        # players 0 and 1 need 0.5 W and more for any named profile; the
        # cap is 0.09 W, so their grids are 0 plus a log fill up to the cap
        p = GameParams.symmetric(3, a=0.1, p_max=0.09)
        eta = np.array([0.2, 0.3, 5.0])
        powers, w = social_optimum(p, eta)
        fill = np.geomspace(0.009, 0.09, 11)
        for i in (0, 1):
            np.testing.assert_array_equal(power_grid_oracle(p, eta, i, 12),
                                          np.concatenate([[0.0], fill]))
        assert np.all(powers <= p.p_max)
        grids = [power_grid_oracle(p, eta, i, 12) for i in range(3)]
        profiles = np.array(list(itertools.product(*grids)))
        assert w == welfare(p, eta, profiles).max()
        assert w >= welfare(p, eta, [0.0, 0.0, p.nash_scale() / 5.0])

    def test_start_profiles_over_the_cap_are_skipped(self):
        # K >= 5 runs coordinate ascent; the all-player equal-received-power
        # start needs 0.2 W from player 0, over the 0.09 W cap
        p = GameParams.symmetric(5, a=0.1, p_max=0.09)
        eta = np.array([0.5, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(CapError):
            operating_point_powers(p, eta)
        powers, w = social_optimum(p, eta)
        assert np.all(powers <= p.p_max)
        assert w == float(welfare(p, eta, powers))
        order = np.argsort(-eta)
        for m in (1, 2, 3, 4):
            assert w >= welfare(p, eta, operating_point_powers(p, eta, order[:m]))

    def test_zero_start_when_no_start_fits_the_cap(self):
        p = GameParams.symmetric(5, a=0.1, p_max=1e-3)
        eta = np.array([0.5, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(CapError):
            operating_point_powers(p, eta, [4])
        powers, w = social_optimum(p, eta)
        assert np.all(powers <= p.p_max)
        assert w > 0.0

    @pytest.mark.parametrize("k,p_max,eta,digest", [
        (5, np.inf, [0.5, 2, 3, 4, 5],
         "955a96c914affa52baeb91e1c09ee3840c52d75bb04f408764ec4baf2f017e06"),
        (6, 1.0, np.linspace(0.5, 3.0, 6),
         "d1fa1c4da66b5d3dc5c606bf052b681a5d08db5b20bc25da54901695c8f26738"),
    ])
    def test_coordinate_ascent_bytes_are_pinned(self, k, p_max, eta, digest):
        # sha256 of (powers, welfare) on grids of grid_size points each,
        # with the closed-form equal-received-power level
        powers, w = social_optimum(GameParams.symmetric(k, a=0.1, p_max=p_max), eta)
        got = hashlib.sha256(powers.tobytes() + np.float64(w).tobytes()).hexdigest()
        assert got == digest


@pytest.mark.parametrize("k", [5, 6, 7, 8])
@pytest.mark.parametrize("p_max", [np.inf, 5.0, 1.0, 0.09, 1e-3])
def test_coordinate_ascent_matches_the_scalar_search(k, p_max):
    # every row of an (N, K) call and every 1-row call equals the scalar
    # search's bytes; rows repeat and hold tied gains, and at p_max 1e-3
    # every start is over a cap (the ascent starts from all players silent)
    rng = np.random.default_rng([k, int(1 / p_max)])
    for a, grid_size in itertools.product((0.05, 0.1, 0.3), (3, 6, 12)):
        p = GameParams.symmetric(k, a=a, p_max=p_max)
        eta = rng.uniform(0.05, 6.0, (2, k))
        eta[1, : k // 2] = eta[1, -1]  # tied gains
        eta = eta[[0, 1, 0]]
        if p_max == 1e-3:
            assert np.all(p.equal_received / eta.max(axis=1) > p_max)
        powers, w = social_optimum(p, eta, grid_size)
        wants = [social_optimum_oracle(p, row, grid_size) for row in eta[:2]]
        for row, (want_p, want_w) in zip((0, 1, 2), wants + wants[:1]):
            one_p, one_w = social_optimum(p, eta[row], grid_size)
            assert powers[row].tobytes() == one_p.tobytes() == want_p.tobytes()
            assert w[row].tobytes() == np.float64(one_w).tobytes() == np.float64(want_w).tobytes()
        one_p, one_w = social_optimum(p, eta[:1], grid_size)
        assert one_p.shape == (1, k) and one_p.tobytes() == powers[0].tobytes()
        assert one_w.tobytes() == w[:1].tobytes()


def test_first_of_each_state_keeps_the_first_live_pair_of_each_state():
    row = np.array([0, 0, 0, 0, 1, 1, 1])
    p = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                  [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    w = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 2.0])
    assert _first_of_each_state(row, p, w, np.arange(7)).tolist() == [0, 2, 4, 5]
    assert _first_of_each_state(row, p, w, np.array([1, 3, 5, 6])).tolist() == [1, 5, 6]
    assert _first_of_each_state(row, p, w, np.array([], dtype=int)).tolist() == []


@pytest.mark.parametrize("k, p_max", [(5, np.inf), (6, np.inf), (5, 0.09), (7, 1.0)])
def test_dropping_repeated_ascent_states_changes_no_byte(k, p_max, monkeypatch):
    # Rayleigh-like rows, where starts snap to the same grid points and
    # climbs merge: the full lockstep and the deduplicated one agree, and
    # the deduplicated one scores fewer candidates
    rng = np.random.default_rng(40 + k)
    eta = rng.exponential(1.0, (40, k)) + 0.01
    eta[5] = eta[4]
    results, scored = [], []
    welfare_kernel = oneshot._welfare

    def counting(params, eta, powers):
        scored[-1] += powers.shape[0] * powers.shape[1] if powers.ndim == 3 else 0
        return welfare_kernel(params, eta, powers)

    monkeypatch.setattr(oneshot, "_welfare", counting)
    for dedup in (_first_of_each_state, lambda row, p, w, live: live):
        monkeypatch.setattr(oneshot, "_first_of_each_state", dedup)
        scored.append(0)
        for a in (0.05, 0.1, 0.15):
            results.append(social_optimum(GameParams.symmetric(k, a=a, p_max=p_max), eta))
    half = len(results) // 2
    for (p1, w1), (p2, w2) in zip(results[:half], results[half:]):
        assert p1.tobytes() == p2.tobytes() and w1.tobytes() == w2.tobytes()
    assert scored[0] < scored[1]
    params = GameParams.symmetric(k, a=0.05, p_max=p_max)
    for r in range(0, 40, 5):
        want_p, want_w = social_optimum_oracle(params, eta[r])
        assert results[0][0][r].tobytes() == want_p.tobytes()
        assert results[0][1][r] == want_w


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# every special value a kernel's mask must keep or drop
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 1e-300, 0.1, 3.0])


class TestKernelsAgainstTheMaskedOracles:
    """``ExponentialEfficiency.value`` and ``_utility_from_sinr`` against
    their former masked-divide bodies, byte for byte, warning-free."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @staticmethod
    def _oracle(fn, *args):
        with np.errstate(over="ignore"):  # the masked divide warns where -a/x overflows
            return fn(*args)

    @pytest.mark.parametrize("a", [0.1, 1.5, 1e-300, 1e300])
    def test_value_of_each_special_value_and_scalar(self, a):
        eff = ExponentialEfficiency(a)
        x = SPECIAL[~(SPECIAL < 0)]  # NaN stays
        assert _same_bytes(eff.value(x), self._oracle(efficiency_value_oracle, eff, x))
        for v in x:  # 0-d input gives a float, as before
            got, want = eff.value(v), self._oracle(efficiency_value_oracle, eff, v)
            assert type(got) is float and _same_bytes(got, want)
        for bad in (-np.inf, -1.0, -5e-324):
            with pytest.raises(ValueError, match="nonnegative"):
                eff.value(np.array([1.0, bad]))

    def test_value_on_random_arrays(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(0.2, (400, 7))
        x.flat[rng.integers(0, x.size, 300)] = rng.choice(SPECIAL[~(SPECIAL < 0)], 300)
        for a in (0.02, 0.1, 2.0):
            eff = ExponentialEfficiency(a)
            assert _same_bytes(eff.value(x), self._oracle(efficiency_value_oracle, eff, x))
            assert _same_bytes(eff.value(x[:, ::2]),  # strided
                               self._oracle(efficiency_value_oracle, eff, x[:, ::2]))

    def test_utility_from_sinr_on_every_pair_of_special_values(self):
        p = params_for(1, 0.1, rates=2.5)
        powers, s = (g.ravel() for g in np.meshgrid(SPECIAL, SPECIAL[~(SPECIAL < 0)],
                                                    indexing="ij"))
        want = self._oracle(utility_from_sinr_oracle, p, powers, s)
        # a subnormal power with a positive goodput is a kept entry whose
        # quotient overflows to inf: it warns, as it did under the mask
        over = (powers == 5e-324) & (want == np.inf)
        assert over.any() and _same_bytes(_utility_from_sinr(p, powers[~over], s[~over]),
                                          want[~over])
        with pytest.warns(RuntimeWarning, match="overflow encountered in divide"):
            got = _utility_from_sinr(p, powers[over], s[over])
        assert _same_bytes(got, want[over])
        for power, value in zip(powers[~over], s[~over]):  # 0-d arrays give 0-d arrays
            got = _utility_from_sinr(p, np.asarray(power), np.asarray(value))
            want_0d = self._oracle(utility_from_sinr_oracle, p, np.asarray(power), value)
            assert _same_bytes(got, want_0d)

    def test_utility_from_sinr_of_k_powers_against_n_by_k_sinr(self):
        rng = np.random.default_rng(12)
        k = 4
        p = params_for(k, 0.2, rates=np.linspace(1.0, 2.0, k))
        powers = np.array([0.0, -0.0, 0.3, 1e-300])
        s = rng.exponential(0.3, (50, k))
        s[::7] = SPECIAL[[0, 2, 5, 6]]
        want = self._oracle(utility_from_sinr_oracle, p, powers, s)
        got = _utility_from_sinr(p, powers, s)
        assert got.shape == (50, k) and _same_bytes(got, want)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_utility_of_n_by_1_gains_against_n_by_m_profiles(self, k):
        rng = np.random.default_rng(13 + k)
        p = params_for(k, 0.1, sigma2=0.7, rates=np.linspace(1.0, 3.0, k))
        eta = rng.uniform(0.1, 4.0, (6, 1, k))
        profiles = rng.uniform(0.0, 2.0, (6, 9, k))
        profiles[rng.random(profiles.shape) < 0.3] = 0.0
        profiles[0, 0] = -0.0
        profiles[1, 1, 0] = 5e-324
        profiles[2, 2, -1] = 1e308
        eta[2, 0, -1] = 0.5  # its received power stays finite
        want = self._oracle(utility_from_sinr_oracle, p, profiles, _sinr(p, eta, profiles))
        got = utility(p, eta, profiles)
        assert got.shape == (6, 9, k) and _same_bytes(got, want)
        assert _same_bytes(welfare(p, eta, profiles), want.sum(axis=-1))

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_private_kernels_match_the_public_ones(self, k):
        rng = np.random.default_rng(20 + k)
        p = params_for(k, 0.15, sigma2=1.3, rates=np.linspace(0.5, 2.0, k))
        for shape in [(k,), (30, k), (5, 7, k)]:
            eta = rng.uniform(0.05, 5.0, shape)
            powers = rng.uniform(0.0, 3.0, shape)
            powers[rng.random(shape) < 0.25] = 0.0
            assert _same_bytes(_sinr(p, eta, powers), sinr(p, eta, powers))
            assert _same_bytes(_welfare(p, eta, powers), welfare(p, eta, powers))
