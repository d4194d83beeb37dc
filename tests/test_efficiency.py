import math
import warnings

import numpy as np
import pytest

from powergame.efficiency import ExponentialEfficiency, beta_star, gamma_tilde
from powergame.errors import SaturationError
from powergame.oneshot import GameParams


def oracle_root(a: float, k: int, iters: int = 240) -> float:
    """Plain bisection on the defining equation, written from scratch
    against its own exponential formulas; independent of the library
    solver."""
    f = lambda x: math.exp(-a / x)
    fp = lambda x: (a / x**2) * math.exp(-a / x)
    g = lambda x: x * (1.0 - (k - 1) * x) * fp(x) - f(x)
    hi = 1.0 if k == 1 else (1.0 - 1e-12) / (k - 1)
    while k == 1 and g(hi) >= 0:
        hi *= 2.0
    lo = hi / 2.0
    while g(lo) <= 0:
        lo /= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEval:
    def test_unit_ratio(self):
        # a/x = 1 analytically
        assert ExponentialEfficiency(0.1).value(0.1) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_zero_limit(self):
        eff = ExponentialEfficiency(0.5)
        assert eff.value(0.0) == 0.0
        assert eff.value(1e-12) < 1e-300

    def test_direct_evaluation_against_series(self):
        # cross-check e^{-0.5} with a Taylor partial sum computed here
        z = -0.5
        series = sum(z**n / math.factorial(n) for n in range(30))
        val = ExponentialEfficiency(0.2).value(0.4)
        assert val == pytest.approx(series, abs=1e-12)
        assert val == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_monotone_and_bounded(self):
        eff = ExponentialEfficiency(0.3)
        xs = np.linspace(0.01, 50, 500)
        vals = eff.value(xs)
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals > 0) & (vals < 1))

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            ExponentialEfficiency(0.1).value(-0.5)

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError):
            ExponentialEfficiency(0.0)
        with pytest.raises(ValueError):
            ExponentialEfficiency(-1.0)

    def test_from_rate(self):
        assert ExponentialEfficiency.from_rate(1.0).a == pytest.approx(1.0)
        assert ExponentialEfficiency.from_rate(0.5).a == pytest.approx(2**0.5 - 1)

    @pytest.mark.parametrize("rate", [1024, 1030, 2000])
    def test_from_rate_refuses_a_rate_whose_a_is_not_a_finite_float(self, rate):
        # 2.0 ** rate overflows a double from rate 1024 on
        with pytest.raises(ValueError, match="not a finite float"):
            ExponentialEfficiency.from_rate(rate)

    def test_sigmoid_inflection_at_half_a(self):
        # exactly one sign change of f'' on x > 0, at x = a/2
        a = 0.8
        xs = np.linspace(0.01, 10, 2000)
        fpp = (a / xs**3) * ExponentialEfficiency(a).value(xs) * (a / xs - 2.0)
        signs = np.sign(fpp)
        changes = np.nonzero(np.diff(signs))[0]
        assert changes.size == 1
        assert abs(xs[changes[0]] - 0.4) < 0.01


    def test_one_pass_value_matches_the_masked_formula_bitwise(self):
        # the former evaluation: where(x > 0, exp(-a / where(x > 0, x, 1)), 0)
        x = np.random.default_rng(7).exponential(0.2, (20000, 8))
        x[::97] = 0.0
        x[1::89] = np.nan
        x[2::83] = np.inf
        eff = ExponentialEfficiency(0.1)
        with np.errstate(divide="ignore"):
            want = np.where(x > 0, np.exp(-eff.a / np.where(x > 0, x, 1.0)), 0.0)
        assert eff.value(x).tobytes() == want.tobytes()

    def test_nan_and_zero_map_to_zero(self):
        eff = ExponentialEfficiency(0.3)
        assert eff.value(np.nan) == 0.0
        assert eff.value(0.0) == 0.0
        assert eff.value(np.array([0.0, np.nan, 0.3])).tolist() == [0.0, 0.0, math.exp(-1.0)]
        with pytest.raises(ValueError, match="nonnegative"):
            eff.value(np.array([0.5, -1e-300]))

    @pytest.mark.parametrize("a", [1e-300, 0.1, 2.0])
    def test_a_subnormal_sinr_maps_to_zero_without_a_warning(self, a):
        # -a/x overflows to -inf, so exp gives the exact limit 0
        eff = ExponentialEfficiency(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eff.value(5e-324) == 0.0
            assert eff.value(np.array([5e-324, 1e-310])).tolist() == [0.0, 0.0]


class TestRoots:
    @pytest.mark.parametrize("a", [0.1, 0.2, 0.5, 1.0])
    def test_beta_star_matches_oracle(self, a):
        eff = ExponentialEfficiency(a)
        root = beta_star(eff)
        assert root == pytest.approx(oracle_root(a, 1), abs=1e-11)
        assert root == pytest.approx(a, abs=1e-11)

    def test_beta_star_residual_over_grid(self):
        for a in np.linspace(0.01, 1.0, 23):
            a = float(a)
            x = beta_star(ExponentialEfficiency(a))
            fp = (a / x**2) * math.exp(-a / x)
            assert abs(x * fp - math.exp(-a / x)) <= 1e-10

    @pytest.mark.parametrize(
        "a,k,closed",
        [(0.5, 2, 1 / 3), (0.1, 1, 0.1), (0.1, 10, 0.1 / 1.9), (0.2, 3, 1 / 7)],
    )
    def test_gamma_tilde_matches_oracle(self, a, k, closed):
        eff = ExponentialEfficiency(a)
        root = gamma_tilde(eff, k)
        assert root == pytest.approx(oracle_root(a, k), abs=1e-11)
        assert root == pytest.approx(closed, abs=1e-9)

    def test_closed_forms_full_grid(self):
        for a in (0.1, 0.2, 0.5, 1.0):
            eff = ExponentialEfficiency(a)
            assert beta_star(eff) == pytest.approx(a, abs=1e-9)
            for k in range(1, 11):
                assert gamma_tilde(eff, k) == pytest.approx(
                    a / (1 + a * (k - 1)), abs=1e-9
                )

    def test_gamma_decreasing_in_k(self):
        eff = ExponentialEfficiency(0.35)
        roots = [gamma_tilde(eff, k) for k in range(1, 12)]
        assert all(x > y for x, y in zip(roots, roots[1:]))
        assert roots[0] == pytest.approx(beta_star(eff), abs=1e-12)

    def test_gamma_k_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_tilde(ExponentialEfficiency(0.1), 0)


class TestClosedForms:
    A_VALUES = (0.01, 0.1, 0.15, 0.2, 1 / 3, 0.5, 0.7, 1.0, 2.0 ** 0.5 - 1.0)

    @pytest.mark.parametrize("a", A_VALUES)
    def test_roots_are_the_closed_forms_bitwise(self, a):
        eff = ExponentialEfficiency(a)
        assert beta_star(eff) == a
        for k in range(1, 11):
            assert gamma_tilde(eff, k) == a / (1 + (k - 1) * a)

    @pytest.mark.parametrize("a", A_VALUES)
    @pytest.mark.parametrize("sigma2", [1.0, 0.3, 2e-13])
    def test_equal_received_is_sigma2_a(self, a, sigma2):
        params = GameParams.symmetric(10, a=a, sigma2=sigma2)
        assert params.equal_received == sigma2 * a
        # the k-player received power it stands for, to rounding, at every k
        for k in range(1, 11):
            g = params.gamma_tilde(k)
            assert params.equal_received == pytest.approx(
                sigma2 * g / (1 - (k - 1) * g), rel=1e-14)

    @pytest.mark.parametrize("k,a", [(2, 1.0), (3, 0.5), (5, 0.25), (3, 0.75)])
    def test_saturation_at_the_boundary(self, k, a):
        with pytest.raises(SaturationError):
            GameParams.symmetric(k, a=a).nash_scale()

    def test_just_below_the_boundary_is_finite(self):
        a = float(np.nextafter(0.5, 0))
        assert 2 * a < 1
        scale = GameParams.symmetric(3, a=a).nash_scale()
        assert math.isfinite(scale)
        assert scale == a / (1.0 - 2 * a)

    @pytest.mark.parametrize("a", A_VALUES + (0.25, float(np.nextafter(0.5, 0)), 3.0))
    @pytest.mark.parametrize("sigma2", [1.0, 0.3])
    def test_nash_received_is_nan_exactly_where_nash_scale_raises(self, a, sigma2):
        for k in range(1, 12):
            params = GameParams.symmetric(k, a=a, sigma2=sigma2)
            try:
                scale = params.nash_scale()
            except SaturationError:
                assert math.isnan(params.nash_received)
            else:
                assert params.nash_received == scale
