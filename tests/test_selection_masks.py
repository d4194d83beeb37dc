"""The shared selection masks against the reference selectors.

``select_best_users``, ``select_by_threshold`` and the recommendations of
``compliant_profile`` all come from one mask per rule.  ``engine_oracle``
keeps the former scalar selectors and the former vectorized kernels (a
stable argsort, ``np.sort`` with an index-order tie loop on every row, row
reductions along the player axis and a masked divide); the sorting network
and column sweeps that replace them must reproduce them bit for bit, gain
ties included.  Every monitored rule's alarm predicts the SINR of its own
plan, which for the equal-received-power rules is gamma_tilde(k_active) up
to rounding.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engine_oracle import (
    _select_best_users,
    _select_by_threshold,
    best_users_sort_oracle,
    closed_form_utility_oracle,
    stable_top_oracle,
    unchecked_profile_oracle,
)
from powergame.efficiency import ExponentialEfficiency
from powergame.engine import _closed_form, _compliant_utility, _plan
from powergame.oneshot import GameParams, _ascent_starts, _merge_network, _ranked_gains
from powergame.strategies import (
    BEST_USERS,
    MONITORED_KINDS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    compliant_profile,
    select_best_users,
    select_by_threshold,
    threshold,
    unchecked_profile,
)

# a few repeated values make gain ties common
GAINS = st.sampled_from([0.25, 1.0, 1.0 + 2.0**-52, 2.0, 4.0]) | st.floats(0.1, 10.0)


@st.composite
def stages(draw):
    k = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 4))
    eta = np.array(draw(st.lists(st.lists(GAINS, min_size=k, max_size=k),
                                 min_size=rows, max_size=rows)))
    a = draw(st.sampled_from([0.05, 0.1, 0.3, 1.0]))
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return GameParams.symmetric(k, a=a), eta, alpha


def assert_same_indices(got, ref):
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(stages())
@example((GameParams.symmetric(1, a=0.1), np.array([[0.7], [3.0]]), 1.0))
@example((GameParams.symmetric(3, a=0.1), np.array([[2.0, 2.0, 2.0], [1.0, 4.0, 4.0]]), 0.0))
@example((GameParams.symmetric(4, a=0.3), np.array([[4.0, 1.0, 4.0, 1.0]]), 1.0))
def test_masks_match_the_reference_selectors(stage):
    params, eta, alpha = stage
    best = compliant_profile(params, BEST_USERS, eta)[1]
    above = compliant_profile(params, threshold(alpha), eta)[1]
    for t, row in enumerate(eta):
        ref_best = _select_best_users(params, row)
        ref_above = _select_by_threshold(alpha, row)
        assert_same_indices(select_best_users(params, row), ref_best)
        assert_same_indices(select_by_threshold(alpha, row), ref_above)
        assert_same_indices(np.nonzero(best[t])[0], ref_best)
        assert_same_indices(np.nonzero(above[t])[0], ref_above)


@pytest.mark.parametrize("kind", [OPERATING_POINT, BEST_USERS, threshold(0.5)])
def test_alarm_predicts_gamma_tilde_within_4_ulp(kind):
    rng = np.random.default_rng(2024)
    for k in (1, 2, 3, 5, 10):
        for a, sigma2 in ((0.05, 1.0), (0.1, 0.3), (0.5, 2.0)):
            params = GameParams.symmetric(k, a=a, sigma2=sigma2)
            eta = rng.uniform(0.1, 10.0, (200, k))
            _, recommended, k_active = compliant_profile(params, kind, eta)
            expected = _plan(params, (kind,) * k, eta)[2]
            gamma = np.array([np.nan] + [params.gamma_tilde(m) for m in range(1, k + 1)])
            gamma = np.broadcast_to(gamma[k_active][:, None], eta.shape)
            ulps = np.abs(expected - gamma)[recommended] / np.spacing(gamma[recommended])
            assert ulps.max() <= 4, (k, a, sigma2)


def test_only_monitored_rules_carry_an_alarm():
    params = GameParams.symmetric(5, a=0.1)
    kinds = (NASH, TIME_SHARING, OPERATING_POINT, BEST_USERS, SOCIAL_OPTIMUM)
    eta = np.random.default_rng(5).uniform(0.1, 10.0, (6, 5))
    expected = _plan(params, kinds, eta)[2]
    for i, kind in enumerate(kinds):
        assert np.isnan(expected[:, i]).all() == (kind.name not in MONITORED_KINDS)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(1, 17))
def test_the_network_sorts_every_zero_one_vector(k):
    # by the 0-1 principle, a comparator network that sorts every 0/1 input
    # sorts every input
    assert all(a < b < k for a, b in _merge_network(k))
    bits = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(float)
    buf, rank_row = _ranked_gains(bits)
    np.testing.assert_array_equal(buf[rank_row[:k]].T, np.sort(bits, axis=1)[:, ::-1])
    assert not buf[rank_row[k]].any()


def draw_gains(rng, levels, n, k):
    """(n, k) gains: uniform on [0.1, 10], or drawn from ``levels`` values
    (a count of values spaced geometrically over that range, or the values)."""
    if levels is None:
        return rng.uniform(0.1, 10.0, (n, k))
    if isinstance(levels, int):
        levels = np.geomspace(0.1, 10.0, levels)
    return rng.choice(levels, (n, k))


@pytest.mark.parametrize("levels", [2, 3, 16, None, (1.0, 2.0)],
                         ids=["2", "3", "16", "continuous", "1_or_2"])
def test_column_sweeps_match_the_former_kernels_bit_for_bit(levels):
    """Masks, counts and powers of the three selection rules against the
    argsort and row-reduction kernels, best users also against the
    ``np.sort`` kernel, and the closed-form utilities of all five
    closed-form rules against the masked-divide kernel; the 0.05 W cap
    binds the time-sharing winner whenever its best gain is below 2.  With
    gains of 1 or 2 at K = 8, about half the rows' best-user groups end
    inside a group of tied gains, which the index-order tie rule splits."""
    rng = np.random.default_rng(1515 + (levels if isinstance(levels, int) else 0))
    capped_winners = straddled = 0
    for k in range(1, 17) if levels != (1.0, 2.0) else (8,):
        games = [GameParams.symmetric(k, a=0.1), GameParams.symmetric(k, a=0.1, p_max=0.05),
                 GameParams(k, ExponentialEfficiency(0.1), rates=rng.uniform(0.5, 2.0, k))]
        for n in (0, 1, 4096):
            eta = draw_gains(rng, levels, n, k)
            for params in games:
                for kind in (NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5), BEST_USERS):
                    if kind == BEST_USERS and params is games[2]:
                        continue  # best users needs equal rates
                    if kind == NASH and np.isnan(params.nash_received):
                        continue  # no equilibrium past K = 10: a NaN plan is never scored
                    got = unchecked_profile(params, kind, eta)
                    if kind in (NASH, OPERATING_POINT):
                        want = got  # plans without selection: only the utilities changed
                    else:
                        want = unchecked_profile_oracle(params, kind, eta)
                        for got_part, want_part in zip(got, want):
                            assert_same_bits(got_part, want_part)
                    if kind == BEST_USERS:
                        for got_part, want_part in zip(got[1:], best_users_sort_oracle(params,
                                                                                       eta)):
                            assert_same_bits(got_part, want_part)
                        cut = np.where(got[1], eta, np.inf).min(axis=1, initial=np.inf)
                        straddled += np.count_nonzero(
                            ((eta == cut[:, None]) & ~got[1]).any(axis=1))
                    powers, _, k_active = want
                    assert_same_bits(_compliant_utility(params, kind, eta, *got),
                                     closed_form_utility_oracle(params, kind, eta, powers,
                                                                k_active))
                    if kind == TIME_SHARING:
                        capped_winners += np.count_nonzero(powers == params.p_max)
    assert capped_winners > 0
    if levels == (1.0, 2.0):
        assert straddled > 2 * 4096 // 5  # of the 2 * 4097 rows the two games rank


@pytest.mark.parametrize("levels", [2, 16, None], ids=["2", "16", "continuous"])
def test_ascent_starts_rank_like_the_sorting_kernel(levels):
    # the starts of the m best players, m = 1..K, from the network ranking
    # against the np.sort kernel's stable ranking
    rng = np.random.default_rng(77)
    for k in range(5, 11):
        for a in (0.05, 0.3):
            params = GameParams.symmetric(k, a=a)
            for n in (1, 64):
                eta = draw_gains(rng, levels, n, k)
                desc = np.sort(eta, axis=1)[:, ::-1]
                best_m = np.stack([stable_top_oracle(eta, desc, m) for m in range(1, k + 1)],
                                  axis=1)
                equal = params.equal_received / eta
                assert_same_bits(_ascent_starts(params, eta)[0][:, 2:],
                                 np.where(best_m, equal[:, None, :], 0.0))


def test_closed_form_writes_each_block_in_place():
    # the utilities land in the given rows, bit for bit the fresh array's
    rng = np.random.default_rng(9)
    eta = draw_gains(rng, 16, 300, 4)
    params = GameParams.symmetric(4, a=0.1)
    for kind in (NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5), BEST_USERS):
        fresh = _closed_form(params, (kind,) * 4, eta)[2]
        buf = np.full((301, 4), np.nan)
        out = buf[1:]
        assert _closed_form(params, (kind,) * 4, eta, out)[2] is out
        assert_same_bits(out, fresh)
        assert np.isnan(buf[0]).all()
