import base64
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from channels_oracle import FixedUniforms, gain_matrix_oracle

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
    stationary_distribution,
)
from powergame.errors import ModelError, ReducibleLawError


def rng_of(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


class TestTwoState:
    def test_build(self):
        m = build_model(TwoStateSpec(1.0, 4.0, 0.5), 1)
        np.testing.assert_allclose(m.gains[0], [1.0, 4.0])
        np.testing.assert_allclose(m.law.probs[0], [0.5, 0.5])

    def test_degenerate_equal_states(self):
        # ratio 1: both states carry the same gain
        m = build_model(TwoStateSpec(1.0, 1.0, 0.5), 3)
        path = m.sample_path(100, rng_of(0))
        assert np.all(m.gain_matrix(path) == 1.0)

    def test_invalid_specs(self):
        with pytest.raises(ModelError):
            TwoStateSpec(4.0, 1.0)
        with pytest.raises(ModelError):
            TwoStateSpec(1.0, 4.0, p_high=1.0)
        with pytest.raises(ModelError):
            TwoStateSpec(0.0, 4.0)

    def test_sampled_gains_in_declared_interval(self):
        m = build_model(TwoStateSpec(0.5, 2.5, 0.3), 4)
        gains = m.gain_matrix(m.sample_path(5000, rng_of(1)))
        assert gains.min() >= 0.5 and gains.max() <= 2.5

    def test_empirical_frequency_matches_stationary(self):
        m = build_model(TwoStateSpec(1.0, 4.0, 0.3), 2)
        path = m.sample_path(100_000, rng_of(2))
        freq_high = (path == 1).mean(axis=0)
        se = math.sqrt(0.3 * 0.7 / 100_000)
        assert np.all(np.abs(freq_high - 0.3) <= 3 * se)


def simpson_mean(lo, hi, rate, n=200_001):
    """Quadrature oracle: conditional mean of an Exp(rate) gain over [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    pdf = rate * np.exp(-rate * xs)
    h = xs[1] - xs[0]
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    num = h / 3 * np.sum(w * xs * pdf)
    den = h / 3 * np.sum(w * pdf)
    return num / den


class TestTruncatedRayleigh:
    def test_two_bins_of_untruncated_gain(self):
        # scale 1 -> gain ~ Exp(mean 2); bins split at the median
        m = build_model(TruncatedRayleighSpec(1.0, 0.0, np.inf, bins=2), 1)
        rate = 0.5
        med = math.log(2) / rate
        lo_oracle = simpson_mean(1e-9, med, rate)
        hi_oracle = simpson_mean(med, 80.0, rate)  # tail beyond 80 is ~1e-17
        np.testing.assert_allclose(m.gains[0], [lo_oracle, hi_oracle], rtol=1e-5)

    def test_truncated_bins_match_quadrature(self):
        spec = TruncatedRayleighSpec(1.0, 0.1, 10.0, bins=4)
        m = build_model(spec, 1)
        rate = 0.5
        mass = math.exp(-rate * 0.1) - math.exp(-rate * 10.0)
        edges = [0.1]
        for j in range(1, 4):
            s = math.exp(-rate * 0.1) - (j / 4) * mass
            edges.append(-math.log(s) / rate)
        edges.append(10.0)
        oracle = [simpson_mean(a, b, rate) for a, b in zip(edges, edges[1:])]
        np.testing.assert_allclose(m.gains[0], oracle, rtol=1e-6)

    def test_bins_are_equiprobable_and_increasing(self):
        m = build_model(TruncatedRayleighSpec(1.0, 0.1, 10.0, bins=16), 3)
        probs = m.law.probs[0]
        np.testing.assert_allclose(probs, 1 / 16)
        assert np.all(np.diff(m.gains[0]) > 0)
        assert m.gains[0][0] > 0.1 and m.gains[0][-1] < 10.0

    def test_negligible_mass_rejected(self):
        with pytest.raises(ModelError):
            build_model(TruncatedRayleighSpec(1.0, 100.0, 101.0, bins=2), 1)

    def test_invalid_specs(self):
        with pytest.raises(ModelError):
            TruncatedRayleighSpec(scale=-1.0)
        with pytest.raises(ModelError):
            TruncatedRayleighSpec(bins=1)
        with pytest.raises(ModelError):
            TruncatedRayleighSpec(eta_min=5.0, eta_max=1.0)
        for scale in (float("nan"), float("inf")):
            with pytest.raises(ModelError, match="scale"):
                TruncatedRayleighSpec(scale=scale)


class TestSampling:
    def test_fixed_seed_reproduces(self):
        m = build_model(TwoStateSpec(1.0, 4.0), 3)
        a = m.sample_path(500, rng_of(42))
        b = m.sample_path(500, rng_of(42))
        np.testing.assert_array_equal(a, b)

    def test_markov_seed_reproduces(self):
        law = MarkovJointLaw([[0.9, 0.1], [0.1, 0.9]], dims=(2,))
        a = law.sample_path(500, rng_of(7))
        b = law.sample_path(500, rng_of(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("law", ["product", "markov"])
    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_is_refused(self, law, horizon):
        if law == "product":
            m = build_model(TwoStateSpec(1.0, 4.0), 2)
        else:
            m = ChannelModel(([1.0, 4.0],), MarkovJointLaw([[0.9, 0.1], [0.2, 0.8]], (2,)))
        with pytest.raises(ValueError, match="horizon"):
            m.sample_path(horizon, rng_of(3))

    def test_forced_initial_state(self):
        m = build_model(TwoStateSpec(1.0, 4.0), 2)
        path = m.sample_path(10, rng_of(3), initial=(1, 0))
        assert tuple(path[0]) == (1, 0)
        with pytest.raises(ValueError):
            m.sample_path(10, rng_of(3), initial=(5, 0))

    def test_iid_next_state_independent_of_current(self):
        # chi-squared homogeneity: next-state counts after two different
        # current states, from consecutive stages of one path;
        # dof = (2-1)(4-1) = 3, crit chi2_{0.999}(3) = 16.266
        law = IIDProductLaw([np.array([0.5, 0.5]), np.array([0.25, 0.75])])
        n = 50_000
        path = law.sample_path(10 * n, rng_of(9))
        flat = path[:, 0] * 2 + path[:, 1]
        counts = np.zeros((2, 4))
        for g, current in enumerate([0, 3]):  # joint states (0, 0) and (1, 1)
            after = flat[1:][flat[:-1] == current][:n]
            assert after.size == n
            counts[g] = np.bincount(after, minlength=4)
        pooled = counts.sum(axis=0) / counts.sum()
        stat = 0.0
        for g in range(2):
            expected = pooled * n
            stat += ((counts[g] - expected) ** 2 / expected).sum()
        assert stat < 16.266

    def test_markov_empirical_stationary(self):
        law = MarkovJointLaw([[0.9, 0.1], [0.1, 0.9]], dims=(2,))
        path = law.sample_path(100_000, rng_of(11)).ravel()
        freq = np.bincount(path, minlength=2) / path.size
        # eigenvector oracle
        vals, vecs = np.linalg.eig(np.array([[0.9, 0.1], [0.1, 0.9]]).T)
        v = np.real(vecs[:, np.argmax(np.real(vals))])
        v = v / v.sum()
        assert np.all(np.abs(freq - v) <= 0.01)


def markov_path_reference(law, horizon, rng, initial=None):
    """``MarkovJointLaw.sample_path`` as one ``np.searchsorted`` per stage."""
    u = rng.random(horizon)
    flat = np.empty(horizon, dtype=np.int64)
    if initial is None:
        cum0 = np.cumsum(law.stationary_joint())
        cum0[-1] = 1.0
        flat[0] = np.searchsorted(cum0, u[0], side="right")
    else:
        flat[0] = int(np.ravel_multi_index(tuple(initial), law.dims))
    for t in range(1, horizon):
        flat[t] = np.searchsorted(law._cum[flat[t - 1]], u[t], side="right")
    return np.stack(np.unravel_index(flat, law.dims), axis=-1).astype(np.int64)


def _random_markov(dims, seed):
    size = math.prod(dims)
    rows = rng_of(seed).uniform(0.05, 1.0, (size, size))
    return MarkovJointLaw(rows / rows.sum(axis=1, keepdims=True), dims)


def _zero_entry_markov():
    # entries of 1e-20 leave the running sum as it was, as zeros would, so
    # cumulative values repeat inside a row (a law refuses exact zeros)
    matrix = [[0.5, 1e-20, 0.5, 1e-20], [1e-20, 1e-20, 1e-20, 1.0],
              [0.25, 1e-20, 1e-20, 0.75], [0.3, 0.2, 1e-20, 0.5]]
    law = MarkovJointLaw(matrix, (4,))
    assert np.count_nonzero(np.diff(law._cum, axis=1) == 0) == 5
    return law


def _overshooting_markov():
    # row 1 sums to 1 + 5e-13: its cumulative sums pass 1.0 before the
    # last entry, which construction then forces back to 1.0
    matrix = [[0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.5 + 4e-13, 1e-13],
              [0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]]
    law = MarkovJointLaw(matrix, (4,))
    assert law._cum[1, -2] > 1.0 and law._cum[1, -1] == 1.0
    return law


def _spiked_markov(size=64):
    # each row puts all but (size - 1) * 1e-6 of its mass on one state, so
    # the bucket below that state's entry and the last bucket each hold
    # many cumulative values
    matrix = np.full((size, size), 1e-6)
    spike = (7 * np.arange(size) + 3) % size
    matrix[np.arange(size), spike] = 1.0 - (size - 1) * 1e-6
    return MarkovJointLaw(matrix, (size,))


MARKOV_LAWS = {
    "1": lambda: MarkovJointLaw([[1.0]], (1,)),
    "2": lambda: _random_markov((2,), 1),
    "3x5": lambda: _random_markov((3, 5), 4),
    "16x16": lambda: _random_markov((16, 16), 2),
    "4x4x4x4": lambda: _random_markov((4, 4, 4, 4), 3),
    "zero_entries": _zero_entry_markov,
    "overshoot": _overshooting_markov,
    "spiked": _spiked_markov,
}


class TestMarkovStepper:
    @pytest.mark.parametrize("horizon", [1, 2, 1000])
    @pytest.mark.parametrize("name,initial", [
        (name, initial) for name in MARKOV_LAWS for initial in (None, "last")
    ])
    def test_matches_per_stage_searchsorted(self, name, initial, horizon):
        law = MARKOV_LAWS[name]()
        if initial == "last":
            initial = tuple(d - 1 for d in law.dims)
        for seed in range(3):
            got = law.sample_path(horizon, rng_of(seed), initial)
            want = markov_path_reference(law, horizon, rng_of(seed), initial)
            assert got.dtype == want.dtype and got.shape == (horizon, len(law.dims))
            np.testing.assert_array_equal(got, want)

    def test_overshooting_row_is_visited(self):
        # the comparison above only means something if the chain steps
        # out of the overshooting row
        law = _overshooting_markov()
        flat = law.sample_path(1000, rng_of(0), (1,)).ravel()
        assert np.count_nonzero(flat[:-1] == 1) > 100

    def test_a_bucket_of_the_spiked_law_holds_many_states(self):
        law = _spiked_markov()
        law.sample_path(2, rng_of(0))
        assert max(max(np.diff(guide)) for guide in law._guides) >= 30

    @pytest.mark.parametrize("name", list(MARKOV_LAWS))
    def test_uniforms_on_bucket_edges_and_cumulative_values(self, name):
        # from a given state, step once with every bucket edge k/G, every
        # cumulative value of that state's row below 1, and the double just
        # below each of them and below 1
        law = MARKOV_LAWS[name]()
        size = law.matrix.shape[0]
        buckets = 1 << (size - 1).bit_length()
        rows = range(size) if size <= 64 else (0, 1, size // 2, size - 1)
        for row in rows:
            cum = law._cum[row]
            edges = np.concatenate([np.arange(buckets) / buckets, cum[cum < 1.0], [1.0]])
            initial = tuple(int(i) for i in np.unravel_index(row, law.dims))
            for x in np.concatenate([edges[:-1], np.nextafter(edges[edges > 0], 0.0)]):
                got = law.sample_path(2, FixedUniforms([0.5, x]), initial)
                want = markov_path_reference(law, 2, FixedUniforms([0.5, x]), initial)
                assert got.tobytes() == want.tobytes(), (row, x)

    @pytest.mark.parametrize("size", [2, 15, 256])
    def test_guide_takes_at_most_the_bytes_of_the_cdf(self, size):
        law = _random_markov((size,), size)
        law.sample_path(2, rng_of(0))
        assert sum(guide.nbytes for guide in law._guides) <= law._cum.nbytes

    @pytest.mark.parametrize("name", list(MARKOV_LAWS))
    def test_guide_counts_the_cumulative_values_at_each_bucket_edge(self, name):
        law = MARKOV_LAWS[name]()
        size = law.matrix.shape[0]
        buckets = 1 << (size - 1).bit_length()
        edges = np.arange(buckets) / buckets
        for row, guide in zip(law._cum, law._guides):
            want = np.append(np.searchsorted(row, edges, side="right"), size - 1)
            assert np.asarray(guide).tolist() == want.tolist()

    def test_tables_are_built_on_the_first_draw(self, tmp_path):
        law = _random_markov((16, 16), 2)
        save_model(ChannelModel((np.arange(1.0, 17.0),) * 2, law), tmp_path / "m.json")
        for law in (law, load_model(tmp_path / "m.json").law):
            assert not {"_cum", "_rows", "_guides"} & set(vars(law))
            law.sample_path(2, rng_of(0))
            assert {"_cum", "_rows", "_guides"} <= set(vars(law))


def _flat_draw_laws():
    """One law of each family, and each of the two product-law draws."""
    mu = rng_of(8).uniform(0.2, 1.0, 15)
    return {
        "product_dyadic": IIDProductLaw([np.full(16, 1 / 16)] * 2),
        "product_searchsorted": IIDProductLaw([[0.7, 0.3], [0.2, 0.5, 0.3]]),
        "joint": IIDJointLaw(mu / mu.sum(), (3, 5)),
        **{f"markov_{name}": make() for name, make in MARKOV_LAWS.items()},
    }


class TestFlatDraw:
    @pytest.mark.parametrize("name", list(_flat_draw_laws()))
    @pytest.mark.parametrize("initial", [None, "last"])
    def test_flat_draw_is_the_flattened_path(self, name, initial):
        law = _flat_draw_laws()[name]
        if name.startswith("product"):
            assert (law._dyadic_bins is not None) == (name == "product_dyadic")
        if initial == "last":
            initial = tuple(d - 1 for d in law.dims)
        model = ChannelModel(tuple(np.arange(1.0, d + 1.0) for d in law.dims), law)
        for horizon in (1, 2, 300):
            path = law.sample_path(horizon, rng_of(horizon), initial)
            want = np.ravel_multi_index(path.T, law.dims)
            for flat in (law.sample_flat(horizon, rng_of(horizon), initial),
                         model.sample_flat(horizon, rng_of(horizon), initial)):
                assert flat.dtype == np.int64 and flat.tobytes() == want.tobytes()
            assert model.sample_path(horizon, rng_of(horizon), initial).tobytes() == path.tobytes()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_is_refused(self, horizon):
        m = build_model(TwoStateSpec(1.0, 4.0), 2)
        with pytest.raises(ValueError, match="horizon"):
            m.sample_flat(horizon, rng_of(3))

    @pytest.mark.parametrize("law", ["product", "markov"])
    @pytest.mark.parametrize("horizon", [5.7, 3.0, True, False, "3", np.float64(3.0),
                                         np.bool_(True), None])
    def test_non_integer_horizon_is_refused_by_both_draws(self, law, horizon):
        # int(horizon) drew 5 stages for 5.7, 1 for True and 3 for "3"
        if law == "product":
            m = build_model(TwoStateSpec(1.0, 4.0), 2)
        else:
            m = ChannelModel(([1.0, 4.0],), MarkovJointLaw([[0.9, 0.1], [0.2, 0.8]], (2,)))
        for draw in (m.sample_path, m.sample_flat):
            with pytest.raises(ValueError, match="horizon must be an integer"):
                draw(horizon, rng_of(3))

    def test_numpy_integer_horizon_accepted(self):
        m = build_model(TwoStateSpec(1.0, 4.0), 2)
        for horizon in (np.int64(7), np.uint8(7), np.int32(7)):
            for draw in (m.sample_path, m.sample_flat):
                assert draw(horizon, rng_of(3)).tobytes() == draw(7, rng_of(3)).tobytes()

    @pytest.mark.parametrize("initial", [
        (1,), (1, 0, 0), (2, 0), (0, -1), (1.0, 0), (np.float64(1.0), 0), (True, 0),
        (np.bool_(True), 0), ("1", 0), 1, 1.5, None,
    ])
    def test_bad_initial_state_is_refused_by_both_draws(self, initial):
        m = build_model(TwoStateSpec(1.0, 4.0), 2)
        if initial is None:  # a ragged row: not one index per player
            initial = [np.array([1, 0]), 0]
        for draw in (m.sample_path, m.sample_flat):
            with pytest.raises(ValueError, match="invalid initial state"):
                draw(10, rng_of(3), initial)

    def test_numpy_integer_initial_state_accepted(self):
        m = build_model(TwoStateSpec(1.0, 4.0), 2)
        for initial in ((np.int64(1), np.uint8(0)), np.array([1, 0]), [1, 0]):
            assert m.sample_path(5, rng_of(3), initial)[0].tolist() == [1, 0]
            assert m.sample_flat(5, rng_of(3), initial)[0] == 2


class TestStationary:
    @pytest.mark.parametrize("name", list(MARKOV_LAWS))
    def test_markov_solve_takes_the_transposed_system_bit_for_bit(self, name):
        # the system is built as a Fortran-order view of P - I; LAPACK must
        # see the values of the C-order P^T - I and return the same bits
        law = MARKOV_LAWS[name]()
        n = law.matrix.shape[0]
        a = law.matrix.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        mu = np.clip(np.linalg.solve(a, b), 0.0, None)
        assert law.stationary_joint().tobytes() == (mu / mu.sum()).tobytes()

    def test_iid_returns_mu(self):
        law = IIDJointLaw([0.2, 0.3, 0.5], dims=(3,))
        np.testing.assert_allclose(stationary_distribution(law), [0.2, 0.3, 0.5])

    def test_product_law_joint(self):
        law = IIDProductLaw([np.array([0.5, 0.5]), np.array([0.25, 0.75])])
        np.testing.assert_allclose(
            stationary_distribution(law), [0.125, 0.375, 0.125, 0.375]
        )

    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]),
            ([[0.5, 0.5], [0.25, 0.75]], [1 / 3, 2 / 3]),
        ],
    )
    def test_markov_solutions(self, matrix, expected):
        # oracle: solve mu (P - I) = 0 with normalization via lstsq
        law = MarkovJointLaw(matrix, dims=(2,))
        mu = stationary_distribution(law)
        np.testing.assert_allclose(mu, expected, atol=1e-10)
        p = np.asarray(matrix)
        a = np.vstack([p.T - np.eye(2), np.ones(2)])
        b = np.array([0.0, 0.0, 1.0])
        oracle, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(mu, oracle, atol=1e-10)
        assert np.max(np.abs(mu @ p - mu)) <= 1e-10

    def test_reducible_rejected_at_construction(self):
        with pytest.raises(ReducibleLawError):
            MarkovJointLaw([[1.0, 0.0], [0.0, 1.0]], dims=(2,))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ModelError):
            MarkovJointLaw([[0.9, 0.2], [0.1, 0.9]], dims=(2,))


class TestExplicitAndFiles:
    def test_explicit_markov_model(self):
        m = ChannelModel(((1.0, 4.0),), MarkovJointLaw(((0.9, 0.1), (0.2, 0.8)), (2,)))
        assert m.joint_size == 2
        assert m.sup_gain == 4.0

    def test_round_trip_markov(self, tmp_path):
        m = ChannelModel(((1.0, 4.0), (2.0, 3.0)), MarkovJointLaw(np.full((4, 4), 0.25), (2, 2)))
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.n_players == 2
        np.testing.assert_allclose(loaded.gains[1], [2.0, 3.0])
        np.testing.assert_allclose(loaded.law.matrix, 0.25)

    def test_round_trip_iid(self, tmp_path):
        m = build_model(TwoStateSpec(1.0, 4.0, 0.3), 2)
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.law.stationary_joint(), m.law.stationary_joint()
        )

    @pytest.mark.parametrize("kind", ["markov16", "iid_joint", "rayleigh16"])
    def test_round_trip_is_bitwise(self, tmp_path, kind):
        rng = rng_of(77)
        if kind == "markov16":
            rows = rng.uniform(0.1, 1.0, (16, 16))
            rows /= rows.sum(axis=1, keepdims=True)
            gains = (np.sort(rng.uniform(0.2, 5.0, 4)), np.sort(rng.uniform(0.2, 5.0, 4)))
            m = ChannelModel(gains, MarkovJointLaw(rows, (4, 4)))
            law_values = m.law.matrix
        elif kind == "iid_joint":
            mu = rng.uniform(0.1, 1.0, 6)
            m = ChannelModel(([0.3, 1.7], [0.5, 1.1, 2.9]), IIDJointLaw(mu / mu.sum(), (2, 3)))
            law_values = m.law.mu
        else:
            m = build_model(TruncatedRayleighSpec(bins=16), 2)
            assert isinstance(m.law, IIDProductLaw)
            law_values = m.law.stationary_joint()
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert [g.tobytes() for g in loaded.gains] == [g.tobytes() for g in m.gains]
        got = loaded.law.matrix if kind == "markov16" else loaded.law.stationary_joint()
        assert got.shape == law_values.shape
        assert got.tobytes() == law_values.tobytes()
        assert got.flags.writeable and got.dtype == np.float64

    def test_saved_bytes_are_pinned(self, tmp_path):
        # save_model output is a pure function of the model
        path, _ = self._saved_two_state_markov(tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_MODEL_FILE_SHA256

    def test_checksum_mismatch_detected(self, tmp_path):
        m = build_model(TwoStateSpec(1.0, 4.0), 1)
        path = tmp_path / "model.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["mu"] = _b64([0.4, 0.7])  # well-formed payload, wrong content
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="content checksum"):
            load_model(path)

    def _saved_two_state_markov(self, tmp_path):
        law = MarkovJointLaw([[0.9, 0.1], [0.5, 0.5]], (2, 1))
        path = tmp_path / "model.json"
        save_model(ChannelModel(([1.0, 2.0], [1.5]), law), path)
        return path, json.loads(path.read_text())

    def test_swapped_transition_matrix_detected(self, tmp_path):
        # same size, same row sums: the v1 row-sum checksum accepted this
        path, doc = self._saved_two_state_markov(tmp_path)
        doc["transition"] = _b64([[0.2, 0.8], [0.7, 0.3]])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="content checksum"):
            load_model(path)

    def test_edited_gain_detected(self, tmp_path):
        path, doc = self._saved_two_state_markov(tmp_path)
        doc["gains"][0][1] = 2.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="content checksum"):
            load_model(path)

    def test_v1_file_is_refused(self, tmp_path):
        # a v1 label must not skip the content check: here it would hide a
        # swapped transition matrix whose row sums still match
        path, doc = self._saved_two_state_markov(tmp_path)
        doc["transition"] = [[0.2, 0.8], [0.7, 0.3]]
        doc["format"] = "powergame-channel-model-v1"
        del doc["content_sha256"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="format"):
            load_model(path)

    def test_v2_file_is_refused(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(SMALL_MODEL_V2))
        with pytest.raises(ModelError, match="unknown format 'powergame-channel-model-v2'"):
            load_model(path)

    def test_v2_file_migrates_to_the_same_content_hash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model_v2.json").write_text(json.dumps(SMALL_MODEL_V2))
        exec(_readme_v2_migration(), {})
        path = tmp_path / "model_v3.json"
        assert json.loads(path.read_text())["content_sha256"] == SMALL_MODEL_V2["content_sha256"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_MODEL_FILE_SHA256

    def test_v2_iid_file_migrates_to_the_same_bytes(self, tmp_path, monkeypatch):
        # the README migration on an i.i.d. file: the v2 form of a saved v3 file
        monkeypatch.chdir(tmp_path)
        mu = IIDJointLaw([0.1, 0.2, 0.3, 0.4], (2, 2))
        save_model(ChannelModel(([1.0, 4.0], [0.5, 2.0]), mu), "saved.json")
        doc = json.loads(Path("saved.json").read_text())
        doc["mu"] = np.frombuffer(base64.b64decode(doc["mu"]), dtype="<f8").tolist()
        doc["format"] = "powergame-channel-model-v2"
        Path("model_v2.json").write_text(json.dumps(doc))
        exec(_readme_v2_migration(), {})
        assert Path("model_v3.json").read_bytes() == Path("saved.json").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], "top level must be a JSON object, not list"),
        (lambda doc: dict(doc, gains=5), "gains must be a non-empty list"),
        (lambda doc: dict(doc, gains=[]), "gains must be a non-empty list"),
        (lambda doc: dict(doc, gains=[[1.0, 2.0], []]), "gains must be a non-empty list"),
        (lambda doc: dict(doc, gains=[[1.0, "2"], [1.5]]), "gains must be a non-empty list"),
        (lambda doc: dict(doc, gains=[[1.0, True], [1.5]]), "gains must be a non-empty list"),
        (lambda doc: dict(doc, gains=[[1.0, 10 ** 400], [1.5]]), "gains hold a number too large"),
        (lambda doc: dict(doc, mu=_b64([0.5, 0.5])), "exactly one of mu or transition"),
        (lambda doc: dict(doc, transition=[[0.9, 0.1], [0.5, 0.5]]),
         "transition must be a base64 string, not list"),
        (lambda doc: dict(doc, transition=None), "transition must be a base64 string, not NoneType"),
        (lambda doc: dict(doc, transition=doc["transition"][:-1]), "transition is not valid base64"),
        (lambda doc: dict(doc, transition="*" + doc["transition"][1:]),
         "transition is not valid base64"),
        (lambda doc: dict(doc, transition="\u00e9" + doc["transition"][1:]),
         "transition is not valid base64"),
        (lambda doc: dict(doc, transition=_b64([0.9, 0.1, 0.5])),
         "transition holds 24 bytes, expected 32"),
        (lambda doc: dict(doc, transition=_b64(np.full((3, 3), 1 / 3))),
         "transition holds 72 bytes, expected 32"),
        (lambda doc: {k: v for k, v in doc.items() if k != "content_sha256"},
         "content checksum"),
    ])
    def test_malformed_file_raises_model_error(self, tmp_path, edit, message):
        path, doc = self._saved_two_state_markov(tmp_path)
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(ModelError, match=message):
            load_model(path)

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="JSON"):
            load_model(path)

    def test_non_utf8_file_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(ModelError, match="UTF-8"):
            load_model(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelError, match="format"):
            load_model(path)


def _readme_v2_migration() -> str:
    """The v2 -> v3 migration snippet of README "Channel model files"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (snippet,) = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S)
                  if "model_v2.json" in b]
    return snippet


def _b64(values) -> str:
    """A ``mu``/``transition`` payload as a model file stores it."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


# the file that ``_saved_two_state_markov`` writes, and the same model as
# the v2 format's ``save_model`` wrote it (the content hash is unchanged)
SMALL_MODEL_FILE_SHA256 = "a40e1ea41b02d6e5ceaede06029a22ae7a0a23167c2e9b1adea7dee1d9575ead"
SMALL_MODEL_V2 = {
    "content_sha256": "676e24726d0d859797891f6d69d9dcfd583163ce945879dc855ba02e63911893",
    "format": "powergame-channel-model-v2",
    "gains": [[1.0, 2.0], [1.5]],
    "transition": [[0.9, 0.1], [0.5, 0.5]],
}


def test_gain_must_be_positive():
    with pytest.raises(ModelError):
        ChannelModel((np.array([0.0, 1.0]),), IIDProductLaw([np.array([0.5, 0.5])]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_gain_must_be_finite(bad):
    with pytest.raises(ModelError, match="gains"):
        ChannelModel((np.array([bad, 1.0]),), IIDProductLaw([np.array([0.5, 0.5])]))


@pytest.mark.parametrize("law", [
    pytest.param(lambda: IIDProductLaw([]), id="product"),
    pytest.param(lambda: IIDJointLaw([1.0], ()), id="iid_joint"),
    pytest.param(lambda: MarkovJointLaw([[1.0]], ()), id="markov"),
])
def test_a_model_needs_at_least_one_player(law):
    # a law over no players would sample (horizon, 0) paths or fail inside numpy
    with pytest.raises(ModelError, match="at least one player"):
        ChannelModel((), law())


LAW_OF_ROW = {
    "product": lambda row: IIDProductLaw([np.array([0.5, 0.5]), np.array(row)]),
    "iid_joint": lambda row: IIDJointLaw(row, dims=(len(row),)),
    "markov": lambda row: MarkovJointLaw([[0.5, 0.25, 0.25], row, [0.2, 0.3, 0.5]], dims=(3,)),
}


@pytest.mark.parametrize("law", list(LAW_OF_ROW))
@pytest.mark.parametrize("row, error", [
    ([0.5, 0.0, 0.5], ReducibleLawError),
    ([0.0, 0.0, 1.0], ReducibleLawError),
    ([0.6, -0.1, 0.5], ModelError),
    ([float("nan"), 0.5, 0.5], ModelError),
    ([0.4, 0.4, 0.4], ModelError),
    ([0.3, 0.3, 0.3], ModelError),
])
def test_every_law_runs_one_probability_check(law, row, error):
    LAW_OF_ROW[law]([0.2, 0.3, 0.5])  # the row the cases edit is a valid one
    with pytest.raises(error):
        LAW_OF_ROW[law](row)


@pytest.mark.parametrize("build", [
    lambda: IIDProductLaw([np.array([0.5, 0.5]), np.array([])]),
    lambda: IIDJointLaw(np.zeros(0), dims=(2, 0)),
    lambda: MarkovJointLaw(np.zeros((0, 0)), dims=(0,)),
    lambda: MarkovJointLaw(np.zeros((0, 0)), dims=(2, 0)),
])
def test_a_law_without_states_is_refused(build):
    with pytest.raises(ModelError, match="no states"):
        build()


def test_nan_probabilities_rejected():
    nan = float("nan")
    with pytest.raises(ModelError):
        IIDProductLaw([np.array([nan, 0.5])])
    with pytest.raises(ModelError):
        IIDJointLaw([nan, 0.5], dims=(2,))
    with pytest.raises(ModelError):
        MarkovJointLaw([[nan, 0.5], [0.5, 0.5]], dims=(2,))


def _gain_models():
    rng = rng_of(77)
    table = rng.uniform(0.1, 9.0, 6)
    return {
        "two_state": build_model(TwoStateSpec(0.5, 2.5, 0.3), 3),
        "rayleigh": build_model(TruncatedRayleighSpec(bins=16), 4),
        # equal tables held as separate arrays are one shared table too
        "equal_copies": ChannelModel((table, table.copy()), IIDJointLaw(np.full(36, 1 / 36), (6, 6))),
        "explicit": ChannelModel(tuple(rng.uniform(0.1, 9.0, d) for d in (16, 8, 4)),
                                 IIDProductLaw([np.full(d, 1.0 / d) for d in (16, 8, 4)])),
        # same dims, different tables: the per-player gather
        "distinct": ChannelModel((table, table[::-1]), IIDJointLaw(np.full(36, 1 / 36), (6, 6))),
    }


@pytest.mark.parametrize("name", ["two_state", "rayleigh", "equal_copies", "explicit",
                                  "distinct"])
@pytest.mark.parametrize("lead", [(), (1,), (7,), (0,), (3, 5), (2, 1, 4)])
def test_gain_matrix_matches_the_per_player_gather(name, lead):
    model = _gain_models()[name]
    assert (model._shared_gains is not None) == (name not in ("explicit", "distinct"))
    dims = np.array(model.law.dims)
    rng = rng_of(len(lead))
    idx = rng.integers(0, dims, lead + (dims.size,))
    for index in (idx, idx - dims, idx.astype(np.int32)):  # negative indices count from the end
        got = model.gain_matrix(index)
        want = gain_matrix_oracle(model, index)
        assert got.shape == want.shape == idx.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["two_state", "rayleigh", "equal_copies", "explicit",
                                  "distinct"])
def test_gain_matrix_refuses_an_index_out_of_range(name):
    model = _gain_models()[name]
    dims = np.array(model.law.dims)
    for player in range(dims.size):
        for bad in (dims[player], -dims[player] - 1):
            idx = np.zeros((3, dims.size), dtype=np.int64)
            idx[1, player] = bad
            with pytest.raises(IndexError):
                gain_matrix_oracle(model, idx)
            with pytest.raises(IndexError):
                model.gain_matrix(idx)


@pytest.mark.parametrize("name", ["two_state", "explicit"])
def test_gain_matrix_needs_one_index_per_player(name):
    # a wider index array used to leave its extra columns uninitialized
    model = _gain_models()[name]
    k = model.n_players
    for shape in ((k + 2,), (4, k - 1), (4, k + 1), ()):
        with pytest.raises(ValueError, match="state indices per row"):
            model.gain_matrix(np.zeros(shape, dtype=np.int64))
