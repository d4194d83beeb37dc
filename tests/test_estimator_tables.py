"""The Monte Carlo estimator's fast paths against their per-stage references.

When the joint space is no larger than the horizon, ``estimate_expected_utilities``
plans every entry once per distinct visited joint state; a single rule other
than the social optimum, under its caps, is evaluated there and its utility
rows are gathered along the path, any other entry gathers its plan and plays
per stage.
``run_game`` takes the same path.  ``IIDProductLaw`` draws uniform laws
over 2^m bins as ``floor(u * n)``.  Both must give the bits the per-stage
play and ``searchsorted`` give.

A single rule other than the social optimum takes its compliant utilities
from the SINR the rule gives each transmitter, on the table and per stage
alike.  Against the SINR route (``engine_oracle.compliant_utility_oracle``)
they agree within 1e-13 relative, and bit for bit under time sharing.
"""

import numpy as np
import pytest
from engine_oracle import compliant_utility_oracle, run_game_oracle

from powergame import analysis, engine
from powergame.channels import (
    ExplicitSpec,
    MarkovJointLaw,
    TruncatedRayleighSpec,
    TwoStateSpec,
    build_model,
)
from powergame.engine import (
    EngineConfig,
    _draw_states,
    _normalize_kinds,
    _play,
    estimate_expected_utilities,
    run_game,
)
from powergame.efficiency import ExponentialEfficiency
from powergame.errors import CapError, ModelError, SaturationError
from powergame.oneshot import GameParams, sinr
from powergame.strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    threshold,
)

CLOSED_FORM_RULES = [NASH, OPERATING_POINT, TIME_SHARING, threshold(0.5), BEST_USERS]
SINGLE_RULES = CLOSED_FORM_RULES + [SOCIAL_OPTIMUM]
# closed-form utilities against the SINR route (time sharing: bit for bit)
SINR_ROUTE_RTOL = 1e-13


def _markov_8_state():
    rows = np.random.default_rng(808).uniform(0.1, 1.0, (8, 8))
    rows /= rows.sum(axis=1, keepdims=True)
    matrix = 0.6 * np.eye(8) + 0.4 * rows
    gains = (np.array([0.4, 2.5]), np.array([0.3, 1.1, 1.9, 3.7]))
    return build_model(ExplicitSpec(gains, transition=matrix), 2)


MODELS = {
    "two_state_k4": (lambda: build_model(TwoStateSpec(1.0, 4.0, 0.5), 4), 4, 2000),
    "rayleigh16_k2": (lambda: build_model(TruncatedRayleighSpec(bins=16), 2), 2, 3000),
    "markov_8_state": (_markov_8_state, 2, 2000),
}


def _path_gains(model, horizon, seed, r):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
    return model.gain_matrix(model.sample_path(horizon, rng))


def _per_stage(params, model, kinds, horizon, seed, replicates):
    """Each replicate's time average from ``_play`` over the whole drawn path."""
    out = []
    for r in range(replicates):
        cfg = EngineConfig(horizon=horizon, lam=0.5, seed=seed, spawn_key=(r,))
        eta = _path_gains(model, horizon, seed, r)
        out.append(_play(params, _normalize_kinds(kinds, params.n_players), eta, None, cfg)[4]
                   .mean(axis=0))
    return np.array(out)


def _sinr_route(params, model, kind, horizon, seed, replicates):
    """``_per_stage`` with utilities from ``compliant_utility_oracle``."""
    return np.array([
        compliant_utility_oracle(params, kind, _path_gains(model, horizon, seed, r)).mean(axis=0)
        for r in range(replicates)])


@pytest.fixture
def played_rows(monkeypatch):
    """Row counts of every ``_play`` call the estimator makes."""
    rows = []

    def spy(params, kinds, eta, stage_rows, cfg):
        rows.append(eta.shape[0])
        return _play(params, kinds, eta, stage_rows, cfg)

    monkeypatch.setattr(engine, "_play", spy)
    return rows


@pytest.mark.parametrize("name", list(MODELS))
def test_tables_match_the_per_stage_play(name, played_rows):
    make, k, horizon = MODELS[name]
    model = make()
    params = GameParams.symmetric(k, a=0.1)
    mixed = (BEST_USERS,) + (NASH,) * (k - 1)
    kinds_list = SINGLE_RULES + [mixed]
    got = estimate_expected_utilities(params, model, kinds_list, horizon, seed=41,
                                      replicates=3)
    # every entry, the mixed one too, is planned on at most joint_size rows
    assert len(played_rows) == 3 * len(kinds_list)
    assert max(played_rows) <= model.joint_size
    for kinds, est in zip(kinds_list, got):
        want = _per_stage(params, model, kinds, horizon, 41, 3)
        assert est.per_replicate.tobytes() == want.tobytes(), kinds
        if kinds in CLOSED_FORM_RULES:
            np.testing.assert_allclose(
                want, _sinr_route(params, model, kinds, horizon, 41, 3),
                rtol=SINR_ROUTE_RTOL, atol=0, err_msg=kinds.label)


LAWS = {
    "two_state": TwoStateSpec(1.0, 4.0, 0.5),
    "rayleigh12": TruncatedRayleighSpec(bins=12),
    "rayleigh16": TruncatedRayleighSpec(bins=16),
}
KERNEL_CASES = [(law, k) for law in LAWS for k in (1, 2, 5, 10)] + [("markov_8_state", 2)]


@pytest.mark.parametrize("kind", CLOSED_FORM_RULES, ids=lambda kind: kind.label)
@pytest.mark.parametrize("law, k", KERNEL_CASES, ids=[f"{law}-K{k}" for law, k in KERNEL_CASES])
def test_closed_form_utilities_match_the_sinr_route(law, k, kind, monkeypatch):
    sinr_calls = []
    monkeypatch.setattr(engine, "sinr", lambda *args: sinr_calls.append(args) or sinr(*args))
    model = _markov_8_state() if law == "markov_8_state" else build_model(LAWS[law], k)
    eta = _path_gains(model, 400, k, 0)
    cfg = EngineConfig(horizon=400, lam=0.5, seed=0)
    unequal = np.linspace(0.5, 2.0, k)
    for a in (0.02, 0.1, 0.37, 1.5):
        if kind == NASH and (k - 1) * a >= 1.0:
            continue  # no selfish equilibrium
        for sigma2 in (0.3, 1.0, 2.9):
            rates = [1.0] if kind == BEST_USERS else [1.0, unequal]  # best users: equal only
            caps = [np.inf]
            if kind == TIME_SHARING:  # caps near the median solo power bind on some rows
                caps.append(a * sigma2 / np.median(eta.max(axis=1)) * np.linspace(0.8, 1.2, k))
            for rate in rates:
                for p_max in caps:
                    params = GameParams(k, ExponentialEfficiency(a), rates=rate,
                                        sigma2=sigma2, p_max=p_max)
                    _, powers, _, _, got, _ = _play(params, (kind,) * k, eta, None, cfg)
                    assert not sinr_calls  # no SINR pass
                    want = compliant_utility_oracle(params, kind, eta)
                    if kind == TIME_SHARING:
                        assert np.isinf(p_max).all() or (powers == p_max).any()
                        assert got.tobytes() == want.tobytes()
                    else:
                        np.testing.assert_allclose(got, want, rtol=SINR_ROUTE_RTOL, atol=0)


def test_joint_spaces_larger_than_the_horizon_play_per_stage(played_rows):
    model = build_model(TruncatedRayleighSpec(bins=16), 4)  # 65536 joint states
    params = GameParams.symmetric(4, a=0.1)
    (est,) = estimate_expected_utilities(params, model, [BEST_USERS], 2000, seed=3,
                                         replicates=2)
    assert played_rows == [2000, 2000]
    want = _per_stage(params, model, BEST_USERS, 2000, 3, 2)
    assert est.per_replicate.tobytes() == want.tobytes()


def _rare_low_gain_model(low_mass):
    """Two players, three gains each; the joint states where either player
    has its lowest gain carry ``low_mass`` in total."""
    gains = (np.array([0.01, 1.0, 2.0]), np.array([0.02, 1.0, 2.0]))
    low = np.zeros((3, 3), dtype=bool)
    low[0, :] = low[:, 0] = True
    mu = np.where(low, low_mass / low.sum(), (1.0 - low_mass) / (~low).sum())
    return build_model(ExplicitSpec(gains, mu=mu.ravel()), 2)


@pytest.mark.parametrize("kind", [NASH, OPERATING_POINT])
def test_a_cap_binding_only_in_unvisited_states_never_raises(kind, played_rows):
    # at p_max 1 only the lowest gains (0.01, 0.02) need more power than the cap
    model = _rare_low_gain_model(1e-12)
    params = GameParams.symmetric(2, a=0.1, p_max=1.0)
    (est,) = estimate_expected_utilities(params, model, [kind], 200, seed=5, replicates=3)
    assert played_rows == [4, 4, 4]  # the four states without a lowest gain, no replay
    assert est.per_replicate.tobytes() == _per_stage(params, model, kind, 200, 5, 3).tobytes()


@pytest.mark.parametrize("kind, error", [(NASH, SaturationError), (OPERATING_POINT, CapError)])
def test_a_cap_binding_in_a_visited_state_raises_the_first_stage_error(kind, error):
    model = _rare_low_gain_model(5 / 9)
    params = GameParams.symmetric(2, a=0.1, p_max=1.0)
    horizon, seed = 40, 1
    with pytest.raises(error) as per_stage:
        _per_stage(params, model, kind, horizon, seed, 1)
    # the table's first failing state is not the first failing stage's, so
    # the table's own error would name another player and power
    cfg = EngineConfig(horizon=horizon, lam=0.5, seed=seed, spawn_key=(0,))
    table_eta, _ = _draw_states(params, model, cfg)
    with pytest.raises(error) as table:
        _play(params, (kind, kind), table_eta, None, cfg)
    assert str(table.value) != str(per_stage.value)
    with pytest.raises(error) as got:
        estimate_expected_utilities(params, model, [kind], horizon, seed=seed, replicates=1)
    assert str(got.value) == str(per_stage.value)


@pytest.mark.parametrize("kind", [NASH, OPERATING_POINT])
def test_run_game_ignores_a_cap_binding_only_in_unvisited_states(kind, played_rows):
    model = _rare_low_gain_model(1e-12)
    params = GameParams.symmetric(2, a=0.1, p_max=1.0)
    cfg = EngineConfig(horizon=200, lam=0.2, seed=5)
    got = run_game(params, model, kind, cfg)
    assert played_rows == [4]
    want = run_game_oracle(params, model, kind, cfg)
    for name in ("eta", "powers", "sinr", "utility"):
        np.testing.assert_allclose(getattr(got.trace, name), getattr(want.trace, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(got.discounted, want.discounted, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, error", [(NASH, SaturationError), (OPERATING_POINT, CapError)])
def test_run_game_raises_the_first_failing_stage_error(kind, error):
    model = _rare_low_gain_model(5 / 9)
    params = GameParams.symmetric(2, a=0.1, p_max=1.0)
    # the path of the estimator test above: its first failing state and
    # first failing stage name different powers
    cfg = EngineConfig(horizon=40, lam=0.2, seed=1, spawn_key=(0,))
    with pytest.raises(error) as want:
        run_game_oracle(params, model, kind, cfg)
    table_eta, _ = _draw_states(params, model, cfg)
    with pytest.raises(error) as table:
        _play(params, (kind, kind), table_eta, None, cfg)
    assert str(table.value) != str(want.value)
    with pytest.raises(error) as got:
        run_game(params, model, kind, cfg)
    assert str(got.value) == str(want.value)


class _FixedUniforms:
    """Stands in for a generator whose ``random`` returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u.reshape(size).copy()  # a fresh array, as a generator gives


def _searchsorted_path(law, u):
    return np.stack([np.searchsorted(cum, u[:, i], side="right")
                     for i, cum in enumerate(law._cums)], axis=-1)


@pytest.mark.parametrize("bins", [2, 8, 16])
def test_dyadic_bin_draws_equal_searchsorted(bins):
    model = build_model(TruncatedRayleighSpec(bins=bins), 2)
    law = model.law
    assert law._dyadic_bins is not None
    u = np.random.default_rng(bins).random((500_000, 2))  # 1e6 uniforms
    got = model.sample_path(500_000, _FixedUniforms(u))
    assert got.tobytes() == _searchsorted_path(law, u).astype(np.int64).tobytes()
    # every bin edge j/n and the largest double below it
    edges = np.arange(bins) / bins
    below = np.nextafter(edges[1:], 0.0)
    u = np.concatenate([edges, below, [np.nextafter(1.0, 0.0)]])
    u = np.stack([u, u[::-1]], axis=-1)
    got = model.sample_path(u.shape[0], _FixedUniforms(u))
    assert got.tobytes() == _searchsorted_path(law, u).astype(np.int64).tobytes()


def test_non_dyadic_laws_keep_searchsorted():
    for law in (build_model(TruncatedRayleighSpec(bins=12), 2).law,
                build_model(TwoStateSpec(1.0, 4.0, 0.3), 2).law):
        assert law._dyadic_bins is None
    model = build_model(TruncatedRayleighSpec(bins=12), 2)
    u = np.random.default_rng(12).random((100_000, 2))
    got = model.sample_path(100_000, _FixedUniforms(u))
    assert got.tobytes() == _searchsorted_path(model.law, u).astype(np.int64).tobytes()


def test_markov_paths_solve_for_the_start_distribution_once(monkeypatch):
    model = _markov_8_state()
    law = model.law
    assert isinstance(law, MarkovJointLaw)
    cum = np.cumsum(law.stationary_joint())  # what every path used to solve for
    cum[-1] = 1.0
    solves = []
    solve = np.linalg.solve

    def counting(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    for seed in range(4):
        path = model.sample_path(300, np.random.default_rng(seed))
        u0 = np.random.default_rng(seed).random(300)[0]
        start = np.unravel_index(np.searchsorted(cum, u0, side="right"), law.dims)
        given = model.sample_path(300, np.random.default_rng(seed), initial=start)
        assert path.tobytes() == given.tobytes()
    assert len(solves) == 1


def test_joint_size_does_not_wrap():
    model = build_model(TruncatedRayleighSpec(bins=16), 16)
    assert model.joint_size == 16**16 == 2**64
    with pytest.raises(ModelError, match="too large to enumerate"):
        model.joint_states()
    params = GameParams.symmetric(16, a=0.05)
    floors = analysis.minmax_levels(params, model, samples=2000)
    assert floors.shape == (16,) and np.all(np.isfinite(floors))
