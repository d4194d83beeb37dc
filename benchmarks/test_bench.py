"""Tests of the benchmark's measuring code and oracles.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import math
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles as orc  # noqa: E402
import powergame as pg  # noqa: E402
import refspeed  # noqa: E402
import spans  # noqa: E402
from powergame import efficiency, engine  # noqa: E402


def test_self_time_of_nested_spans():
    s = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("leaf", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("leaf", 6.0, 7.5, 3),
        spans.Span("leaf", 7.0, 8.0, 3),  # overlaps its sibling: counted once
    ]
    self_t = spans.self_times(s)
    assert self_t["root"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert self_t["a"] == pytest.approx(3.0 - 1.0)
    assert self_t["b"] == pytest.approx(4.0 - 2.0)
    assert self_t["leaf"] == pytest.approx(1.0 + 1.5 + 1.0)
    assert spans.root_time(s) == pytest.approx(10.0)
    # self time of a child poking out of its parent is only the covered part
    clipped = [spans.Span("p", 0.0, 2.0, -1), spans.Span("c", 1.0, 3.0, 0)]
    assert spans.self_times(clipped)["p"] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_account_for_the_root():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda x: wrapped_inner(wrapped_inner(x)), "outer")
    assert outer(1) == 3
    names = [(sp.name, sp.parent) for sp in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    total = sum(spans.self_times(tracer.spans).values())
    assert total == pytest.approx(spans.root_time(tracer.spans), rel=1e-9)


def test_reference_clock_scales_each_stretch_by_its_bracketing_samples(monkeypatch):
    now = [0.0]
    values = iter([1.0, 3.0, 1.0])

    def sampler():
        now[0] += 0.5  # the kernel's own time
        return next(values)

    monkeypatch.setattr(refspeed.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(refspeed, "REF_S", 1.0)
    clock = refspeed.RefClock(sampler, interval=0.0)
    clock.start()
    clock.begin_op()
    now[0] += 3.0
    clock._on_timer(None, None)  # a tick inside the operation
    now[0] += 1.0
    assert clock.end_op() == pytest.approx(4.0)  # the sample's 0.5 s left out
    clock._guard = True
    clock._on_timer(None, None)  # a tick while the clock is busy is skipped
    clock._guard = False
    assert clock.samples == [1.0, 3.0]
    # 3 s between samples 1 and 3, then 1 s between samples 3 and 1
    assert clock.stop() == pytest.approx(3.0 * 2 / (1 + 3) + 1.0 * 2 / (3 + 1))


def test_reference_clock_samples_inside_an_operation_and_disarms():
    clock = refspeed.RefClock(interval=0.01)
    clock.start()
    clock.begin_op()
    start = refspeed.time.perf_counter()
    while refspeed.time.perf_counter() - start < 0.1:
        pass
    op_time = clock.end_op()
    elapsed = refspeed.time.perf_counter() - start
    clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4  # start, stop and ticks inside the loop
    assert 0.0 < op_time < elapsed
    assert clock.scaled > 0.0


def _wrappers_in_package():
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "powergame" and not name.startswith("powergame."):
            continue
        for key, value in vars(mod).items():
            if getattr(value, "_bench_wrapper", False):
                found.append(f"{name}.{key}")
            if isinstance(value, type):
                found += [f"{name}.{key}.{attr}" for attr, member in vars(value).items()
                          if getattr(member, "_bench_wrapper", False)]
    return found


def test_wrappers_are_removed_after_a_traced_run():
    originals = {
        "engine.run_game": engine.run_game,
        "engine.compliant_profile": engine.compliant_profile,
        "value": efficiency.ExponentialEfficiency.__dict__["value"],
        "sample_path": pg.ChannelModel.__dict__["sample_path"],
    }
    params = pg.GameParams.symmetric(3, a=0.2)
    model = pg.build_model(pg.TruncatedRayleighSpec(), 3)
    cfg = pg.EngineConfig(horizon=30, lam=0.2, seed=4,
                          deviation=pg.DeviationSpec(1, 3, "permanent"))
    untraced = pg.run_game(params, model, pg.BEST_USERS, cfg)

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _wrappers_in_package()
        traced = pg.run_game(params, model, pg.BEST_USERS, cfg)
    finally:
        tracer.remove()

    assert not tracer.installed
    assert _wrappers_in_package() == []
    assert engine.run_game is originals["engine.run_game"]
    assert engine.compliant_profile is originals["engine.compliant_profile"]
    assert efficiency.ExponentialEfficiency.__dict__["value"] is originals["value"]
    assert pg.ChannelModel.__dict__["sample_path"] is originals["sample_path"]
    # tracing changes no result, and the run went through the per-stage loop
    assert np.array_equal(traced.discounted, untraced.discounted)
    assert tracer.counts["engine.run_game_calls"] == 1
    assert tracer.counts["engine.sequential_stages"] == 30
    assert tracer.counts["strategies.stage_action_calls"] == 90
    assert tracer.counts["channels.stages_drawn"] == 30


def test_redrawn_paths_are_counted():
    tracer = spans.Tracer()
    params = pg.GameParams.symmetric(2, a=0.2)
    model = pg.build_model(pg.TruncatedRayleighSpec(), 2)
    tracer.install()
    try:
        pg.estimate_expected_utility(params, model, pg.NASH, 50, 7, 3)
        pg.estimate_expected_utility(params, model, pg.BEST_USERS, 50, 7, 3)
        pg.estimate_expected_utility(params, model, pg.NASH, 60, 7, 3)
    finally:
        tracer.remove()
    assert tracer.counts["channels.sample_path_calls"] == 9
    assert tracer.counts["channels.paths_redrawn"] == 3
    assert tracer.counts["engine.estimate_calls"] == 3


@pytest.mark.parametrize("a", [0.01, 0.1, 0.25, 0.5, 1.0, 3.0])
def test_closed_form_roots_match_the_package(a):
    eff = efficiency.ExponentialEfficiency(a)
    assert abs(orc.beta_star(a) - efficiency.beta_star(eff)) <= 1e-12 * a
    for k in range(1, 11):
        want = efficiency.gamma_tilde(eff, k)
        assert abs(orc.gamma_tilde(a, k) - want) <= 1e-12 * want


def test_truncated_exponential_moments_match_quadrature():
    lo, hi, rate = 0.1, 10.0, 0.5
    x = np.linspace(lo, hi, 2_000_001)
    w = np.exp(-rate * x)
    mass = np.trapezoid(w, x)
    mean = np.trapezoid(x * w, x) / mass
    var = np.trapezoid((x - mean) ** 2 * w, x) / mass
    got_mean, got_var = orc.trunc_exp_moments(lo, hi, rate)
    assert got_mean == pytest.approx(mean, rel=1e-9)
    assert got_var == pytest.approx(var, rel=1e-9)
    gains = orc.rayleigh_bin_gains(1.0, lo, hi, 16)
    assert gains.mean() == pytest.approx(got_mean, rel=1e-12)


def test_time_average_variance_of_an_iid_chain():
    rng = np.random.default_rng(0)
    pi = rng.uniform(0.1, 1.0, 6)
    pi /= pi.sum()
    matrix = np.tile(pi, (6, 1))  # every row the same: independent draws
    f = rng.uniform(0.0, 3.0, 6)
    assert np.allclose(orc.stationary_by_power_iteration(matrix), pi, atol=1e-14)
    var_f = pi @ (f - pi @ f) ** 2
    assert orc.time_average_variance(matrix, pi, f, 100) == pytest.approx(var_f / 100)


def test_point_in_convex_polygon():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert orc.in_convex_polygon([0.5, 0.5], square, 1e-12)
    assert orc.in_convex_polygon([1.0, 0.3], square, 1e-12)  # on an edge
    assert orc.in_convex_polygon([0.5, 0.5], square[::-1], 1e-12)  # clockwise
    assert not orc.in_convex_polygon([1.01, 0.5], square, 1e-3)
    assert math.isclose(orc.support(square, [[1.0, 1.0]])[0], 2.0)
