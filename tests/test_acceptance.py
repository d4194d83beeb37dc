"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds at the stated
tolerance (pytest -s shows them) and also enforces its runtime budget.
Oracles used here are written out locally and independently of the code
paths they check.
"""

import hashlib
import itertools
import math
import time

import numpy as np

from powergame.analysis import (
    dominance_report,
    expected_utilities_exact,
    feasible_region_2p,
    joint_state_table,
    lambda_max,
)
from powergame.channels import TruncatedRayleighSpec, TwoStateSpec, build_model
from powergame.efficiency import ExponentialEfficiency, beta_star, gamma_tilde
from powergame.engine import (
    DeviationSpec,
    EngineConfig,
    discount_weights,
    run_game,
)
from powergame.experiments import run_experiment
from powergame.geometry import convex_hull, point_in_convex_polygon
from powergame.oneshot import GameParams, best_response, nash_powers, utility
from powergame.strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    compliant_profile,
    select_best_users,
)


def report(number: int, description: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {description}")


def oracle_root(a: float, k: int, iters: int = 240) -> float:
    """Independent bisection on x [1-(k-1)x] f'(x) - f(x) = 0, exponential f."""
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


def test_01_closed_form_roots():
    start = time.perf_counter()
    for a in (0.1, 0.2, 0.5, 1.0):
        eff = ExponentialEfficiency(a)
        assert abs(beta_star(eff) - a) <= 1e-9
        assert abs(beta_star(eff) - oracle_root(a, 1)) <= 1e-9
        for k in range(1, 11):
            closed = a / (1.0 + a * (k - 1))
            root = gamma_tilde(eff, k)
            assert abs(root - closed) <= 1e-9
            assert abs(root - oracle_root(a, k)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"closed-form roots confirmed by bisection oracle ({elapsed:.2f}s < 1s)")


def test_02_equilibrium_fixed_point():
    start = time.perf_counter()
    params = GameParams(3, ExponentialEfficiency(0.1))
    rng = np.random.default_rng(42)
    n_draws = 1000
    grid_points = 1000
    for _ in range(n_draws):
        eta = rng.uniform(0.2, 5.0, 3)
        star = nash_powers(params, eta)
        replied = np.array([best_response(params, eta, star, i) for i in range(3)])
        assert np.all(np.abs(replied - star) <= 1e-10 * (1.0 + star))
        received = star * eta
        total = received.sum()
        for i in range(3):
            interference = total - received[i]
            grid = np.concatenate(
                [[star[i]], np.geomspace(star[i] / 30, star[i] * 30, grid_points - 1)]
            )
            s = grid * eta[i] / (interference + 1.0)
            u = np.exp(-0.1 / s) / grid  # oracle arithmetic
            u_star = math.exp(-0.1 / (star[i] * eta[i] / (interference + 1.0))) / star[i]
            assert u_star >= u.max() - 1e-12 * max(1.0, u_star)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"equilibrium invariant under best response and {grid_points}-point grid "
              f"deviations on {n_draws} realizations ({elapsed:.2f}s < 10s)")


def test_03_pareto_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for k in (2, 5, 10):
        params = GameParams(k, ExponentialEfficiency(0.1))
        eta = rng.uniform(0.2, 5.0, size=(10_000, k))
        ne, _, _ = compliant_profile(params, NASH, eta)
        op, _, _ = compliant_profile(params, OPERATING_POINT, eta)
        u_ne = utility(params, eta, ne)
        u_op = utility(params, eta, op)
        assert np.all(u_op > u_ne)  # strict for k >= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"equal-power profile strictly dominates the equilibrium on 10^4 "
              f"realizations for K in (2, 5, 10) ({elapsed:.2f}s < 10s)")


def test_04_selection_matches_exhaustive_welfare_argmax():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    sigma2 = 1.0
    for a in (0.1, 0.5):
        gam = {k: oracle_root(a, k) for k in range(1, 11)}
        for k in range(2, 11):
            params = GameParams(k, ExponentialEfficiency(a), sigma2=sigma2)
            masks = ((np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1).astype(bool)
            sizes = masks.sum(axis=1)
            g = np.array([gam[m] for m in range(1, k + 1)])[sizes - 1]
            scale = sigma2 * g / (1.0 - (sizes - 1) * g)
            for _ in range(100):
                eta = rng.uniform(0.2, 5.0, k)
                powers = np.where(masks, scale[:, None] / eta, 0.0)
                received = powers * eta
                total = received.sum(axis=1, keepdims=True)
                s = received / (total - received + sigma2)
                with np.errstate(divide="ignore"):
                    u = np.where(
                        powers > 0,
                        np.exp(-a / np.where(s > 0, s, 1.0))
                        / np.where(powers > 0, powers, 1.0),
                        0.0,
                    )
                oracle = set(np.nonzero(masks[int(np.argmax(u.sum(axis=1)))])[0])
                assert set(select_best_users(params, eta)) == oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"selection equals the exhaustive 2^K-subset welfare argmax, K up to 10, "
              f"100 draws, a in (0.1, 0.5) ({elapsed:.1f}s < 30s)")


def test_05_dominance_with_common_random_numbers():
    start = time.perf_counter()
    horizon, replicates, seed = 100_000, 4, 314
    spec = TruncatedRayleighSpec()  # 16 bins on [0.1, 10]
    per_strategy_means = {}
    for k in (2, 5, 10):
        params = GameParams(k, ExponentialEfficiency(0.1))
        model = build_model(spec, k)
        report_k = dominance_report(
            params, model, horizon=horizon, replicates=replicates, seed=seed
        )
        assert report_k.violations == []
        sel = report_k.estimates["best_users"]
        for label in ("nash", "operating_point", "time_sharing"):
            other = report_k.estimates[label]
            paired = sel.per_replicate - other.per_replicate
            diff = paired.mean(axis=0)
            se = paired.std(axis=0, ddof=1) / math.sqrt(replicates)
            assert np.all(diff >= -(2.0 * se + 1e-12))
        for label, est in report_k.estimates.items():
            per_rep = est.per_replicate.mean(axis=1)
            per_strategy_means.setdefault(label, []).append(
                (per_rep.mean(), per_rep.std(ddof=1) / math.sqrt(replicates))
            )
    for label, rows in per_strategy_means.items():
        for (hi, hi_se), (lo, lo_se) in zip(rows, rows[1:]):
            slack = 2.0 * math.hypot(hi_se, lo_se)
            assert hi >= lo - slack, label
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, f"selection dominates equilibrium / equal-power / time-sharing within "
              f"2 paired SEs at 10^5 stages, and means fall with K ({elapsed:.1f}s < 2min)")


def test_06_selection_gap_over_gain_ratio():
    start = time.perf_counter()
    gaps = []
    for ratio in (1, 2, 4, 8):
        params = GameParams(10, ExponentialEfficiency(0.1))
        model = build_model(TwoStateSpec(1.0, float(ratio)), 10)
        sel = expected_utilities_exact(params, model, BEST_USERS)
        op = expected_utilities_exact(params, model, OPERATING_POINT)
        gaps.append(float((sel - op).mean()))
    assert gaps[0] == 0.0  # identical expected utility, exactly
    assert all(g >= 0.0 for g in gaps)
    assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))
    # at ratio 1 the two rules take identical per-stage decisions
    params = GameParams(10, ExponentialEfficiency(0.1))
    model = build_model(TwoStateSpec(1.0, 1.0), 10)
    cfg = EngineConfig(horizon=2000, lam=0.01, seed=17)
    run_sel = run_game(params, model, BEST_USERS, cfg)
    run_op = run_game(params, model, OPERATING_POINT, cfg)
    np.testing.assert_array_equal(run_sel.trace.powers, run_op.trace.powers)
    np.testing.assert_array_equal(run_sel.discounted, run_op.discounted)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"gap to the all-player profile is 0 at ratio 1 (identical decisions) "
              f"and nondecreasing over ratios {gaps} ({elapsed:.1f}s < 1min)")


def test_07_region_correctness():
    start = time.perf_counter()
    # exhaustive stationary-profile enumeration at grid size 3, 4 joint states
    params = GameParams(2, ExponentialEfficiency(0.5), p_max=5.0)
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    region = feasible_region_2p(params, model, grid_size=3)
    _, gains, probs = joint_state_table(model)
    sums = [np.zeros(2)]
    for s in range(gains.shape[0]):
        g0, g1 = region.state_grids[s]
        received = np.array(
            [[p0 * gains[s, 0], p1 * gains[s, 1]] for p0 in g0 for p1 in g1]
        )
        prof = np.array([[p0, p1] for p0 in g0 for p1 in g1])
        total = received.sum(axis=1, keepdims=True)
        sr = received / (total - received + 1.0)
        with np.errstate(divide="ignore"):
            pts = np.where(
                prof > 0,
                np.exp(-0.5 / np.where(sr > 0, sr, 1.0)) / np.where(prof > 0, prof, 1.0),
                0.0,
            )
        sums = [base + probs[s] * pt for base in sums for pt in pts]
    oracle = convex_hull(sums)
    for v in oracle:
        assert np.min(np.linalg.norm(region.hull - v, axis=1)) <= 1e-9
    for v in region.hull:
        assert np.min(np.linalg.norm(oracle - v, axis=1)) <= 1e-9
    # named operating points sit inside the region and dominate as claimed
    region = feasible_region_2p(params, model, grid_size=12)
    for name, marker in region.markers.items():
        assert point_in_convex_polygon(marker, region.hull, tol=1e-9), name
    sel = region.markers["best_users"]
    assert np.all(sel >= region.markers["nash"] - 1e-12)
    assert np.all(sel >= region.minmax - 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"region equals the exhaustive profile hull and contains the strategy "
              f"markers with selection above floors ({elapsed:.1f}s < 1min)")


def isotonic_fit(values):
    """Pool-adjacent-violators for a nondecreasing fit."""
    vals = [float(v) for v in values]
    weights = [1.0] * len(vals)
    blocks = [[v, w, 1] for v, w in zip(vals, weights)]
    merged = []
    for block in blocks:
        merged.append(block)
        while len(merged) >= 2 and merged[-2][0] > merged[-1][0]:
            v2, w2, n2 = merged.pop()
            v1, w1, n1 = merged.pop()
            merged.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, n1 + n2])
    out = []
    for v, _, n in merged:
        out.extend([v] * n)
    return np.array(out)


def test_08_discount_factor_bound():
    start = time.perf_counter()
    spec = TruncatedRayleighSpec()
    ks = list(range(2, 11))
    lams, lam_ses = [], []
    for j, k in enumerate(ks):
        params = GameParams(k, ExponentialEfficiency(0.1))
        model = build_model(spec, k)
        bound = lambda_max(params, model, horizon=30_000, replicates=4,
                           seed=271, spawn_prefix=(j,))
        assert not bound.warning
        binding = int(np.argmin(bound.per_player))
        delta, se = bound.delta[binding], bound.delta_stderr[binding]
        lams.append(bound.lambda_max)
        lam_ses.append(bound.penalty * se / (bound.penalty + delta) ** 2)
    fit = isotonic_fit(lams)
    residual = np.abs(fit - np.array(lams))
    assert np.all(residual <= 3.0 * np.array(lam_ses) + 1e-4)

    # one-stage deviation against grim trigger at half the bound, K = 5
    k = 5
    params = GameParams(k, ExponentialEfficiency(0.1))
    model = build_model(spec, k)
    lam = 0.5 * lams[ks.index(k)]
    horizon = 500
    diffs = []
    for r in range(200):
        base_cfg = EngineConfig(horizon=horizon, lam=lam, seed=99, spawn_key=(r,))
        dev_cfg = EngineConfig(horizon=horizon, lam=lam, seed=99, spawn_key=(r,),
                               deviation=DeviationSpec(player=0, start=1))
        v_dev = run_game(params, model, BEST_USERS, dev_cfg).discounted[0]
        v_base = run_game(params, model, BEST_USERS, base_cfg).discounted[0]
        diffs.append(v_dev - v_base)
    diffs = np.array(diffs)
    sem = diffs.std(ddof=1) / math.sqrt(diffs.size)
    upper95 = diffs.mean() + 1.645 * sem  # one-sided 95% confidence bound
    assert upper95 <= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"discount bound nondecreasing over K=2..10 (isotonic residual ok) and "
              f"deviating at half the bound loses: mean {diffs.mean():.3f}, "
              f"upper95 {upper95:.3f} over 200 paired replicates ({elapsed:.1f}s < 2min)")


def test_09_discounting_identities_and_initial_state_independence():
    start = time.perf_counter()
    for lam in (0.01, 0.1, 0.5):
        for horizon in (10, 1000, 100_000):
            total = discount_weights(horizon, lam).sum()
            closed = -math.expm1(horizon * math.log1p(-lam))
            assert abs(total - closed) <= 1e-12
    params = GameParams(2, ExponentialEfficiency(0.1))
    model = build_model(TwoStateSpec(1.0, 4.0), 2)
    reps = 16
    means, ses = [], []
    for initial in itertools.product(range(2), repeat=2):
        vals = []
        for r in range(reps):
            cfg = EngineConfig(horizon=6000, lam=1e-3, seed=100 + r,
                               initial_state=initial)
            vals.append(run_game(params, model, BEST_USERS, cfg).discounted)
        vals = np.array(vals)
        means.append(vals.mean(axis=0))
        ses.append(vals.std(axis=0, ddof=1) / math.sqrt(reps))
    for a, b in itertools.combinations(range(4), 2):
        gap = np.abs(means[a] - means[b])
        tol = 3.0 * np.sqrt(ses[a] ** 2 + ses[b] ** 2)
        assert np.all(gap <= tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, f"discount weights sum exactly to 1-(1-lam)^T and small-lam values are "
              f"initial-state independent within 3 SE ({elapsed:.1f}s < 1min)")


def test_10_determinism_and_provenance(tmp_path):
    start = time.perf_counter()
    cfg = {
        "task": "dominance",
        "game": {"K": 3, "a": 0.1},
        "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 1.0},
        "strategies": ["best_users", "nash", "operating_point"],
        "engine": {"horizon": 2000, "seed": 2024, "replicates": 2},
        "sweep": {"axis": "ratio", "values": [1, 4]},
        "artifact": "fig2.csv",
    }
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    manifest = run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    for name in list(manifest["artifacts"]) + ["manifest.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    for name, digest in manifest["artifacts"].items():
        body = (out_a / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest
    defaults = set(manifest["defaults_used"])
    assert defaults == {"game.sigma2", "game.p_max", "game.rate", "channel.p_high"}
    header = (out_a / "fig2.csv").read_text().split("\n", 1)[0]
    assert header == "ratio,strategy,mean,stderr"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(10, f"identical config+seed gives byte-identical artifacts and the manifest "
               f"records every defaulted constant ({elapsed:.1f}s < 10s)")
