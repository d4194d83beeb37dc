"""The four benchmark workloads: inputs built from a seed, operations, checks.

Each ``build_<name>(seed, workdir)`` makes the workload's inputs from the
seed, writes the files the program reads, makes one warm-up call and
returns a ``Workload``.  Its ``ops`` are the timed public calls; ``check``
compares their outputs with the closed forms and properties in
``oracles`` and returns a list of problems (empty when correct);
``digests`` gives a sha256 per output so that byte identity between two
versions of the program can be compared.

Operations call through the ``powergame`` package at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np

import powergame as pg

import oracles as orc

RAYLEIGH = {"kind": "truncated_rayleigh", "scale": 1.0, "eta_min": 0.1,
            "eta_max": 10.0, "bins": 16}

# crn_sweep: the dominance table and discount-factor bound families
CRN_RULES = ["nash", "time_sharing", "operating_point",
             {"kind": "threshold", "alpha": 0.5}, "best_users"]
CRN_HORIZON = 20_000
CRN_REPLICATES = 4
CRN_DOMINANCE_K = [2, 4, 6, 8]
CRN_LAMBDA_K = [2, 5, 8]

# grim_deviation: short runs at K = 5 through the per-stage loop
GRIM_K = 5
GRIM_A = 0.15  # drawn from [0.12, 0.18], it moved the welfare-search work by ±12%
GRIM_HORIZON = 120
GRIM_PAIRS = 3  # compliant/deviating sets per cooperative rule
GRIM_SO_HORIZON = 16

# markov_models: explicit Markov joint laws with 256 joint states each
MARKOV_DIMS = ((16, 16), (8, 8, 4), (4, 4, 4, 4))
MARKOV_STICKINESS = 0.5  # weight of "stay" in every row of the transition matrix
MARKOV_HORIZON = 6_000
MARKOV_REPLICATES = 4

# region_2p: 2-player feasible regions
REGION_GRID = 12
REGION_A = 0.5
REGION_CAP = 20.0  # cap in units of sigma2 / scale^2


class Op:
    """One timed public call; ``expect`` names the exception it must raise."""

    __slots__ = ("name", "call", "expect")

    def __init__(self, name: str, call, expect=None):
        self.name = name
        self.call = call
        self.expect = expect


class Workload:
    """``check(outputs)`` lists the problems found in the outputs of the
    operations that did not fail; ``digest(name, output)`` gives sha256
    values for one output."""

    def __init__(self, ops, check, digest):
        self.ops = ops
        self.check = check
        self._digest = digest

    def digests(self, outputs: dict) -> dict:
        out = {}
        for name, value in outputs.items():
            out.update(self._digest(name, value))
        return out


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little") % (1 << 32)])


def _sha_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_manifest(name: str, out_dir: str, manifest: dict) -> list:
    problems = []
    for artifact, digest in manifest["artifacts"].items():
        with open(os.path.join(out_dir, artifact), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"{name}: sha256 of {artifact} does not match the manifest")
    return problems


def _experiment_digest(name, value):
    manifest, _ = value
    return {f"{name}/{artifact}": digest for artifact, digest in manifest["artifacts"].items()}


def _experiment_op(name: str, config: dict, out_dir: str) -> Op:
    return Op(name, lambda: (pg.run_experiment(config, out_dir), out_dir))


# -- crn_sweep ---------------------------------------------------------------

def build_crn_sweep(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, "crn_sweep")
    a = float(rng.uniform(0.08, 0.11))
    engine = {"horizon": CRN_HORIZON, "seed": int(rng.integers(1 << 31)),
              "replicates": CRN_REPLICATES}
    base = {"game": {"K": max(CRN_DOMINANCE_K), "a": a}, "channel": dict(RAYLEIGH)}
    dominance = {**base, "task": "dominance", "strategies": CRN_RULES, "engine": engine,
                 "sweep": {"axis": "K", "values": CRN_DOMINANCE_K}}
    lambdamax = {**base, "task": "lambdamax", "engine": engine,
                 "sweep": {"axis": "K", "values": CRN_LAMBDA_K}}
    warmup = {**dominance, "engine": {**engine, "horizon": 500, "replicates": 2},
              "sweep": {"axis": "K", "values": [2]}}
    pg.run_experiment(warmup, os.path.join(workdir, "warmup"))

    ops = [
        _experiment_op("dominance", dominance, os.path.join(workdir, "dominance")),
        _experiment_op("lambdamax", lambdamax, os.path.join(workdir, "lambdamax")),
    ]
    rate_param = 1.0 / (2.0 * RAYLEIGH["scale"] ** 2)
    mean_gain, var_gain = orc.trunc_exp_moments(RAYLEIGH["eta_min"], RAYLEIGH["eta_max"],
                                                rate_param)
    top_gain = orc.rayleigh_bin_gains(RAYLEIGH["scale"], RAYLEIGH["eta_min"],
                                      RAYLEIGH["eta_max"], RAYLEIGH["bins"])[-1]

    def check(outputs):
        problems = []
        for name, (manifest, out_dir) in outputs.items():
            problems += _check_manifest(name, out_dir, manifest)
        if "dominance" in outputs:
            rows = _read_csv(os.path.join(outputs["dominance"][1], "dominance.csv"))
            table = {(int(r["K"]), r["strategy"]): (float(r["mean"]), float(r["stderr"]))
                     for r in rows}
            n_draws = CRN_HORIZON * CRN_REPLICATES
            for k in CRN_DOMINANCE_K:
                # the player average of c * eta_i over K * H * R independent
                # gains; the quantized law's variance is at most the
                # continuous one's
                for label, closed in (
                    ("nash", orc.nash_mean_utility(a, k, 1.0, 1.0, mean_gain)),
                    ("operating_point",
                     orc.operating_point_mean_utility(a, k, 1.0, 1.0, mean_gain)),
                ):
                    se = closed / mean_gain * math.sqrt(var_gain / (k * n_draws))
                    mean = table[(k, label)][0]
                    if abs(mean - closed) > orc.SE_TOLERANCE * se:
                        problems.append(f"dominance K={k}: {label} mean {mean} is "
                                        f"{abs(mean - closed) / se:.1f} se from {closed}")
                bu, op = table[(k, "best_users")], table[(k, "operating_point")]
                if bu[0] < op[0] - 2.0 * math.hypot(bu[1], op[1]) - 1e-12:
                    problems.append(f"dominance K={k}: best_users {bu[0]} below "
                                    f"operating_point {op[0]}")
        if "lambdamax" in outputs:
            penalty = top_gain * math.exp(-1.0) / a
            for r in _read_csv(os.path.join(outputs["lambdamax"][1], "lambdamax.csv")):
                if not orc.close(float(r["penalty"]), penalty):
                    problems.append(f"lambdamax K={r['K']}: penalty {r['penalty']} != {penalty}")
        return problems

    return Workload(ops, check, _experiment_digest)


# -- grim_deviation -------------------------------------------------------------

class _Run:
    __slots__ = ("kinds", "cfg", "pair", "homogeneous")

    def __init__(self, kinds, cfg, pair):
        self.kinds = kinds
        self.cfg = cfg
        self.pair = pair  # name of the paired compliant run, for deviating runs
        self.homogeneous = not isinstance(kinds, tuple)


def build_grim_deviation(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, "grim_deviation")
    a = GRIM_A
    lam = float(rng.uniform(0.05, 0.3))
    engine_seed = int(rng.integers(1 << 31))
    params = pg.GameParams.symmetric(GRIM_K, a=a)
    model = pg.build_model(pg.TruncatedRayleighSpec(), GRIM_K)
    runs: dict[str, _Run] = {}

    def add(name, kinds, spawn, deviation=None, pair=None, horizon=GRIM_HORIZON):
        cfg = pg.EngineConfig(horizon=horizon, lam=lam, seed=engine_seed,
                              spawn_key=spawn, deviation=deviation)
        runs[name] = _Run(kinds, cfg, pair)

    def player():
        return int(rng.integers(GRIM_K))

    # deviation stages are fixed: a stage before detection costs more than
    # one after it (six welfare searches against one for social_optimum),
    # so stages drawn from the seed would make the work depend on the seed
    late, perm = GRIM_HORIZON // 2, GRIM_HORIZON // 4
    for r, rule in enumerate((pg.OPERATING_POINT, pg.BEST_USERS, pg.threshold(0.5))):
        for j in range(GRIM_PAIRS):
            base = f"{rule.label}/{j}"
            add(f"{base}/compliant", rule, (r, j))
            add(f"{base}/one_shot@1", rule, (r, j),
                pg.DeviationSpec(player(), 1, "one_shot"), f"{base}/compliant")
            add(f"{base}/one_shot@{late}", rule, (r, j),
                pg.DeviationSpec(player(), late, "one_shot"), f"{base}/compliant")
            add(f"{base}/permanent@{perm}", rule, (r, j),
                pg.DeviationSpec(player(), perm, "permanent"), f"{base}/compliant")
    mixed = (pg.BEST_USERS, pg.OPERATING_POINT, pg.threshold(0.5), pg.NASH, pg.BEST_USERS)
    mixed = tuple(mixed[i] for i in rng.permutation(GRIM_K))
    add("mixed/compliant", mixed, (8, 0))
    add("mixed/one_shot@1", mixed, (8, 0), pg.DeviationSpec(player(), 1), "mixed/compliant")
    so_start, so_perm = GRIM_SO_HORIZON // 2, GRIM_SO_HORIZON // 4
    add("social_optimum/compliant", pg.SOCIAL_OPTIMUM, (9, 0), horizon=GRIM_SO_HORIZON)
    add(f"social_optimum/one_shot@{so_start}", pg.SOCIAL_OPTIMUM, (9, 0),
        pg.DeviationSpec(player(), so_start), "social_optimum/compliant",
        horizon=GRIM_SO_HORIZON)
    add(f"social_optimum/permanent@{so_perm}", pg.SOCIAL_OPTIMUM, (9, 0),
        pg.DeviationSpec(player(), so_perm, "permanent"), "social_optimum/compliant",
        horizon=GRIM_SO_HORIZON)

    warm = pg.EngineConfig(horizon=5, lam=lam, seed=engine_seed, spawn_key=(99,),
                           deviation=pg.DeviationSpec(0, 2))
    pg.run_game(params, model, pg.BEST_USERS, warm)

    ops = [Op(name, (lambda run=run: pg.run_game(params, model, run.kinds, run.cfg)))
           for name, run in runs.items()]
    nash_level = orc.nash_received(a, GRIM_K, 1.0)

    def own_utility(eta, powers):
        return orc.utility(eta, powers, a, 1.0, 1.0)

    def best_rival_welfare(eta):
        """Welfare of the selfish equilibrium, the all-player profile and the
        best equal-received-power subset, per stage."""
        nash = own_utility(eta, nash_level / eta).sum(axis=1)
        best = np.full(eta.shape[0], -np.inf)
        for m in range(1, GRIM_K + 1):
            level = orc.equal_received(a, m, 1.0)
            for subset in itertools.combinations(range(GRIM_K), m):
                powers = np.zeros_like(eta)
                powers[:, subset] = level / eta[:, subset]
                best = np.maximum(best, own_utility(eta, powers).sum(axis=1))
        return np.maximum(nash, best)  # the all-player profile is the m = K subset

    def check(outputs):
        problems = []
        for name, result in outputs.items():
            run = runs[name]
            tr = result.trace
            dev = run.cfg.deviation
            if not np.array_equal(tr.t, np.arange(1, run.cfg.horizon + 1)):
                problems.append(f"{name}: trace is not the full horizon")
                continue
            u = own_utility(tr.eta, tr.powers)
            weights = lam * (1.0 - lam) ** (tr.t - 1.0)
            if not orc.close(weights @ u, result.discounted):
                problems.append(f"{name}: discounted value does not match the trace")
            stage = result.punishment_stage
            if run.homogeneous and dev is None:
                if stage is not None or tr.punishing.any():
                    problems.append(f"{name}: compliant run detected a deviation")
            if stage is not None:
                if dev is not None and stage < dev.start:
                    problems.append(f"{name}: detection at {stage} before the deviation")
                if not np.array_equal(tr.punishing, np.broadcast_to(
                        (tr.t > stage)[:, None], tr.punishing.shape)):
                    problems.append(f"{name}: punishing flags disagree with stage {stage}")
                after = tr.t > stage
                received = tr.powers[after] * tr.eta[after]
                if not orc.close(received, nash_level):
                    problems.append(f"{name}: punishment is not the selfish equilibrium")
            if dev is not None and run.pair in outputs:
                s, i = dev.start - 1, dev.player
                paired = outputs[run.pair].trace
                compliant_u = own_utility(paired.eta[s], paired.powers[s])[i]
                if u[s, i] < compliant_u * (1.0 - 1e-12):
                    problems.append(f"{name}: deviation paid {u[s, i]} < {compliant_u}")
            if run.kinds == pg.SOCIAL_OPTIMUM:
                keep = ~tr.punishing[:, 0]
                if dev is not None:
                    keep &= tr.t < dev.start
                so = u[keep].sum(axis=1)
                rival = best_rival_welfare(tr.eta[keep])
                if np.any(so < rival - 1e-9 * np.abs(rival)):
                    problems.append(f"{name}: social optimum below a rival profile")
        return problems

    def digest(name, result):
        tr = result.trace
        return {name: _sha_arrays(result.discounted, result.time_average, tr.powers,
                                  tr.sinr, tr.utility, tr.recommended, tr.punishing)}

    return Workload(ops, check, digest)


# -- markov_models -----------------------------------------------------------

def _tampered_model(workdir: str) -> str:
    """A saved model whose transition matrix is then swapped for another
    valid one; the loader's integrity check should reject it.  Fixed, so
    that it fails (or not) identically for every seed."""
    path = os.path.join(workdir, "tampered.json")
    law = pg.MarkovJointLaw([[0.9, 0.1], [0.5, 0.5]], (2, 1))
    pg.save_model(pg.ChannelModel(([1.0, 2.0], [1.5]), law), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["transition"] = [[0.2, 0.8], [0.7, 0.3]]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def build_markov_models(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, "markov_models")
    a = float(rng.uniform(0.1, 0.2))
    engine_seed = int(rng.integers(1 << 31))
    models = {}
    ops = []
    for dims in MARKOV_DIMS:
        size = math.prod(dims)
        rows = rng.uniform(0.1, 1.0, (size, size))
        rows /= rows.sum(axis=1, keepdims=True)
        matrix = MARKOV_STICKINESS * np.eye(size) + (1.0 - MARKOV_STICKINESS) * rows
        gains = tuple(np.sort(rng.uniform(0.2, 5.0, d)) for d in dims)
        tag = f"{len(dims)}p"
        path = os.path.join(workdir, f"markov_{tag}.json")
        pg.save_model(pg.ChannelModel(gains, pg.MarkovJointLaw(matrix, dims)), path)
        models[tag] = (dims, matrix, gains)
        base = {"game": {"K": len(dims), "a": a},
                "channel": {"kind": "explicit", "path": path},
                "engine": {"horizon": MARKOV_HORIZON, "seed": engine_seed,
                           "replicates": MARKOV_REPLICATES}}
        ops.append(Op(f"load/{tag}", (lambda path=path: pg.load_model(path))))
        ops.append(_experiment_op(f"simulate/{tag}", {**base, "task": "simulate",
                                                      "strategies": ["nash"]},
                                  os.path.join(workdir, f"simulate_{tag}")))
        ops.append(_experiment_op(f"lambdamax/{tag}", {**base, "task": "lambdamax"},
                                  os.path.join(workdir, f"lambdamax_{tag}")))
    tampered = _tampered_model(workdir)
    ops.append(Op("load/tampered", lambda: pg.load_model(tampered), expect=pg.ModelError))
    pg.load_model(os.path.join(workdir, "markov_2p.json"))

    oracle: dict = {}

    def stationary_stats(tag):
        """Per-player stationary mean gain and variance of the replicate
        average, from power iteration (computed once, outside the timing)."""
        if tag not in oracle:
            dims, matrix, gains = models[tag]
            pi = orc.stationary_by_power_iteration(matrix)
            flat = np.unravel_index(np.arange(matrix.shape[0]), dims)
            stats = []
            for i, g in enumerate(gains):
                f = g[flat[i]]
                var = orc.time_average_variance(matrix, pi, f, MARKOV_HORIZON)
                stats.append((float(pi @ f), var / MARKOV_REPLICATES))
            oracle[tag] = stats
        return oracle[tag]

    def check(outputs):
        problems = []
        for name, value in outputs.items():
            kind, tag = name.split("/")
            if kind == "load":
                if tag == "tampered":
                    continue  # only its exception is checked, by the runner
                dims, matrix, gains = models[tag]
                if not (np.array_equal(value.law.matrix, matrix)
                        and all(np.array_equal(g, h) for g, h in zip(value.gains, gains))):
                    problems.append(f"{name}: loaded model differs from the generated one")
                continue
            manifest, out_dir = value
            problems += _check_manifest(name, out_dir, manifest)
            dims, _, gains = models[tag]
            if kind == "simulate":
                for row in _read_csv(os.path.join(out_dir, "summary.csv")):
                    i = int(row["player"])
                    mean_gain, var = stationary_stats(tag)[i]
                    closed = orc.nash_mean_utility(a, len(dims), 1.0, 1.0, mean_gain)
                    se = closed / mean_gain * math.sqrt(var)
                    got = float(row["u_avg"])
                    if abs(got - closed) > orc.SE_TOLERANCE * se:
                        problems.append(f"{name}: player {i} nash mean {got} is "
                                        f"{abs(got - closed) / se:.1f} se from {closed}")
            else:
                penalty = max(float(g.max()) for g in gains) * math.exp(-1.0) / a
                for row in _read_csv(os.path.join(out_dir, "lambdamax.csv")):
                    if not orc.close(float(row["penalty"]), penalty):
                        problems.append(f"{name}: penalty {row['penalty']} != {penalty}")
        return problems

    def digest(name, value):
        if name.startswith("load/"):
            if isinstance(value, BaseException):
                return {}
            return {name: _sha_arrays(value.law.matrix, *value.gains)}
        return _experiment_digest(name, value)

    return Workload(ops, check, digest)


# -- region_2p ---------------------------------------------------------------

def build_region_2p(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, "region_2p")
    # the two-state model of the fig3 preset, with a, p_high and the cap drawn
    a3 = float(rng.uniform(0.4, 0.6))
    p_high = float(rng.uniform(0.3, 0.7))
    two_state = (pg.GameParams.symmetric(2, a=a3, p_max=5.0),
                 pg.build_model(pg.TwoStateSpec(1.0, 4.0, p_high), 2))
    two_state_gains = np.array([1.0, 4.0])
    two_state_probs = np.array([1.0 - p_high, p_high])
    # Rayleigh-16: the seed draws the noise power and the Rayleigh scale;
    # the truncation and the cap scale with them, so utilities only change
    # by a common factor and every seed asks for the same geometry work
    sigma2 = float(rng.uniform(0.5, 2.0))
    scale = float(rng.uniform(0.7, 1.4))
    spec = pg.TruncatedRayleighSpec(scale, 0.1 * scale**2, 10.0 * scale**2, 16)
    rayleigh = (pg.GameParams.symmetric(2, a=REGION_A, sigma2=sigma2,
                                        p_max=REGION_CAP * sigma2 / scale**2),
                pg.build_model(spec, 2))
    rayleigh_gains = orc.rayleigh_bin_gains(spec.scale, spec.eta_min, spec.eta_max, spec.bins)
    rayleigh_probs = np.full(spec.bins, 1.0 / spec.bins)

    cases = {
        "region/two_state": (two_state, a3, 1.0, 5.0, two_state_gains, two_state_probs),
        "region/rayleigh16": (rayleigh, REGION_A, sigma2, REGION_CAP * sigma2 / scale**2,
                              rayleigh_gains, rayleigh_probs),
    }
    pg.feasible_region_2p(*two_state, REGION_GRID)
    ops = [Op(name, (lambda case=case: pg.feasible_region_2p(*case[0], REGION_GRID)))
           for name, case in cases.items()]
    angles = 2.0 * np.pi * (np.arange(16) + 0.37) / 16
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def check(outputs):
        problems = []
        for name, region in outputs.items():
            _, a, sigma2, cap, gains, probs = cases[name]
            # joint states in row-major order: (player 0 index, player 1 index)
            eta = np.stack(np.meshgrid(gains, gains, indexing="ij"), axis=-1).reshape(-1, 2)
            prob = np.outer(probs, probs).ravel()
            if not (orc.close(region.state_gains, eta, rel=1e-12)
                    and orc.close(region.state_probs, prob, rel=1e-12)):
                problems.append(f"{name}: joint states or probabilities are wrong")
                continue
            hull = region.hull
            scale = float(np.abs(hull).max())
            tol = 1e-9 * scale
            expected = np.zeros(len(directions))
            for s, (g0, g1) in enumerate(region.state_grids):
                p0, p1 = np.meshgrid(g0, g1, indexing="ij")
                profiles = np.stack([p0.ravel(), p1.ravel()], axis=-1)
                cloud = orc.utility(eta[s], profiles, a, 1.0, sigma2)
                expected += prob[s] * orc.support(cloud, directions)
            if hull.shape[0] < 3 or not orc.close(orc.support(hull, directions), expected,
                                                  rel=1e-9, abs_=tol):
                problems.append(f"{name}: hull support differs from the weighted sum")
                continue
            for label, point in region.markers.items():
                if not orc.in_convex_polygon(point, hull, tol):
                    problems.append(f"{name}: marker {label} lies outside the hull")
            # punishment floor: best response while the other player jams at the cap
            interference = cap * eta[:, ::-1] + sigma2
            want = a * interference / eta
            capped_sinr = cap * eta / interference
            floor_u = np.where(want <= cap,
                               math.exp(-1.0) * eta / (a * interference),
                               np.exp(-a / capped_sinr) / cap)
            floors = prob @ floor_u
            if not orc.close(region.minmax, floors):
                problems.append(f"{name}: floors {region.minmax} != {floors}")
            for vertex in region.fstar:
                if not orc.in_convex_polygon(vertex, hull, tol) or np.any(
                        vertex < floors - tol):
                    problems.append(f"{name}: fstar vertex {vertex} outside hull or floors")
        return problems

    def digest(name, region):
        markers = [region.markers[k] for k in sorted(region.markers)]
        return {name: _sha_arrays(region.hull, region.minmax, region.fstar, *markers)}

    return Workload(ops, check, digest)


BUILDERS = {
    "crn_sweep": build_crn_sweep,
    "grim_deviation": build_grim_deviation,
    "markov_models": build_markov_models,
    "region_2p": build_region_2p,
}
