"""Experiment configs, presets, and the artifact-producing runner.

Configs are JSON documents with a fixed schema (see README).  The runner
validates fully before touching the filesystem, builds every artifact in
memory, then writes them plus a ``manifest.json`` echoing the config, the
seed, which constants came from defaults, and a sha256 per artifact.
Outputs are deterministic: the same config and seed reproduce the same
bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .channels import ChannelModel, TruncatedRayleighSpec, TwoStateSpec, build_model, load_model
from .engine import (
    DeviationSpec,
    EngineConfig,
    UtilityEstimate,
    estimate_expected_utilities,
    run_game,
    trace_csv,
)
from .errors import ConfigError
from .oneshot import GameParams
from .strategies import _VALID_KINDS, StrategyKind, threshold

_TASKS = ("simulate", "dominance", "region", "lambdamax", "partition")
_SWEEP_AXES = ("ratio", "K", "alpha")

DEFAULTS = {
    "game.rate_when_a_given": 1.0,
    "game.sigma2": 1.0,
    "game.p_max": 1e6,
    "channel.eta_min(two_state)": 1.0,
    "channel.scale": 1.0,
    "channel.eta_min(rayleigh)": 0.1,
    "channel.eta_max(rayleigh)": 10.0,
    "channel.bins": 16,
    "engine.lam": 0.5,
    "engine.replicates": 4,
    "engine.detection_tol": 1e-6,
    "region.grid_size": 12,
}

_PRESET_SEED = 987654321


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fail(path: str, message: str):
    raise ConfigError(f"config error at {path}: {message}")


def _require_positive_finite(path: str, value) -> None:
    if value is not None and not 0 < value < math.inf:  # NaN fails too
        _fail(path, "must be positive and finite")


def _is_number(value, kind=float) -> bool:
    """Whether ``value`` is a JSON number (an integer when ``kind`` is int);
    JSON booleans are not, although Python counts them as integers."""
    return isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)


def _get(cfg: dict, path: str, kind, required=True, default=None, defaults_used=None):
    node = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.get(part, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or parts[-1] not in node:
        if required:
            _fail(path, "missing required field")
        if defaults_used is not None and default is not None:
            defaults_used.append(path)
        return default
    value = node[parts[-1]]
    if kind is float and _is_number(value):
        return float(value)
    if kind is int and _is_number(value, int):
        return value
    if kind is not None and not isinstance(value, kind):
        _fail(path, f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


@dataclass
class Experiment:
    """A validated configuration, ready to run.  ``points`` holds one
    (axis value as written in the CSV, game, channel model, rule kinds)
    tuple per sweep point, or the single point of a run without a sweep."""

    task: str
    config: dict  # normalized echo
    defaults_used: list
    points: list[tuple[str, GameParams, ChannelModel, list[StrategyKind]]]
    engine: EngineConfig  # each run replaces its spawn_key
    replicates: int
    trace: bool
    sweep_axis: str | None
    grid_size: int
    artifact: str


def parse_config(cfg: dict) -> Experiment:
    """Validate a config dict and build its sweep points; raises
    ConfigError naming the bad field."""
    if not isinstance(cfg, dict):
        raise ConfigError("config error at <root>: document must be a JSON object")
    used: list = []

    task = _get(cfg, "task", str)
    if task not in _TASKS:
        _fail("task", f"must be one of {_TASKS}")

    n_players = _get(cfg, "game.K", int)
    if n_players < 1:
        _fail("game.K", "must be >= 1")
    game = cfg.get("game")
    game = game if isinstance(game, dict) else {}
    if ("a" in game) == ("rate" in game):
        _fail("game", "give exactly one of a or rate")
    a = _get(cfg, "game.a", float, required=False)
    rate = _get(cfg, "game.rate", float, required=False)
    _require_positive_finite("game.a", a)
    _require_positive_finite("game.rate", rate)
    if rate is None:
        used.append("game.rate")  # given a, GameParams.symmetric plays at rate 1
    sigma2 = _get(cfg, "game.sigma2", float, required=False,
                  default=DEFAULTS["game.sigma2"], defaults_used=used)
    _require_positive_finite("game.sigma2", sigma2)
    p_max = _get(cfg, "game.p_max", None, required=False,
                 default=DEFAULTS["game.p_max"], defaults_used=used)
    if isinstance(p_max, list):
        if len(p_max) != n_players or any(not _is_number(v) or not v > 0 for v in p_max):
            _fail("game.p_max", f"must be {n_players} positive numbers")
    elif not _is_number(p_max) or not p_max > 0:
        _fail("game.p_max", "must be a positive number or list")

    channel = _parse_channel(cfg, used)
    strategies = _parse_strategies(cfg, task, n_players)

    seed = _get(cfg, "engine.seed", int)
    if seed < 0:
        _fail("engine.seed", "must be >= 0")
    horizon = _get(cfg, "engine.horizon", int, required=False, default=100_000,
                   defaults_used=used)
    if horizon < 1:
        _fail("engine.horizon", "must be >= 1")
    lam = _get(cfg, "engine.lam", float, required=False,
               default=DEFAULTS["engine.lam"], defaults_used=used)
    if not 0.0 < lam < 1.0:
        _fail("engine.lam", "must be in (0, 1)")
    replicates = _get(cfg, "engine.replicates", int, required=False,
                      default=DEFAULTS["engine.replicates"], defaults_used=used)
    if replicates < 1:
        _fail("engine.replicates", "must be >= 1")
    detection_tol = _get(cfg, "engine.detection_tol", float, required=False,
                         default=DEFAULTS["engine.detection_tol"], defaults_used=used)
    _require_positive_finite("engine.detection_tol", detection_tol)
    trace = _get(cfg, "engine.trace", bool, required=False, default=False)
    dv = _get(cfg, "engine.deviation", None, required=False)
    if task != "simulate":
        for path, given in (("engine.trace", trace), ("engine.deviation", dv is not None)):
            if given:
                _fail(path, f"only the simulate task reads it, not {task}")
    deviation = None
    if dv is not None:
        if not isinstance(dv, dict):
            _fail("engine.deviation", "must be an object")
        try:
            deviation = DeviationSpec(
                player=_get(cfg, "engine.deviation.player", int),
                start=_get(cfg, "engine.deviation.start", int, required=False, default=1),
                mode=_get(cfg, "engine.deviation.mode", str, required=False,
                          default="one_shot"),
            )
        except ValueError as exc:
            _fail("engine.deviation", str(exc))
        if deviation.start > horizon:  # the run would play no deviation
            _fail("engine.deviation.start", f"must be <= engine.horizon ({horizon})")

    sweep_axis, sweep_values = None, [None]
    if cfg.get("sweep") is not None:
        if task in ("region", "partition"):
            _fail("sweep", f"the {task} task plays a single point")
        sweep_axis = _get(cfg, "sweep.axis", str)
        if sweep_axis not in _SWEEP_AXES:
            _fail("sweep.axis", f"must be one of {_SWEEP_AXES}")
        sweep_values = _get(cfg, "sweep.values", list)
        if not sweep_values:
            _fail("sweep.values", "must be non-empty")
        if sweep_axis == "K" and any(not _is_number(v, int) or v < 1 for v in sweep_values):
            _fail("sweep.values", "K values must be integers >= 1")
        if sweep_axis == "ratio" and any(
            not _is_number(v) or not 1 <= v < math.inf for v in sweep_values
        ):
            _fail("sweep.values", "ratio values must be finite numbers >= 1")
        if sweep_axis == "alpha" and any(
            not _is_number(v) or not 0 <= v <= 1 for v in sweep_values
        ):
            _fail("sweep.values", "alpha values must lie in [0, 1]")
        if sweep_axis == "ratio" and not isinstance(channel, TwoStateSpec):
            _fail("sweep.axis", "ratio sweeps need a two_state channel")
        if sweep_axis == "alpha" and not any(s.name == "threshold" for s in strategies):
            _fail("sweep.axis", "alpha sweeps need a threshold strategy")
        if sweep_axis == "K" and isinstance(p_max, list):
            _fail("game.p_max", "a per-player list cannot follow a K sweep")
        if sweep_axis == "K" and task == "simulate" and len(strategies) != 1:
            _fail("strategies", "sweeping K needs a single shared strategy")
        if trace:
            _fail("engine.trace", "a trace is kept only for a run without a sweep")

    grid_size = _get(cfg, "region.grid_size", int, required=False,
                     default=DEFAULTS["region.grid_size"],
                     defaults_used=used if task == "region" else None)
    if grid_size < 2:
        _fail("region.grid_size", "must be >= 2")

    artifact = _get(cfg, "artifact", str, required=False,
                    default={"simulate": "summary.csv", "dominance": "dominance.csv",
                             "region": "region.csv", "lambdamax": "lambdamax.csv",
                             "partition": "partition.csv"}[task])

    played = sweep_values if sweep_axis == "K" else [n_players]
    if deviation is not None and deviation.player >= min(played):
        _fail("engine.deviation.player", f"must be below every K played ({played})")
    if isinstance(channel, str):
        try:
            channel = load_model(channel)
        except OSError as exc:
            _fail("channel.path", f"cannot read {channel}: {exc.strerror}")
    points = []
    for value in sweep_values:
        k, spec, kinds = n_players, channel, strategies
        if sweep_axis == "K":
            k = int(value)
        elif sweep_axis == "ratio":
            spec = replace(channel, eta_max=channel.eta_min * float(value))
        elif sweep_axis == "alpha":
            kinds = [threshold(value) if s.name == "threshold" else s for s in strategies]
        if isinstance(spec, ChannelModel) and spec.n_players != k:
            _fail("channel.path", f"model has {spec.n_players} players, game has {k}")
        try:
            params = GameParams.symmetric(k, a=a, rate=rate, sigma2=sigma2, p_max=p_max)
        except ValueError as exc:  # a, sigma2 and p_max are checked above
            _fail("game.rate", str(exc))
        model = spec if isinstance(spec, ChannelModel) else build_model(spec, k)
        label = str(k) if sweep_axis in (None, "K") else _fmt(float(value))
        points.append((label, params, model, kinds))

    return Experiment(
        task=task, config=normalize_config(cfg), defaults_used=sorted(set(used)),
        points=points,
        engine=EngineConfig(horizon=horizon, lam=lam, seed=seed, deviation=deviation,
                            detection_tol=detection_tol),
        replicates=replicates, trace=trace, sweep_axis=sweep_axis, grid_size=grid_size,
        artifact=artifact,
    )


def _parse_channel(cfg: dict, used: list) -> TwoStateSpec | TruncatedRayleighSpec | str:
    kind = _get(cfg, "channel.kind", str)
    if kind == "two_state":
        eta_min = _get(cfg, "channel.eta_min", float, required=False,
                       default=DEFAULTS["channel.eta_min(two_state)"], defaults_used=used)
        eta_max = _get(cfg, "channel.eta_max", float)
        p_high = _get(cfg, "channel.p_high", float, required=False, default=0.5,
                      defaults_used=used)
        if not 0 < eta_min <= eta_max < math.inf:
            _fail("channel.eta_max", "need 0 < eta_min <= eta_max < inf")
        if not 0 < p_high < 1:
            _fail("channel.p_high", "must be in (0, 1)")
        return TwoStateSpec(eta_min, eta_max, p_high)
    if kind == "truncated_rayleigh":
        scale = _get(cfg, "channel.scale", float, required=False,
                     default=DEFAULTS["channel.scale"], defaults_used=used)
        eta_min = _get(cfg, "channel.eta_min", float, required=False,
                       default=DEFAULTS["channel.eta_min(rayleigh)"], defaults_used=used)
        eta_max = _get(cfg, "channel.eta_max", float, required=False,
                       default=DEFAULTS["channel.eta_max(rayleigh)"], defaults_used=used)
        bins = _get(cfg, "channel.bins", int, required=False,
                    default=DEFAULTS["channel.bins"], defaults_used=used)
        _require_positive_finite("channel.scale", scale)
        if bins < 2:
            _fail("channel.bins", "must be >= 2")
        if not 0 <= eta_min < eta_max:
            _fail("channel.eta_max", "need 0 <= eta_min < eta_max")
        return TruncatedRayleighSpec(scale, eta_min, eta_max, bins)
    if kind == "explicit":
        return _get(cfg, "channel.path", str)
    _fail("channel.kind", "must be two_state, truncated_rayleigh or explicit")


def _parse_strategies(cfg: dict, task: str, n_players: int) -> list:
    if task in ("partition", "region", "lambdamax"):
        if "strategies" in cfg:
            _fail("strategies", f"the {task} task fixes its own rules")
        return []
    raw = _get(cfg, "strategies", list)
    if not raw:
        _fail("strategies", "must be non-empty")
    out = []
    for j, item in enumerate(raw):
        if isinstance(item, str):
            item = {"kind": item}
        if not isinstance(item, dict) or "kind" not in item:
            _fail(f"strategies[{j}]", "must be a kind name or an object with kind")
        kind = item["kind"]
        if kind == "threshold":
            alpha = item.get("alpha")
            if not _is_number(alpha) or not 0 <= alpha <= 1:
                _fail(f"strategies[{j}].alpha", "threshold needs alpha in [0, 1]")
            out.append(threshold(alpha))
        elif kind in _VALID_KINDS:
            out.append(StrategyKind(kind))
        else:
            _fail(f"strategies[{j}].kind", f"unknown strategy {kind!r}")
    if task == "simulate" and len(out) not in (1, n_players):
        _fail("strategies", f"simulate needs 1 or K={n_players} entries")
    return out


def normalize_config(cfg: dict) -> dict:
    """Canonical (sorted, deep-copied) form of a config document."""
    return json.loads(json.dumps(cfg, sort_keys=True))


def _task_simulate(exp: Experiment) -> list:
    header = "player,v_discounted,u_avg,stderr"
    lines = [header if exp.sweep_axis is None else f"{exp.sweep_axis},{header}"]
    artifacts = []
    for j, (label, params, model, kinds) in enumerate(exp.points):
        kinds_full = kinds if len(kinds) == params.n_players else kinds * params.n_players
        discounted, averages = [], []
        for r in range(exp.replicates):
            result = run_game(params, model, kinds_full, replace(exp.engine, spawn_key=(j, r)))
            discounted.append(result.discounted)
            averages.append(result.time_average)
            if r == 0 and exp.trace:  # parse_config refuses a trace with a sweep
                artifacts.append(("trace.csv", trace_csv(result)))
        v = UtilityEstimate.from_replicates(np.array(discounted)).mean
        u = UtilityEstimate.from_replicates(np.array(averages))
        for i in range(params.n_players):
            row = f"{i},{_fmt(v[i])},{_fmt(u.mean[i])},{_fmt(u.stderr[i])}"
            lines.append(row if exp.sweep_axis is None else f"{label},{row}")
    artifacts.insert(0, (exp.artifact, "\n".join(lines) + "\n"))
    return artifacts


def _task_dominance(exp: Experiment) -> list:
    lines = [f"{exp.sweep_axis or 'K'},strategy,mean,stderr"]
    for j, (label, params, model, kinds) in enumerate(exp.points):
        estimates = estimate_expected_utilities(
            params, model, kinds, exp.engine.horizon, exp.engine.seed, exp.replicates,
            spawn_prefix=(j,),
        )
        for kind, est in zip(kinds, estimates):
            # player-averaged per replicate
            avg = UtilityEstimate.from_replicates(est.per_replicate.mean(axis=1))
            lines.append(f"{label},{kind.label},{_fmt(avg.mean)},{_fmt(avg.stderr)}")
    return [(exp.artifact, "\n".join(lines) + "\n")]


def _task_region(exp: Experiment) -> list:
    _, params, model, _ = exp.points[0]  # parse_config refuses a sweep
    region = analysis.feasible_region_2p(params, model, exp.grid_size)
    hull_lines = ["x,y"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in region.hull]
    marker_lines = ["name,u1,u2"] + [
        f"{name},{_fmt(pt[0])},{_fmt(pt[1])}" for name, pt in region.markers.items()
    ]
    fstar_lines = ["x,y"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in region.fstar]
    minmax_lines = ["player,level"] + [
        f"{i},{_fmt(v)}" for i, v in enumerate(region.minmax)
    ]
    return [
        (exp.artifact, "\n".join(hull_lines) + "\n"),
        ("markers.csv", "\n".join(marker_lines) + "\n"),
        ("fstar.csv", "\n".join(fstar_lines) + "\n"),
        ("minmax.csv", "\n".join(minmax_lines) + "\n"),
    ]


def _task_lambdamax(exp: Experiment) -> list:
    lines = [f"{exp.sweep_axis or 'K'},lambda_max,delta,delta_stderr,penalty"]
    for j, (label, params, model, _) in enumerate(exp.points):
        bound = analysis.lambda_max(
            params, model, horizon=exp.engine.horizon, replicates=exp.replicates,
            seed=exp.engine.seed, spawn_prefix=(j,),
        )
        binding = int(np.argmin(bound.per_player))
        lines.append(
            f"{label},{_fmt(bound.lambda_max)},"
            f"{_fmt(bound.delta[binding])},{_fmt(bound.delta_stderr[binding])},"
            f"{_fmt(bound.penalty)}"
        )
    return [(exp.artifact, "\n".join(lines) + "\n")]


def _task_partition(exp: Experiment) -> list:
    _, params, model, _ = exp.points[0]  # parse_config refuses a sweep
    part = analysis.config_partition(
        params, model, horizon=exp.engine.horizon, seed=exp.engine.seed
    )
    lines = ["k,H1_freq,H2_freq"] + [
        f"{k},{_fmt(h1)},{_fmt(h2)}"
        for k, h1, h2 in zip(part.k, part.recommended_freq, part.not_recommended_freq)
    ]
    return [(exp.artifact, "\n".join(lines) + "\n")]


_TASK_RUNNERS = {
    "simulate": _task_simulate,
    "dominance": _task_dominance,
    "region": _task_region,
    "lambdamax": _task_lambdamax,
    "partition": _task_partition,
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config error at {path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc


def run_experiment(config, out_dir) -> dict:
    """Validate, run, and write artifacts plus manifest.json; returns the
    manifest.  ``config`` is a dict or a path to a JSON file.  Nothing is
    written unless the whole experiment succeeds."""
    if not isinstance(config, dict):
        config = load_config(config)
    exp = parse_config(config)
    artifacts = _TASK_RUNNERS[exp.task](exp)
    artifacts.append(
        ("config.json", json.dumps(exp.config, sort_keys=True, indent=1) + "\n")
    )
    preset_prov = exp.config.get("provenance", {})
    manifest = {
        "format": "powergame-manifest-v1",
        "config": exp.config,
        "seed": exp.engine.seed,
        "defaults_used": sorted(set(exp.defaults_used) | set(preset_prov.get("default", []))),
        "artifacts": {
            name: hashlib.sha256(text.encode()).hexdigest() for name, text in artifacts
        },
        "version": _package_version(),
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


def _package_version() -> str:
    from . import __version__

    return __version__


PRESETS = ("fig2", "fig3", "fig4", "fig5", "partition")


def preset(name: str, seed: int | None = None) -> dict:
    """Built-in experiment configuration by name.

    Fields the underlying study states are marked "stated" in the
    provenance block; everything else is a documented default and also
    lands in the manifest's ``defaults_used``.
    """
    if name not in PRESETS:
        raise ConfigError(
            f"config error at preset: unknown preset {name!r}; valid: {', '.join(PRESETS)}"
        )
    seed_src = "cli" if seed is not None else "default"
    seed = _PRESET_SEED if seed is None else int(seed)
    if name == "fig2":
        cfg = {
            "task": "dominance",
            "game": {"K": 10, "a": 0.1},
            "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 1.0, "p_high": 0.5},
            "strategies": ["best_users", "nash", "operating_point"],
            "engine": {"horizon": 100_000, "seed": seed, "replicates": 4},
            "sweep": {"axis": "ratio", "values": [1, 2, 4, 8]},
            "artifact": "fig2.csv",
            "provenance": {
                "stated": ["game.K", "game.a", "channel.kind", "channel.p_high",
                           "sweep.values", "engine.horizon"],
                "default": ["channel.eta_min", "game.sigma2", "game.p_max",
                            "game.rate", "engine.replicates",
                            f"engine.seed({seed_src})"],
            },
        }
    elif name == "fig3":
        cfg = {
            "task": "region",
            "game": {"K": 2, "a": 0.5, "p_max": 5.0},
            "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 4.0, "p_high": 0.5},
            "engine": {"seed": seed, "horizon": 100_000},
            "region": {"grid_size": 12},
            "artifact": "region.csv",
            "provenance": {
                "stated": ["game.K", "game.a", "channel.kind", "channel.p_high",
                           "channel.eta_max/channel.eta_min=4"],
                "default": ["channel.eta_min", "game.sigma2", "game.p_max",
                            "game.rate", "region.grid_size",
                            f"engine.seed({seed_src})"],
            },
        }
    elif name == "fig4":
        cfg = {
            "task": "dominance",
            "game": {"K": 10, "a": 0.1},
            "channel": {"kind": "truncated_rayleigh", "scale": 1.0,
                        "eta_min": 0.1, "eta_max": 10.0, "bins": 16},
            "strategies": ["nash", "time_sharing", "operating_point",
                           {"kind": "threshold", "alpha": 0.5}, "best_users"],
            "engine": {"horizon": 100_000, "seed": seed, "replicates": 4},
            "sweep": {"axis": "K", "values": list(range(1, 11))},
            "artifact": "fig4.csv",
            "provenance": {
                "stated": ["game.a", "channel.kind", "sweep.values",
                           "strategies", "engine.horizon"],
                "default": ["channel.scale", "channel.eta_min", "channel.eta_max",
                            "channel.bins", "game.sigma2", "game.p_max",
                            "game.rate", "engine.replicates",
                            f"engine.seed({seed_src})"],
            },
        }
    elif name == "fig5":
        cfg = {
            "task": "lambdamax",
            "game": {"K": 10, "a": 0.1},
            "channel": {"kind": "truncated_rayleigh", "scale": 1.0,
                        "eta_min": 0.1, "eta_max": 10.0, "bins": 16},
            "engine": {"horizon": 100_000, "seed": seed, "replicates": 4},
            "sweep": {"axis": "K", "values": list(range(2, 11))},
            "artifact": "fig5.csv",
            "provenance": {
                "stated": ["sweep.values", "engine.horizon"],
                "default": ["game.a", "channel.kind", "channel.scale",
                            "channel.eta_min", "channel.eta_max", "channel.bins",
                            "game.sigma2", "game.p_max", "game.rate",
                            "engine.replicates", f"engine.seed({seed_src})"],
            },
        }
    else:  # partition
        cfg = {
            "task": "partition",
            "game": {"K": 5, "a": 0.2},
            "channel": {"kind": "truncated_rayleigh", "scale": 1.0,
                        "eta_min": 0.1, "eta_max": 10.0, "bins": 16},
            "engine": {"horizon": 100_000, "seed": seed},
            "artifact": "partition.csv",
            "provenance": {
                "stated": ["game.K", "game.a", "engine.horizon"],
                "default": ["channel.kind", "channel.scale", "channel.eta_min",
                            "channel.eta_max", "channel.bins", "game.sigma2",
                            "game.p_max", "game.rate", f"engine.seed({seed_src})"],
            },
        }
    return cfg
