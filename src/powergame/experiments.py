"""Experiment configs, presets, and the artifact-producing runner.

Configs are JSON documents with a fixed schema (``_FIELDS``, see README).  The runner
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

from . import __version__, analysis
from .channels import (ChannelModel, TruncatedRayleighSpec, TwoStateSpec, _is_number, build_model,
                       load_model)
from .engine import (
    DeviationSpec,
    EngineConfig,
    UtilityEstimate,
    _payoffs,
    estimate_expected_utilities,
    run_game,
    trace_csv,
)
from .errors import ConfigError
from .oneshot import GameParams
from .strategies import _VALID_KINDS, StrategyKind, threshold

# the main CSV (the default ``artifact``) and the other files of each task
_TASK_FILES = {
    "simulate": ("summary.csv", "trace.csv"),
    "dominance": ("dominance.csv",),
    "region": ("region.csv", "markers.csv", "fstar.csv", "minmax.csv"),
    "lambdamax": ("lambdamax.csv",),
    "partition": ("partition.csv",),
}
_TASKS = tuple(_TASK_FILES)
_SWEEP_AXES = {  # each axis and the check of its values
    "ratio": ((lambda x: _is_number(x) and 1 <= x < math.inf),
              "ratio values must be finite numbers >= 1"),
    "K": ((lambda x: _is_number(x, int) and x >= 1), "K values must be integers >= 1"),
    "alpha": ((lambda x: _is_number(x) and 0 <= x <= 1), "alpha values must lie in [0, 1]"),
}
_PRESET_SEED = 987654321
# the channel of fig4, fig5 and partition; each preset gets its own copy
_PRESET_RAYLEIGH_16 = {"kind": "truncated_rayleigh", "scale": 1.0,
                       "eta_min": 0.1, "eta_max": 10.0, "bins": 16}
_REQUIRED = object()


def _at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


def _one_of(names):
    return (lambda v: v in names), f"must be one of {names}"


_POSITIVE = (lambda v: 0 < v < math.inf), "must be positive and finite"  # NaN fails too
_OPEN_UNIT = (lambda v: 0 < v < 1), "must be in (0, 1)"
_NON_EMPTY = len, "must be non-empty"
_STRINGS = (lambda v: all(isinstance(s, str) for s in v)), "must be a list of strings"
_FILE_NAME = ((lambda v: v not in ("", ".", "..") and not set(v) & set("/\\\0")),
              "must be a plain file name")
_SIMULATE = ("simulate",)
_SAMPLED = ("simulate", "dominance", "lambdamax")  # the tasks with replicates and sweeps
_PLAYED = _SAMPLED + ("partition",)  # the tasks that play a horizon

# The config schema, one row per field: (path, type, default, check, readers).
# - type None takes any value, which parse_config checks itself.
# - default _REQUIRED must be given where read; None means absence is
#   meaningful (no trace, no deviation, no sweep, the task's own file name).
#   Any other default the run reads is listed in defaults_used when absent.
# - check (predicate, message) is applied to a given value.
# - readers: the tasks, channel kinds or strategy kinds that read the field
#   (None: all).  A given field that no row of its path reads exits 2.
# Rows under an absent optional section (engine.deviation, sweep) are
# skipped; the "strategies[]." rows describe one object in strategies.
_FIELDS = (
    ("task", str, _REQUIRED, _one_of(_TASKS), None),
    ("game.K", int, _REQUIRED, _at_least(1), None),
    ("game.a", float, None, _POSITIVE, None),  # exactly one of a and rate
    ("game.rate", float, 1.0, _POSITIVE, None),  # rate 1 when a is given
    ("game.sigma2", float, 1.0, _POSITIVE, None),
    ("game.p_max", None, 1e6, None, None),  # a number or one per player
    ("channel.kind", str, _REQUIRED,
     _one_of(("two_state", "truncated_rayleigh", "explicit")), None),
    ("channel.eta_min", float, 1.0, None, ("two_state",)),
    ("channel.eta_max", float, _REQUIRED, None, ("two_state",)),
    ("channel.p_high", float, 0.5, _OPEN_UNIT, ("two_state",)),
    ("channel.scale", float, 1.0, _POSITIVE, ("truncated_rayleigh",)),
    ("channel.eta_min", float, 0.1, None, ("truncated_rayleigh",)),
    ("channel.eta_max", float, 10.0, None, ("truncated_rayleigh",)),
    ("channel.bins", int, 16, _at_least(2), ("truncated_rayleigh",)),
    ("channel.path", str, _REQUIRED, None, ("explicit",)),
    ("strategies", list, _REQUIRED, _NON_EMPTY, ("simulate", "dominance")),
    ("strategies[].kind", str, _REQUIRED, _one_of(_VALID_KINDS), None),
    ("strategies[].alpha", float, _REQUIRED, ((lambda v: 0 <= v <= 1), "must be in [0, 1]"),
     ("threshold",)),
    ("engine.seed", int, _REQUIRED, _at_least(0), None),  # the manifest records it
    ("engine.horizon", int, 100_000, _at_least(1), _PLAYED),
    ("engine.lam", float, 0.5, _OPEN_UNIT, _SIMULATE),
    ("engine.replicates", int, 4, _at_least(1), _SAMPLED),
    ("engine.trace", bool, None, None, _SIMULATE),
    ("engine.deviation", dict, None, None, _SIMULATE),
    ("engine.deviation.player", int, _REQUIRED, _at_least(0), _SIMULATE),
    ("engine.deviation.start", int, None, _at_least(1), _SIMULATE),
    ("engine.deviation.mode", str, None, _one_of(("one_shot", "permanent")), _SIMULATE),
    ("sweep", dict, None, None, _SAMPLED),
    ("sweep.axis", str, _REQUIRED, _one_of(tuple(_SWEEP_AXES)), _SAMPLED),
    ("sweep.values", list, _REQUIRED, _NON_EMPTY, _SAMPLED),
    ("region.grid_size", int, 12, _at_least(2), ("region",)),
    ("artifact", str, None, _FILE_NAME, None),
    ("provenance.stated", list, None, _STRINGS, None),
    ("provenance.default", list, None, _STRINGS, None),
)
_ITEM = "strategies[]."
_CONFIG_FIELDS = tuple(row for row in _FIELDS if not row[0].startswith(_ITEM))
_STRATEGY_FIELDS = tuple((row[0][len(_ITEM):],) + row[1:]
                         for row in _FIELDS if row[0].startswith(_ITEM))
_SECTIONS = {row[0].rpartition(".")[0] for row in _CONFIG_FIELDS} - {""}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fail(path: str, message: str):
    raise ConfigError(f"config error at {path}: {message}")


def _flatten(node: dict, prefix: str = "") -> dict:
    """{path: value} of every key of ``node``, descending into sections."""
    flat = {}
    for key, value in node.items():
        path = prefix + key
        if "." in key:  # it would pass for a field of a section
            _fail(path, "unknown field")
        flat[path] = value
        if path in _SECTIONS:
            if not isinstance(value, dict):
                _fail(path, "must be an object")
            flat.update(_flatten(value, path + "."))
    return flat


def _typed(path: str, value, kind, check):
    number = kind in (int, float)  # a JSON boolean is no number, although Python's bool is an int
    if not (_is_number(value, kind) if number else kind is None or isinstance(value, kind)):
        _fail(path, f"expected {kind.__name__}, got {type(value).__name__}")
    value = kind(value) if number else value
    if check is not None and not check[0](value):
        _fail(path, check[1])
    return value


def _read(given: dict, rows, keys, used: list, shown: str = "") -> dict:
    """Walk ``rows`` over the flattened object ``given``.  The fields named
    by ``keys``, which every reader reads, are read first; their values
    select which other rows are read.  A key outside ``rows`` exits 2, then
    a bad value, then a given field that no row reads; each names the first
    such field in sorted (or table) order.

    Returns the value of every given field and the default of every absent
    one, read or not; ``used`` collects the paths of the read defaults."""
    paths = {row[0] for row in rows}
    known = paths | {path.rpartition(".")[0] for path in paths} - {""}
    for path in sorted(given):
        if path not in known:
            _fail(shown + path, "unknown field")
    values, context = {}, set()
    for universal in (True, False):
        if not universal:
            context = {values[key] for key in keys}
        for path, kind, default, check, readers in rows:
            section = path.rpartition(".")[0]
            if (readers is None) != universal or section in paths and section not in given:
                continue
            if path in given:
                values[path] = _typed(shown + path, given[path], kind, check)
            elif readers is not None and context.isdisjoint(readers):
                if default not in (None, _REQUIRED):  # not read: kept, not recorded
                    values.setdefault(path, default)
            elif default is _REQUIRED:
                _fail(shown + path, "missing required field")
            elif default is not None:
                values[path] = default
                used.append(path)
    for path in sorted(given):
        mine = [row for row in rows if row[0] == path]
        if mine and all(row[4] is not None and context.isdisjoint(row[4]) for row in mine):
            readers = ", ".join(dict.fromkeys(name for row in mine for name in row[4]))
            _fail(shown + path, f"read only by {readers}")
    return values


@dataclass
class Experiment:
    """A validated configuration, ready to run.  ``points`` holds one
    (axis value as written in the CSV, game, channel model, rule kinds)
    tuple per sweep point, or the single point of a run without a sweep."""

    task: str
    config: dict  # normalized echo
    defaults_used: list
    points: list[tuple[str, GameParams, ChannelModel, list[StrategyKind]]]
    horizon: int
    seed: int
    lam: float | None  # simulate only
    deviation: DeviationSpec | None  # simulate only
    replicates: int
    trace: bool
    sweep_axis: str | None
    grid_size: int
    artifact: str


def parse_config(cfg: dict) -> Experiment:
    """Validate a config dict against ``_FIELDS`` and build its sweep
    points; raises ConfigError naming the bad field."""
    if not isinstance(cfg, dict):
        raise ConfigError("config error at <root>: document must be a JSON object")
    used: list = []
    v = _read(_flatten(cfg), _CONFIG_FIELDS, ("task", "channel.kind"), used)
    task, n_players, p_max = v["task"], v["game.K"], v["game.p_max"]

    a = v.get("game.a")
    if (a is None) == ("game.rate" in used):  # neither or both given
        _fail("game", "give exactly one of a or rate")
    rate = v["game.rate"] if a is None else None
    if isinstance(p_max, list):
        if len(p_max) != n_players or any(not _is_number(x) or not x > 0 for x in p_max):
            _fail("game.p_max", f"must be {n_players} positive numbers")
    elif not _is_number(p_max) or not p_max > 0:
        _fail("game.p_max", "must be a positive number or list")

    kind, eta_min, eta_max = v["channel.kind"], v.get("channel.eta_min"), v.get("channel.eta_max")
    if kind == "two_state":
        if not 0 < eta_min <= eta_max < math.inf:
            _fail("channel.eta_max", "need 0 < eta_min <= eta_max < inf")
        channel = TwoStateSpec(eta_min, eta_max, v["channel.p_high"])
    elif kind == "truncated_rayleigh":
        if not 0 <= eta_min < eta_max:
            _fail("channel.eta_max", "need 0 <= eta_min < eta_max")
        channel = TruncatedRayleighSpec(v["channel.scale"], eta_min, eta_max, v["channel.bins"])
    else:
        channel = v["channel.path"]
    strategies = []
    for j, item in enumerate(v.get("strategies", [])):
        shown = f"strategies[{j}]."
        if not isinstance(item, (str, dict)):
            _fail(shown[:-1], "must be a kind name or an object with kind")
        item = _read({"kind": item} if isinstance(item, str) else item, _STRATEGY_FIELDS,
                     ("kind",), used, shown)
        name = item["kind"]
        strategies.append(threshold(item["alpha"]) if name == "threshold" else StrategyKind(name))
    if task == "simulate" and len(strategies) not in (1, n_players):
        _fail("strategies", f"simulate needs 1 or K={n_players} entries")

    horizon, trace = v["engine.horizon"], v.get("engine.trace", False)
    deviation = {path.rpartition(".")[2]: value for path, value in v.items()
                 if path.startswith("engine.deviation.")}
    deviation = DeviationSpec(**deviation) if deviation else None
    if deviation is not None and deviation.start > horizon:  # the run would play no deviation
        _fail("engine.deviation.start", f"must be <= engine.horizon ({horizon})")

    sweep_axis, sweep_values = v.get("sweep.axis"), v.get("sweep.values", [None])
    if sweep_axis is not None and not all(map(_SWEEP_AXES[sweep_axis][0], sweep_values)):
        _fail("sweep.values", _SWEEP_AXES[sweep_axis][1])
    if sweep_axis == "ratio" and not isinstance(channel, TwoStateSpec):
        _fail("sweep.axis", "ratio sweeps need a two_state channel")
    if sweep_axis == "alpha" and not any(s.name == "threshold" for s in strategies):
        _fail("sweep.axis", "alpha sweeps need a threshold strategy")
    if sweep_axis == "K" and isinstance(p_max, list):
        _fail("game.p_max", "a per-player list cannot follow a K sweep")
    if sweep_axis == "K" and task == "simulate" and len(strategies) != 1:
        _fail("strategies", "sweeping K needs a single shared strategy")
    if sweep_axis is not None and trace:
        _fail("engine.trace", "a trace is kept only for a run without a sweep")

    artifact = v.get("artifact", _TASK_FILES[task][0])
    if artifact in ("config.json", "manifest.json", *_TASK_FILES[task][1:]):
        _fail("artifact", f"the {task} task writes {artifact} itself")

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
            params = GameParams.symmetric(k, a=a, rate=rate, sigma2=v["game.sigma2"],
                                          p_max=p_max)
        except ValueError as exc:  # a, sigma2 and p_max are checked above
            _fail("game.rate", str(exc))
        model = spec if isinstance(spec, ChannelModel) else build_model(spec, k)
        label = str(k) if sweep_axis in (None, "K") else _fmt(float(value))
        points.append((label, params, model, kinds))

    return Experiment(
        task=task, config=normalize_config(cfg),
        defaults_used=sorted(set(used) | set(v.get("provenance.default", []))),
        points=points,
        horizon=horizon, seed=v["engine.seed"],
        lam=v["engine.lam"] if task == "simulate" else None, deviation=deviation,
        replicates=v["engine.replicates"], trace=trace, sweep_axis=sweep_axis,
        grid_size=v["region.grid_size"], artifact=artifact,
    )


def normalize_config(cfg: dict) -> dict:
    """Canonical (sorted, deep-copied) form of a config document."""
    return json.loads(json.dumps(cfg, sort_keys=True))


def _csv(lines: list) -> str:
    return "\n".join(lines) + "\n"


# Each runner returns the texts of its task's files, in _TASK_FILES order.
def _task_simulate(exp: Experiment) -> list:
    header = "player,v_discounted,u_avg,stderr"
    lines = [header if exp.sweep_axis is None else f"{exp.sweep_axis},{header}"]
    traces = []
    for j, (label, params, model, kinds) in enumerate(exp.points):
        kinds_full = kinds if len(kinds) == params.n_players else kinds * params.n_players
        discounted, averages = [], []
        for r in range(exp.replicates):
            cfg = EngineConfig(horizon=exp.horizon, lam=exp.lam, seed=exp.seed, spawn_key=(j, r),
                               deviation=exp.deviation)
            if r == 0 and exp.trace:  # parse_config refuses a trace with a sweep
                result = run_game(params, model, kinds_full, cfg)
                traces.append(trace_csv(result))
                payoffs = result.discounted, result.time_average
            else:  # only the payoffs are kept: no trace is built
                payoffs = _payoffs(params, model, kinds_full, cfg)
            discounted.append(payoffs[0])
            averages.append(payoffs[1])
        v = UtilityEstimate.from_replicates(np.array(discounted)).mean
        u = UtilityEstimate.from_replicates(np.array(averages))
        for i in range(params.n_players):
            row = f"{i},{_fmt(v[i])},{_fmt(u.mean[i])},{_fmt(u.stderr[i])}"
            lines.append(row if exp.sweep_axis is None else f"{label},{row}")
    return [_csv(lines), *traces]


def _task_dominance(exp: Experiment) -> list:
    lines = [f"{exp.sweep_axis or 'K'},strategy,mean,stderr"]
    for j, (label, params, model, kinds) in enumerate(exp.points):
        estimates = estimate_expected_utilities(
            params, model, kinds, exp.horizon, exp.seed, exp.replicates,
            spawn_prefix=(j,),
        )
        for kind, est in zip(kinds, estimates):
            # player-averaged per replicate
            avg = UtilityEstimate.from_replicates(est.per_replicate.mean(axis=1))
            lines.append(f"{label},{kind.label},{_fmt(avg.mean)},{_fmt(avg.stderr)}")
    return [_csv(lines)]


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
    return [_csv(hull_lines), _csv(marker_lines), _csv(fstar_lines), _csv(minmax_lines)]


def _task_lambdamax(exp: Experiment) -> list:
    lines = [f"{exp.sweep_axis or 'K'},lambda_max,delta,delta_stderr,penalty"]
    for j, (label, params, model, _) in enumerate(exp.points):
        bound = analysis.lambda_max(
            params, model, horizon=exp.horizon, replicates=exp.replicates, seed=exp.seed,
            spawn_prefix=(j,),
        )
        binding = int(np.argmin(bound.per_player))
        lines.append(
            f"{label},{_fmt(bound.lambda_max)},"
            f"{_fmt(bound.delta[binding])},{_fmt(bound.delta_stderr[binding])},"
            f"{_fmt(bound.penalty)}"
        )
    return [_csv(lines)]


def _task_partition(exp: Experiment) -> list:
    _, params, model, _ = exp.points[0]  # parse_config refuses a sweep
    part = analysis.config_partition(
        params, model, horizon=exp.horizon, seed=exp.seed
    )
    lines = ["k,H1_freq,H2_freq"] + [
        f"{k},{_fmt(h1)},{_fmt(h2)}"
        for k, h1, h2 in zip(part.k, part.recommended_freq, part.not_recommended_freq)
    ]
    return [_csv(lines)]


_TASK_RUNNERS = {
    "simulate": _task_simulate,
    "dominance": _task_dominance,
    "region": _task_region,
    "lambdamax": _task_lambdamax,
    "partition": _task_partition,
}


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config error at {path}: file not found") from exc
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"config error at {path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config error at {path}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config error at {path}: document must be a JSON object")
    return config


def run_experiment(config, out_dir) -> dict:
    """Validate, run, and write artifacts plus manifest.json; returns the
    manifest.  ``config`` is a dict or a path to a JSON file; anything else
    is a ``ConfigError``.  Nothing is written unless the whole experiment
    succeeds."""
    if isinstance(config, (str, os.PathLike)):
        config = load_config(config)
    exp = parse_config(config)
    names = (exp.artifact, *_TASK_FILES[exp.task][1:])
    artifacts = list(zip(names, _TASK_RUNNERS[exp.task](exp)))
    artifacts.append(
        ("config.json", json.dumps(exp.config, sort_keys=True, indent=1) + "\n")
    )
    manifest = {
        "format": "powergame-manifest-v1",
        "config": exp.config,
        "seed": exp.seed,
        "defaults_used": exp.defaults_used,
        "artifacts": {
            name: hashlib.sha256(text.encode()).hexdigest() for name, text in artifacts
        },
        "version": __version__,
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


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
            "engine": {"seed": seed},
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
            "channel": dict(_PRESET_RAYLEIGH_16),
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
            "channel": dict(_PRESET_RAYLEIGH_16),
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
            "channel": dict(_PRESET_RAYLEIGH_16),
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
