import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from powergame.channels import ChannelModel, MarkovJointLaw, save_model
from powergame.cli import main
from powergame.experiments import preset


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_config():
    return {
        "task": "simulate",
        "game": {"K": 2, "a": 0.1},
        "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 4.0},
        "strategies": ["best_users"],
        "engine": {"horizon": 200, "lam": 0.05, "seed": 11, "replicates": 2},
    }


def test_simulate_verb(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    assert "summary.csv" in capsys.readouterr().out


def test_simulate_requires_config(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_exits_2_without_artifacts(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda path: path.write_bytes(b'{"task": "\xff"}'), "not UTF-8", id="non-utf8"),
    pytest.param(lambda path: path.mkdir(), "cannot read", id="directory"),
])
def test_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, make, message):
    bad = tmp_path / "bad.json"
    make(bad)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error at {bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["simulate", "region"])
@pytest.mark.parametrize("document", ["[]", "3", "null"])
def test_a_config_that_is_no_json_object_exits_2(tmp_path, capsys, verb, document):
    bad = tmp_path / "l.json"
    bad.write_text(document)
    out = tmp_path / "out"
    assert main([verb, "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error at {bad}: document must be a JSON object" in capsys.readouterr().err


def test_module_entry_point_exits_2_on_a_malformed_config(tmp_path):
    # ``python -m powergame`` from a checkout, with only src/ on the path
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "powergame", "simulate", "--config", str(bad), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr[-2000:]
    assert "bad.json" in done.stderr
    assert not out.exists()


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = small_config()
    del cfg["engine"]["seed"]
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "engine.seed" in capsys.readouterr().err


def test_invariant_violation_exits_3(tmp_path, capsys):
    cfg = small_config()
    cfg["game"] = {"K": 3, "a": 0.5}  # (K-1) beta_star = 1: saturation
    cfg["strategies"] = ["nash"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    assert "saturat" in capsys.readouterr().err.lower()


def test_preset_verb_runs(tmp_path):
    out = tmp_path / "out"
    # shrink the preset's horizon via config override path: run the cheap one
    assert main(["preset", "--name", "fig3", "--out", str(out), "--seed", "3"]) == 0
    assert (out / "region.csv").exists()
    assert (out / "markers.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_unknown_preset_lists_valid_names(tmp_path, capsys):
    assert main(["preset", "--name", "fig9", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "fig2" in err and "partition" in err


def test_verb_task_mismatch_rejected(tmp_path, capsys):
    cfg = small_config()  # task: simulate
    path = write_config(tmp_path, cfg)
    assert main(["region", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "task" in capsys.readouterr().err


def test_analysis_verb_accepts_matching_config(tmp_path):
    cfg = preset("partition", seed=1)
    cfg["engine"]["horizon"] = 500
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["partition", "--config", path, "--out", str(out)]) == 0
    assert (out / "partition.csv").exists()


def test_env_var_default_output(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("POWERGAME_OUT", str(target))
    cfg = write_config(tmp_path, small_config())
    assert main(["simulate", "--config", cfg]) == 0
    assert (target / "summary.csv").exists()


def test_simulate_takes_no_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config())
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb, name", [("region", "fig3"), ("dominance", "fig4"),
                                        ("lambdamax", "fig5"), ("partition", "partition")])
def test_seed_with_a_config_exits_2(tmp_path, capsys, verb, name):
    # the config's engine.seed would win, and the manifest would not show --seed
    path = write_config(tmp_path, preset(name))
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out), "--seed", "5"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_region_fallback_preset_runs(tmp_path):
    # no --config: the region verb falls back to its preset
    out = tmp_path / "out"
    assert main(["region", "--out", str(out), "--seed", "2"]) == 0
    assert (out / "region.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2


NAN, INF = float("nan"), float("inf")


def _with(cfg, path, value):
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return cfg


def _rate_game(cfg):
    del cfg["game"]["a"]
    cfg["game"]["rate"] = 1.0
    return cfg


def _rayleigh_channel(cfg):
    cfg["channel"] = {"kind": "truncated_rayleigh"}
    return cfg


@pytest.mark.parametrize("path, value, prepare", [
    ("game.a", NAN, None),
    ("game.a", INF, None),
    ("game.rate", NAN, _rate_game),
    ("game.rate", 1030, _rate_game),  # a = 2**1030 - 1 overflows
    ("game.rate", 2000, _rate_game),
    ("game.sigma2", NAN, None),
    ("game.p_max", NAN, None),
    ("game.p_max", [1.0, NAN], None),
    ("channel.scale", NAN, _rayleigh_channel),
])
def test_nan_and_infinite_inputs_exit_2_naming_the_field(tmp_path, capsys, path, value,
                                                         prepare):
    # JSON parsing accepts NaN and Infinity, which slip past ``x <= 0`` checks
    cfg = small_config() if prepare is None else prepare(small_config())
    path_arg = write_config(tmp_path, _with(cfg, path, value))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path_arg, "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


def test_per_player_caps_with_a_k_sweep_exit_2(tmp_path, capsys):
    # the list has K entries, which a sweep to another K cannot follow
    cfg = small_config()
    cfg["task"] = "dominance"
    del cfg["engine"]["lam"]  # only simulate reads it
    cfg["game"] = {"K": 3, "a": 0.1, "p_max": [1, 1, 1]}
    cfg["sweep"] = {"axis": "K", "values": [2, 3]}
    out = tmp_path / "out"
    assert main(["dominance", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "game.p_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p_max", [INF, [1.0, INF]])
def test_infinite_power_cap_means_no_cap(tmp_path, p_max):
    path = write_config(tmp_path, _with(small_config(), "game.p_max", p_max))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_region_cap_binding_in_some_states_exits_3(tmp_path, capsys):
    # the cap of 5 is under the selfish equilibrium power in 31 of the 256
    # joint states, which the region and its nash marker both need
    cfg = {
        "task": "region",
        "game": {"K": 2, "a": 0.5, "sigma2": 1.0, "p_max": 5.0},
        "channel": {"kind": "truncated_rayleigh", "scale": 1.0, "eta_min": 0.1,
                    "eta_max": 10.0, "bins": 16},
        "engine": {"seed": 1},
    }
    out = tmp_path / "out"
    assert main(["region", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert "exceed caps" in capsys.readouterr().err
    assert not out.exists()


def test_region_on_a_markov_model_file_exits_0(tmp_path):
    rows = np.random.default_rng(3).uniform(0.1, 1.0, (4, 4))
    law = MarkovJointLaw(rows / rows.sum(axis=1, keepdims=True), (2, 2))
    model_path = tmp_path / "markov.json"
    save_model(ChannelModel((np.array([0.5, 2.0]), np.array([0.7, 1.5])), law), model_path)
    cfg = {"task": "region", "game": {"K": 2, "a": 0.5, "p_max": 5.0},
           "channel": {"kind": "explicit", "path": str(model_path)}, "engine": {"seed": 1}}
    out = tmp_path / "out"
    assert main(["region", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "region.csv").read_text().count("\n") > 3


@pytest.mark.parametrize("game_k, sweep", [(2, None), (3, [3, 2])])
def test_deviation_player_outside_a_played_k_exits_2(tmp_path, capsys, game_k, sweep):
    # in the sweep, the K = 3 point would play before K = 2 fails
    cfg = small_config()
    cfg["game"]["K"] = game_k
    cfg["engine"]["deviation"] = {"player": 2}
    if sweep is not None:
        cfg["sweep"] = {"axis": "K", "values": sweep}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "engine.deviation.player" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("deviation, message", [
    ({"start": 2}, "engine.deviation.player: missing required field"),
    ({"player": 0, "start": "2"}, "engine.deviation.start: expected int"),
    ({"player": 0, "mode": 1}, "engine.deviation.mode: expected str"),
    ("oops", "engine.deviation: must be an object"),
])
def test_deviation_errors_name_the_field(tmp_path, capsys, deviation, message):
    cfg = small_config()
    cfg["engine"]["deviation"] = deviation
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, edit", [
    ("sweep.values", lambda cfg: {**cfg, "sweep": {"axis": "K", "values": [True, 2]}}),
    ("sweep.values", lambda cfg: {**cfg, "sweep": {"axis": "ratio", "values": [True]}}),
    ("game.p_max", lambda cfg: _with(cfg, "game.p_max", [True, 5.0])),
    ("strategies[0].alpha",
     lambda cfg: {**cfg, "strategies": [{"kind": "threshold", "alpha": True}]}),
], ids=["k_sweep", "ratio_sweep", "p_max", "alpha"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, field, edit):
    # Python counts true as the integer 1: K = 1, a cap of 1, ratio or alpha 1
    out = tmp_path / "out"
    path = write_config(tmp_path, edit(small_config()))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not out.exists()


RAYLEIGH_CHANNEL = {"kind": "truncated_rayleigh", "eta_min": 0.1, "eta_max": 10.0, "bins": 4}


@pytest.mark.parametrize("field, value, edit", [pytest.param(*case, id=case[0]) for case in [
    ("game.K", True, None),
    ("engine.seed", False, None),
    ("engine.horizon", True, None),
    ("engine.replicates", True, None),
    ("engine.deviation.player", False, None),
    ("engine.deviation.start", True, lambda cfg: _with(cfg, "engine.deviation", {"player": 0})),
    ("region.grid_size", True, None),
    ("channel.bins", True, lambda cfg: _with(cfg, "channel", dict(RAYLEIGH_CHANNEL))),
]])
def test_json_booleans_are_not_integers(tmp_path, capsys, field, value, edit):
    # Python counts true as the integer 1 and false as 0: a 1-player game,
    # seed 0, one replicate, a 1-bin channel
    cfg = small_config() if edit is None else edit(small_config())
    out = tmp_path / "out"
    path = write_config(tmp_path, _with(cfg, field, value))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert f"config error at {field}: expected int, got bool" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, value, field", [
    # numpy's seed sequence would refuse it as a broken invariant (exit 3)
    ("engine.seed", -1, "engine.seed"),
    # past the horizon of 200: the run would play no deviation
    ("engine.deviation", {"player": 0, "start": 201}, "engine.deviation.start"),
])
def test_seed_and_deviation_start_out_of_range_exit_2(tmp_path, capsys, path, value, field):
    out = tmp_path / "out"
    config = write_config(tmp_path, _with(small_config(), path, value))
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_deviation_at_the_last_stage_runs(tmp_path):
    cfg = _with(small_config(), "engine.deviation", {"player": 0, "start": 200})
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0


def test_trace_with_a_sweep_exits_2(tmp_path, capsys):
    # a sweep writes no trace.csv, so asking for one is refused
    cfg = small_config()
    cfg["engine"]["trace"] = True
    cfg["sweep"] = {"axis": "ratio", "values": [1, 2]}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "engine.trace" in capsys.readouterr().err
    assert not out.exists()


def _small_config_for(task):
    """small_config() as a config of ``task``, without the fields it does
    not read."""
    cfg = small_config()
    cfg["task"] = task
    if task != "simulate":
        del cfg["engine"]["lam"]
    if task in ("region", "partition"):
        del cfg["engine"]["replicates"]
    if task == "region":
        del cfg["engine"]["horizon"]
    if task not in ("simulate", "dominance"):
        del cfg["strategies"]
    return cfg


@pytest.mark.parametrize("task, field, value", [
    ("dominance", "engine.trace", True),
    ("dominance", "engine.deviation", {"player": 0}),
    ("lambdamax", "engine.trace", True),
    ("region", "engine.deviation", {"player": 0}),
    ("partition", "engine.trace", True),
    ("lambdamax", "strategies", ["bogus"]),
    ("region", "strategies", ["nash"]),
    ("partition", "strategies", ["best_users"]),
    ("region", "sweep", {"axis": "ratio", "values": [2, 4]}),
    ("partition", "sweep", {"axis": "K", "values": [2, 3, 4]}),
    ("dominance", "engine.lam", 0.5),
    ("region", "engine.horizon", 1000),
    ("partition", "engine.replicates", 2),
    ("lambdamax", "engine.lam", 0.5),
    ("simulate", "region.grid_size", 12),
    ("simulate", "channel.p_high", 0.5),
])
def test_a_field_the_task_would_drop_exits_2(tmp_path, capsys, task, field, value):
    # only simulate traces, deviates or discounts, region, lambdamax and
    # partition fix their own rules, region and partition write a single
    # point, only region plays no horizon, and a Rayleigh channel has no
    # p_high
    cfg = _small_config_for(task)
    if field.startswith("channel."):
        cfg["channel"] = {"kind": "truncated_rayleigh", "bins": 4}
    if "." in field:
        _with(cfg, field, value)
    else:
        cfg[field] = value
    out = tmp_path / "out"
    assert main([task, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, message", [
    ([], "top level must be a JSON object"),
    ({"format": "powergame-channel-model-v3", "gains": 5}, "gains must be a non-empty list"),
])
def test_malformed_model_file_exits_3(tmp_path, capsys, model, message):
    # a model file that is valid JSON but not a model is a ModelError, not a
    # traceback
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    cfg = small_config()
    cfg["channel"] = {"kind": "explicit", "path": str(model_path)}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, edit", [pytest.param(*case, id=case[0]) for case in [
    ("regoin", lambda cfg: {**cfg, "regoin": {"grid_size": 12}}),
    ("game.sigma", lambda cfg: _with(cfg, "game.sigma", 1.0)),
    ("channel.eta_mx", lambda cfg: _with(cfg, "channel.eta_mx", 8.0)),
    ("engine.horizn", lambda cfg: _with(cfg, "engine.horizn", 100)),
    ("engine.replicats", lambda cfg: _with(cfg, "engine.replicats", 3)),
    # not a field: the alarm's tolerance is a constant of detect_deviation
    ("engine.detection_tol", lambda cfg: _with(cfg, "engine.detection_tol", 1e-6)),
    ("engine.deviation.strat", lambda cfg: _with(cfg, "engine.deviation",
                                                  {"player": 0, "strat": 5})),
    ("sweep.valus", lambda cfg: {**cfg, "sweep": {"axis": "ratio", "values": [1, 2],
                                                  "valus": [4]}}),
    ("region.grid", lambda cfg: {**cfg, "region": {"grid": 12}}),
    ("provenance.stated_by", lambda cfg: {**cfg, "provenance": {"stated_by": []}}),
    ("strategies[1].alfa", lambda cfg: {**cfg, "strategies": [
        "nash", {"kind": "threshold", "alpha": 0.5, "alfa": 0.5}]}),
]])
def test_a_misspelled_key_exits_2_naming_it(tmp_path, capsys, path, edit):
    # one case per section: a typo would otherwise run on the default
    out = tmp_path / "out"
    config = write_config(tmp_path, edit(small_config()))
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    assert f"config error at {path}: unknown field" in capsys.readouterr().err
    assert not out.exists()


def test_the_first_unknown_key_in_sorted_order_is_named(tmp_path, capsys):
    cfg = _with(_with(small_config(), "zeta", 1), "engine.horizn", 100)
    cfg["game"]["sigma"] = 1.0
    config = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "config error at engine.horizn: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("task, artifact", [
    ("simulate", "manifest.json"),
    ("simulate", "config.json"),
    ("simulate", "trace.csv"),
    ("region", "minmax.csv"),
    ("simulate", "../escaped.csv"),
    ("simulate", "sub/summary.csv"),
    ("simulate", "back\\slash.csv"),
    ("simulate", ""),
    ("simulate", "."),
    ("simulate", ".."),
])
def test_an_artifact_name_that_is_no_plain_new_file_exits_2(tmp_path, capsys, task, artifact):
    # such a name would overwrite another file of the run, write outside
    # --out, or fail only after the run
    cfg = _small_config_for(task)
    cfg["artifact"] = artifact
    if task == "simulate":
        cfg["engine"]["trace"] = True
    else:
        cfg["game"]["p_max"] = 5.0
    config = write_config(tmp_path, cfg)
    out = tmp_path / "out" / "nested"
    assert main([task, "--config", config, "--out", str(out)]) == 2
    assert "config error at artifact:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("provenance, field", [
    ({"default": 5}, "provenance.default"),
    ({"stated": ["game.K", 3]}, "provenance.stated"),
    ("fig2", "provenance"),
])
def test_a_malformed_provenance_exits_2_naming_it(tmp_path, capsys, provenance, field):
    config = write_config(tmp_path, {**small_config(), "provenance": provenance})
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not out.exists()
