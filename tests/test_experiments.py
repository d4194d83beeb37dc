import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from powergame import engine, experiments
from powergame.channels import ChannelModel, MarkovJointLaw, save_model
from powergame.cli import main
from powergame.engine import EngineConfig, UtilityEstimate, run_game
from powergame.errors import ConfigError
from powergame.experiments import (
    PRESETS,
    load_config,
    normalize_config,
    parse_config,
    preset,
    run_experiment,
)


def small_simulate_config(seed=11, **engine_extra):
    return {
        "task": "simulate",
        "game": {"K": 2, "a": 0.1},
        "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 4.0},
        "strategies": ["best_users"],
        "engine": {"horizon": 300, "lam": 0.05, "seed": seed,
                   "replicates": 2, **engine_extra},
    }


class TestValidation:
    def test_missing_seed(self):
        cfg = small_simulate_config()
        del cfg["engine"]["seed"]
        with pytest.raises(ConfigError, match="engine.seed"):
            parse_config(cfg)

    def test_exactly_one_of_a_and_rate(self):
        cfg = small_simulate_config()
        cfg["game"]["rate"] = 1.0
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg)
        del cfg["game"]["a"]
        (_, params, _, _), = parse_config(cfg).points  # rate alone is fine; a = 2**R - 1
        assert params.eff.a == 1.0 and params.rates.tolist() == [1.0, 1.0]

    def test_unknown_task_and_strategy(self):
        cfg = small_simulate_config()
        cfg["task"] = "frobnicate"
        with pytest.raises(ConfigError, match="task"):
            parse_config(cfg)
        cfg = small_simulate_config()
        cfg["strategies"] = ["warp"]
        with pytest.raises(ConfigError, match="strategies"):
            parse_config(cfg)

    def test_threshold_needs_alpha(self):
        cfg = small_simulate_config()
        cfg["strategies"] = [{"kind": "threshold"}]
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(cfg)

    def test_sweep_validation(self):
        cfg = small_simulate_config()
        cfg["sweep"] = {"axis": "voltage", "values": [1]}
        with pytest.raises(ConfigError, match="sweep.axis"):
            parse_config(cfg)
        cfg["sweep"] = {"axis": "ratio", "values": []}
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config(cfg)
        cfg["channel"] = {"kind": "truncated_rayleigh"}
        cfg["sweep"] = {"axis": "ratio", "values": [1, 2]}
        with pytest.raises(ConfigError, match="two_state"):
            parse_config(cfg)

    def test_channel_validation(self):
        cfg = small_simulate_config()
        cfg["channel"] = {"kind": "two_state", "eta_min": 4.0, "eta_max": 1.0}
        with pytest.raises(ConfigError, match="eta"):
            parse_config(cfg)
        cfg["channel"] = {"kind": "nakagami"}
        with pytest.raises(ConfigError, match="channel.kind"):
            parse_config(cfg)

    def test_strategy_count_for_simulate(self):
        cfg = small_simulate_config()
        cfg["strategies"] = ["nash", "nash", "nash"]
        with pytest.raises(ConfigError, match="strategies"):
            parse_config(cfg)

    def test_k_sweep_needs_shared_strategy(self):
        cfg = small_simulate_config()
        cfg["strategies"] = ["nash", "best_users"]
        cfg["sweep"] = {"axis": "K", "values": [2, 3]}
        with pytest.raises(ConfigError, match="shared strategy"):
            parse_config(cfg)

    def test_alpha_sweep_point_carries_the_swept_alpha(self):
        cfg = small_simulate_config()
        cfg["task"] = "dominance"
        del cfg["engine"]["lam"]  # only simulate reads it
        cfg["strategies"] = ["nash", {"kind": "threshold", "alpha": 0.5}]
        cfg["sweep"] = {"axis": "alpha", "values": [0, 0.25]}
        points = parse_config(cfg).points
        assert [label for label, _, _, _ in points] == ["0", "0.25"]
        for label, _, _, kinds in points:
            assert [k.label for k in kinds] == ["nash", f"threshold({label})"]

    def test_defaults_recorded(self):
        exp = parse_config(small_simulate_config())
        assert "game.sigma2" in exp.defaults_used
        assert "game.p_max" in exp.defaults_used
        assert "channel.p_high" in exp.defaults_used

    def test_malformed_json_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"task": "simulate",}')
        with pytest.raises(ConfigError, match=r"bad\.json:1:"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


def test_config_round_trip_is_identity():
    cfg = small_simulate_config()
    once = normalize_config(cfg)
    assert normalize_config(once) == once
    exp1 = parse_config(cfg)
    exp2 = parse_config(json.loads(json.dumps(exp1.config)))
    assert exp1.config == exp2.config


class TestRunExperiment:
    def test_simulate_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        manifest = run_experiment(small_simulate_config(trace=True), out)
        summary = (out / "summary.csv").read_text()
        lines = summary.strip().split("\n")
        assert lines[0] == "player,v_discounted,u_avg,stderr"
        assert len(lines) == 3
        trace = (out / "trace.csv").read_text()
        assert trace.startswith("t,player,eta,power,sinr,utility,recommended,punishing")
        stored = json.loads((out / "manifest.json").read_text())
        assert stored == manifest
        for name, digest in manifest["artifacts"].items():
            body = (out / name).read_text()
            assert hashlib.sha256(body.encode()).hexdigest() == digest
        assert "game.sigma2" in manifest["defaults_used"]

    @pytest.mark.parametrize("replicates", [9, 12, 17])
    def test_summary_means_are_the_replicate_statistic(self, tmp_path, monkeypatch,
                                                       replicates):
        # printed in full so that a last-bit difference shows: a column mean
        # a[:, i].mean() sums pairwise and differs from the row-by-row sum
        # of mean(axis=0) from 9 replicates on
        monkeypatch.setattr(experiments, "_fmt", lambda x: repr(float(x)))
        cfg = small_simulate_config(replicates=replicates)
        run_experiment(cfg, tmp_path / "out")
        (_, params, model, kinds), = parse_config(cfg).points
        runs = [run_game(params, model, kinds * 2,
                         EngineConfig(horizon=300, lam=0.05, seed=11, spawn_key=(0, r)))
                for r in range(replicates)]
        v = UtilityEstimate.from_replicates(np.array([r.discounted for r in runs]))
        u = UtilityEstimate.from_replicates(np.array([r.time_average for r in runs]))
        want = ["player,v_discounted,u_avg,stderr"] + [
            f"{i},{float(v.mean[i])!r},{float(u.mean[i])!r},{float(u.stderr[i])!r}"
            for i in range(2)
        ]
        assert (tmp_path / "out" / "summary.csv").read_text().splitlines() == want

    @pytest.mark.parametrize("trace,built", [(False, 0), (True, 1)])
    def test_only_the_written_trace_is_built(self, tmp_path, monkeypatch, trace, built):
        # replicates whose trace is not written keep only their payoffs, and
        # the summary is the same bytes either way
        traces = []

        class CountingTrace(engine.StageTrace):
            def __init__(self, *args, **kwargs):
                traces.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "StageTrace", CountingTrace)
        cfg = small_simulate_config(replicates=3, trace=trace,
                                    deviation={"player": 1, "start": 20, "mode": "one_shot"})
        run_experiment(cfg, tmp_path / "out")
        assert len(traces) == built
        assert (tmp_path / "out" / "trace.csv").exists() == trace
        cfg["engine"]["trace"] = not trace
        run_experiment(cfg, tmp_path / "other")
        summary = [(tmp_path / out / "summary.csv").read_bytes() for out in ("out", "other")]
        assert summary[0] == summary[1]

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_simulate_config(), out_a)
        run_experiment(small_simulate_config(), out_b)
        for name in ("summary.csv", "manifest.json", "config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_different_seed_changes_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_simulate_config(seed=1), out_a)
        run_experiment(small_simulate_config(seed=2), out_b)
        assert (out_a / "summary.csv").read_text() != (out_b / "summary.csv").read_text()

    def test_failed_run_writes_nothing(self, tmp_path):
        cfg = small_simulate_config()
        cfg["game"] = {"K": 3, "a": 0.5}  # equilibrium saturates
        cfg["strategies"] = ["nash"]
        out = tmp_path / "out"
        with pytest.raises(Exception):
            run_experiment(cfg, out)
        assert not out.exists()

    def test_dominance_sweep_table(self, tmp_path):
        cfg = {
            "task": "dominance",
            "game": {"K": 3, "a": 0.1},
            "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 1.0},
            "strategies": ["best_users", "nash"],
            "engine": {"horizon": 200, "seed": 5, "replicates": 2},
            "sweep": {"axis": "ratio", "values": [1, 4]},
        }
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "dominance.csv").read_text().strip().split("\n")
        assert lines[0] == "ratio,strategy,mean,stderr"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("1,best_users,")

    def test_k_sweep_dominance(self, tmp_path):
        cfg = {
            "task": "dominance",
            "game": {"K": 4, "a": 0.1},
            "channel": {"kind": "truncated_rayleigh", "bins": 4},
            "strategies": ["best_users", "time_sharing"],
            "engine": {"horizon": 300, "seed": 5, "replicates": 2},
            "sweep": {"axis": "K", "values": [1, 3]},
        }
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "dominance.csv").read_text().strip().split("\n")
        assert lines[0] == "K,strategy,mean,stderr"
        assert {line.split(",")[0] for line in lines[1:]} == {"1", "3"}

    def test_region_artifacts(self, tmp_path):
        cfg = preset("fig3", seed=3)
        cfg["region"]["grid_size"] = 5
        out = tmp_path / "out"
        run_experiment(cfg, out)
        region = (out / "region.csv").read_text().strip().split("\n")
        assert region[0] == "x,y"
        assert len(region) > 4
        markers = (out / "markers.csv").read_text().strip().split("\n")
        assert markers[0] == "name,u1,u2"
        names = {line.split(",")[0] for line in markers[1:]}
        assert names == {"nash", "operating_point", "time_sharing", "best_users"}
        assert (out / "fstar.csv").read_text().startswith("x,y")
        minmax = (out / "minmax.csv").read_text().strip().split("\n")
        assert minmax[0] == "player,level"
        assert len(minmax) == 3

    def test_partition_artifact(self, tmp_path):
        cfg = preset("partition", seed=9)
        cfg["engine"]["horizon"] = 2000
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "partition.csv").read_text().strip().split("\n")
        assert lines[0] == "k,H1_freq,H2_freq"
        assert len(lines) == 6
        total = sum(float(v) for line in lines[1:] for v in line.split(",")[1:])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_lambdamax_artifact(self, tmp_path):
        cfg = preset("fig5", seed=4)
        cfg["engine"]["horizon"] = 500
        cfg["sweep"]["values"] = [2, 4]
        out = tmp_path / "out"
        run_experiment(cfg, out)
        lines = (out / "fig5.csv").read_text().strip().split("\n")
        assert lines[0] == "K,lambda_max,delta,delta_stderr,penalty"
        assert len(lines) == 3
        for line in lines[1:]:
            lam = float(line.split(",")[1])
            assert 0 <= lam < 1

    def test_deviation_config_runs(self, tmp_path):
        cfg = small_simulate_config()
        cfg["engine"]["deviation"] = {"player": 0, "start": 5, "mode": "one_shot"}
        out = tmp_path / "out"
        run_experiment(cfg, out)
        assert (out / "summary.csv").exists()


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_all_presets_parse(self, name):
        exp = parse_config(preset(name))
        assert exp.seed == 987654321

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigError) as err:
            preset("fig9")
        for name in PRESETS:
            assert name in str(err.value)

    def test_seed_override_marked(self):
        cfg = preset("fig2", seed=5)
        assert cfg["engine"]["seed"] == 5
        assert "engine.seed(cli)" in cfg["provenance"]["default"]

    def test_stated_fields_not_overridden_by_defaults(self):
        cfg = preset("fig4")
        exp = parse_config(cfg)
        assert all(params.eff.a == 0.1 for _, params, _, _ in exp.points)
        assert exp.horizon == 100_000
        stated = set(cfg["provenance"]["stated"])
        assert not stated & set(exp.defaults_used)

    def test_preset_defaults_land_in_manifest(self, tmp_path):
        cfg = preset("partition", seed=2)
        cfg["engine"]["horizon"] = 500
        manifest = run_experiment(cfg, tmp_path / "out")
        listed = set(manifest["defaults_used"])
        assert "channel.scale" in listed
        assert "game.sigma2" in listed


# every preset's manifest defaults_used: the defaults its task reads, with
# the preset's own provenance.default notes
PRESET_DEFAULTS_USED = {
    "fig2": ["channel.eta_min", "engine.replicates", "engine.seed(default)", "game.p_max",
             "game.rate", "game.sigma2"],
    "fig3": ["channel.eta_min", "engine.seed(default)", "game.p_max", "game.rate",
             "game.sigma2", "region.grid_size"],
    "fig4": ["channel.bins", "channel.eta_max", "channel.eta_min", "channel.scale",
             "engine.replicates", "engine.seed(default)", "game.p_max", "game.rate",
             "game.sigma2"],
    "fig5": ["channel.bins", "channel.eta_max", "channel.eta_min", "channel.kind",
             "channel.scale", "engine.replicates", "engine.seed(default)", "game.a",
             "game.p_max", "game.rate", "game.sigma2"],
    "partition": ["channel.bins", "channel.eta_max", "channel.eta_min", "channel.kind",
                  "channel.scale", "engine.seed(default)", "game.p_max", "game.rate",
                  "game.sigma2"],
}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_defaults_used_are_pinned(name):
    assert parse_config(preset(name)).defaults_used == PRESET_DEFAULTS_USED[name]


GAME_DEFAULTS = {"game.rate", "game.sigma2", "game.p_max"}


@pytest.mark.parametrize("task, read", [
    ("simulate", {"engine.horizon", "engine.lam", "engine.replicates"}),
    ("dominance", {"engine.horizon", "engine.replicates"}),
    ("region", {"region.grid_size"}),
    ("lambdamax", {"engine.horizon", "engine.replicates"}),
    ("partition", {"engine.horizon"}),
])
@pytest.mark.parametrize("channel, channel_read", [
    ({"kind": "two_state", "eta_max": 4.0}, {"channel.eta_min", "channel.p_high"}),
    ({"kind": "truncated_rayleigh", "bins": 4},
     {"channel.scale", "channel.eta_min", "channel.eta_max"}),
], ids=["two_state", "truncated_rayleigh"])
def test_defaults_used_lists_the_defaults_the_run_reads(task, read, channel, channel_read):
    cfg = {"task": task, "game": {"K": 2, "a": 0.1}, "channel": channel, "engine": {"seed": 1}}
    if task in ("simulate", "dominance"):
        cfg["strategies"] = ["nash"]
    exp = parse_config(cfg)
    assert exp.defaults_used == sorted(GAME_DEFAULTS | channel_read | read)


def _key_paths(node, prefix=""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    yield from _key_paths(item, f"{prefix}{key}[].")


def test_readme_schema_block_lists_exactly_the_schema_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
    listed = set(_key_paths(json.loads(re.sub(r"//.*", "", block))))
    fields = {row[0] for row in experiments._FIELDS}
    assert fields - listed == set()
    assert listed - fields == {"game", "channel", "engine", "region", "provenance"}


RAYLEIGH16 = {"kind": "truncated_rayleigh", "bins": 16}


def _markov_model_file(directory):
    rows = np.random.default_rng(20260).uniform(0.1, 1.0, (16, 16))
    rows /= rows.sum(axis=1, keepdims=True)
    matrix = 0.5 * np.eye(16) + 0.5 * rows
    gains = (np.array([0.5, 1.0, 2.0, 4.0]), np.array([0.3, 0.9, 1.7, 3.1]))
    path = directory / "markov.json"
    save_model(ChannelModel(gains, MarkovJointLaw(matrix, (4, 4))), path)
    return str(path)


def _pinned_configs(directory):
    markov = {"kind": "explicit", "path": _markov_model_file(directory)}
    return {
        "dominance": {
            "task": "dominance", "game": {"K": 4, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": ["nash", "time_sharing", "operating_point",
                           {"kind": "threshold", "alpha": 0.5}, "best_users"],
            "engine": {"horizon": 2000, "seed": 11, "replicates": 3},
            "sweep": {"axis": "K", "values": [2, 3, 5]}},
        "lambdamax": {
            "task": "lambdamax", "game": {"K": 3, "a": 0.1}, "channel": RAYLEIGH16,
            "engine": {"horizon": 2000, "seed": 12, "replicates": 3},
            "sweep": {"axis": "K", "values": [2, 4]}},
        "markov_simulate": {
            "task": "simulate", "game": {"K": 2, "a": 0.15}, "channel": markov,
            "strategies": ["best_users"],
            "engine": {"horizon": 2000, "seed": 13, "replicates": 3, "trace": True}},
        "deviation_simulate": {
            "task": "simulate", "game": {"K": 3, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": ["best_users", "operating_point", "best_users"],
            "engine": {"horizon": 300, "seed": 15, "replicates": 2, "trace": True,
                       "deviation": {"player": 1, "start": 40, "mode": "permanent"}}},
        "markov_lambdamax": {
            "task": "lambdamax", "game": {"K": 2, "a": 0.15}, "channel": markov,
            "engine": {"horizon": 2000, "seed": 14, "replicates": 2}},
        "rayleigh16_region": {
            "task": "region", "game": {"K": 2, "a": 0.5, "sigma2": 1.0, "p_max": 20.0},
            "channel": RAYLEIGH16, "engine": {"seed": 16}, "region": {"grid_size": 12}},
        "alpha_sweep": {
            "task": "dominance", "game": {"K": 3, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": [{"kind": "threshold", "alpha": 0.5}, "best_users"],
            "engine": {"horizon": 2000, "seed": 17, "replicates": 3},
            "sweep": {"axis": "alpha", "values": [0, 0.5, 1]}},
        "ratio_sweep": {
            "task": "dominance", "game": {"K": 3, "a": 0.1},
            "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 1.0, "p_high": 0.3},
            "strategies": ["best_users", "nash", "operating_point"],
            "engine": {"horizon": 2000, "seed": 18, "replicates": 3},
            "sweep": {"axis": "ratio", "values": [1, 2.5, 8]}},
        "k_sweep_simulate": {
            "task": "simulate", "game": {"K": 4, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": ["best_users"],
            "engine": {"horizon": 2000, "seed": 19, "replicates": 3,
                       "deviation": {"player": 1, "start": 30, "mode": "one_shot"}},
            "sweep": {"axis": "K", "values": [3, 2, 5]}},
        "ratio_sweep_simulate": {
            "task": "simulate", "game": {"K": 2, "a": 0.15},
            "channel": {"kind": "two_state", "eta_min": 0.5, "eta_max": 0.5, "p_high": 0.4},
            "strategies": ["nash", "best_users"],
            "engine": {"horizon": 2000, "lam": 0.2, "seed": 20, "replicates": 3},
            "sweep": {"axis": "ratio", "values": [1, 2.5, 6]}},
        "partition": {
            "task": "partition", "game": {"K": 3, "a": 0.2}, "channel": RAYLEIGH16,
            "engine": {"horizon": 3000, "seed": 21}},
        "social_optimum_simulate": {  # 8 joint states: planned once per visited state
            "task": "simulate", "game": {"K": 3, "a": 0.1},
            "channel": {"kind": "two_state", "eta_min": 1.0, "eta_max": 4.0, "p_high": 0.5},
            "strategies": ["social_optimum"],
            "engine": {"horizon": 300, "seed": 22, "replicates": 2, "trace": True}},
        "social_optimum_ascent": {  # K = 5: the coordinate-ascent search, one row per stage
            "task": "simulate", "game": {"K": 5, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": ["social_optimum"],
            "engine": {"horizon": 40, "seed": 23, "replicates": 2, "trace": True,
                       "deviation": {"player": 2, "start": 15, "mode": "permanent"}}},
        "social_optimum_exhaustive": {  # K = 3: the exhaustive search, one row per stage
            "task": "simulate", "game": {"K": 3, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": ["social_optimum"],
            "engine": {"horizon": 40, "seed": 23, "replicates": 2, "trace": True,
                       "deviation": {"player": 1, "start": 15, "mode": "permanent"}}},
        "dominance_large_k": {  # 16^K joint states: every rule plans one row per stage
            "task": "dominance", "game": {"K": 8, "a": 0.1}, "channel": RAYLEIGH16,
            "strategies": ["nash", "time_sharing", "operating_point",
                           {"kind": "threshold", "alpha": 0.5}, "best_users"],
            "engine": {"horizon": 2000, "seed": 24, "replicates": 2},
            "sweep": {"axis": "K", "values": [8, 10]}},
        "time_sharing_capped": {  # the winner's cap binds in 15-25% of the stages
            "task": "dominance", "game": {"K": 4, "a": 0.1, "p_max": 0.05},
            "channel": RAYLEIGH16, "strategies": ["time_sharing"],
            "engine": {"horizon": 2000, "seed": 25, "replicates": 2},
            "sweep": {"axis": "K", "values": [3, 4]}},
        "markov_untraced_simulate": {  # no trace: every replicate keeps only its payoffs
            "task": "simulate", "game": {"K": 2, "a": 0.15}, "channel": markov,
            "strategies": ["best_users", "nash"],
            "engine": {"horizon": 2000, "seed": 25, "replicates": 3,
                       "deviation": {"player": 0, "start": 50, "mode": "one_shot"}}},
    }


# sha256 of each artifact (config.json, which echoes the model path, aside),
# computed before paired replicates shared one path and Markov chains were
# stepped without a numpy call per stage (the region, a 256-state Minkowski
# fold, before Minkowski sums kept only candidate pairs; its region.csv and
# fstar.csv since the region grid is the welfare search's grid)
PINNED_ARTIFACTS = {
    "dominance": {
        "dominance.csv": "d6726365b99b845968df016bbf067b2deccf270cbf9ae067605c644663b40120"},
    "lambdamax": {
        "lambdamax.csv": "93de32cd6c5c3229c0fee34486eda42f3310bb9d3d6a17043365e07cb72768d4"},
    "markov_simulate": {
        "summary.csv": "7e4f9e85555a3331a1523ac16190b1b1f46c4d09e0f47dc63746af9cb7e420b5",
        "trace.csv": "16f9e91e8db61578fddd3dd3d80bf085314a2ebc4dc2a540842f947b0dca969f"},
    "deviation_simulate": {
        "summary.csv": "96e9c9b99701abd2cf5d0e2bc6bc609e6a75944a9fe3752759c164f70508b6a2",
        "trace.csv": "4447338e3580eea0e1d06c8c1788cb75355ce166081d598d05c99585e9fe974a"},
    "markov_lambdamax": {
        "lambdamax.csv": "30af5b6197d9358b7aac7c8a28c2d92051d8410f36d5254dedea13d2cb8fd9b5"},
    "rayleigh16_region": {
        "region.csv": "0a4e2bc661debe4174c35d8fea0dc40ac59c838c732360e1f30646312717068a",
        "markers.csv": "8cd05c83c92b4c0f0d9dc3416feb1adb30a9c1bb23e4816a53c2a01d53d6320d",
        "fstar.csv": "706072c1b9066b4cfd8f113e51297c72d3caee0ad5fe3fc9502c92c66fc8df55",
        "minmax.csv": "2d4dc7e45544f2e3be7ee0132b3ea0a0b43a1d658c71f32a672f0b883aa6ba3c"},
    # the two sweeps computed before configs were parsed into specs and kinds
    "alpha_sweep": {
        "dominance.csv": "58cc922518ce4e03c186e62ffce49da6794668d7213d8e1c251a090593bb2c87"},
    "ratio_sweep": {
        "dominance.csv": "f37126a361b51493c1a67e5ff60797de2e8f7a7634580cfb5b0424f16298ea6a"},
    # the axis column of a swept simulate and the partition task, computed
    # before each sweep point was built once, in parse_config
    "k_sweep_simulate": {
        "summary.csv": "e8d7b68294d25f4034b174d994a7f6799477d213bf447ac8215f24769bc975aa"},
    "ratio_sweep_simulate": {
        "summary.csv": "c5e014ddcd073cb712cda3248ac836aaf6f0125c0f9ca5824bf9634fb4b170ae"},
    "partition": {
        "partition.csv": "6f89330b4f84c80a18ebb6f6aa069a1a19a21d16ec14ff52fb0aa7d6ffdf8028"},
    # compliant social optimum with its trace, computed while it still took
    # its own SINR route on the visited-state rows
    "social_optimum_simulate": {
        "summary.csv": "69ae71802fbcf0ddf539f1021f525ee0dbac0e51b04ac95a9fe2435ce0c82684",
        "trace.csv": "2fc97797cd439855603e9ac3d38bf50df55f9b62ae8f9871df058e872182c3cf"},
    # computed with the scalar search, one social_optimum call per row
    "social_optimum_ascent": {
        "summary.csv": "f656d2f4ecee5c061f640fa3cc17a9f3c482db55e6ddeef9409d2444e2fcaea1",
        "trace.csv": "afa9314c380f9aa41e7a70c0bd984ae87e1cbed9fdb9987d633d60364a235ed4"},
    # computed with the masked-divide efficiency and utility kernels
    "social_optimum_exhaustive": {
        "summary.csv": "671aa0799847b1c3f415161fd6b8954598453031587c34dcd64526c47d932e85",
        "trace.csv": "afb97b70957c4678a1edea9881f186a6404482741a59a8af6c9a5e42207f8409"},
    # computed with the argsort best-user mask, the row-reduction selectors
    # and the masked-divide utilities
    "dominance_large_k": {
        "dominance.csv": "9f5dbf4c4bc187ac67a167a523cbe1b56f3afb32c957506200a28f6f481bf4a3"},
    "time_sharing_capped": {
        "dominance.csv": "481a0828602a7a623208f65c58cf6b934b707c7d82205370acc07e9abe83e78d"},
    # computed while every replicate still built its trace through run_game
    "markov_untraced_simulate": {
        "summary.csv": "ca6ace63c02b2dbbffa528770463d8f4cf044d8ee129e4d82bc166bb274d3694"},
}


@pytest.mark.parametrize("name", list(PINNED_ARTIFACTS))
def test_artifact_bytes_are_pinned(name, tmp_path):
    config = _pinned_configs(tmp_path)[name]
    manifest = run_experiment(config, tmp_path / name)
    got = {k: v for k, v in manifest["artifacts"].items() if k != "config.json"}
    assert got == PINNED_ARTIFACTS[name]


@pytest.mark.parametrize("config", [[], 3, None, 2.5])
def test_a_config_that_is_neither_a_dict_nor_a_path_is_refused(config, tmp_path):
    with pytest.raises(ConfigError, match="config error at <root>: document must be a JSON"):
        run_experiment(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _two_player_model_file(directory):
    rows = np.random.default_rng(3).uniform(0.1, 1.0, (4, 4))
    matrix = rows / rows.sum(axis=1, keepdims=True)
    path = directory / "two_player.json"
    gains = (np.array([0.5, 2.0]), np.array([0.7, 1.5]))
    save_model(ChannelModel(gains, MarkovJointLaw(matrix, (2, 2))), path)
    return str(path)


def test_explicit_model_player_count_is_checked_before_any_point_plays(tmp_path,
                                                                       monkeypatch, capsys):
    cfg = {"task": "dominance", "game": {"K": 2, "a": 0.1},
           "channel": {"kind": "explicit", "path": _two_player_model_file(tmp_path)},
           "strategies": ["best_users", "nash"],
           "engine": {"horizon": 100, "seed": 1, "replicates": 2},
           "sweep": {"axis": "K", "values": [2, 3]}}
    played = []
    monkeypatch.setattr(experiments, "estimate_expected_utilities",
                        lambda *args, **kw: played.append(args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["dominance", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "channel.path" in err and "model has 2 players, game has 3" in err
    assert played == [] and not out.exists()


def test_missing_explicit_model_file_exits_2(tmp_path, capsys):
    cfg = {"task": "dominance", "game": {"K": 2, "a": 0.1},
           "channel": {"kind": "explicit", "path": str(tmp_path / "absent.json")},
           "strategies": ["nash"], "engine": {"horizon": 100, "seed": 1}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["dominance", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "config error at channel.path: cannot read" in capsys.readouterr().err


def test_explicit_model_is_loaded_once_per_experiment(tmp_path, monkeypatch):
    loads = []
    load_model = experiments.load_model

    def counting(path):
        loads.append(path)
        return load_model(path)

    monkeypatch.setattr(experiments, "load_model", counting)
    cfg = {"task": "dominance", "game": {"K": 2, "a": 0.1},
           "channel": {"kind": "explicit", "path": _two_player_model_file(tmp_path)},
           "strategies": [{"kind": "threshold", "alpha": 0.5}, "best_users"],
           "engine": {"horizon": 200, "seed": 4, "replicates": 2},
           "sweep": {"axis": "alpha", "values": [0, 0.5, 1]}}
    run_experiment(cfg, tmp_path / "out")
    assert len(loads) == 1
    rows = (tmp_path / "out" / "dominance.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 2  # header, then two rules at each alpha
