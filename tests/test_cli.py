import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_region_fallback_preset_runs(tmp_path):
    # no --config: the region verb falls back to its preset
    out = tmp_path / "out"
    assert main(["region", "--out", str(out), "--seed", "2"]) == 0
    assert (out / "region.csv").exists()
