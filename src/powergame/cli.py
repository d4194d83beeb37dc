"""Command-line experiment runner.

Verbs: ``simulate``, ``preset``, ``region``, ``dominance``, ``lambdamax``,
``partition``.  Every verb accepts ``--config`` (a JSON file) and ``--out``
(an output directory, default from $POWERGAME_OUT or ./powergame-out);
the four analysis verbs fall back to their matching preset when no config
is given, with its seed overridden by ``--seed`` (refused with ``--config``).
Exit codes: 0 success, 2 config error, 3 model/precondition violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, PowerGameError
from .experiments import PRESETS, load_config, preset, run_experiment

_FALLBACK_PRESET = {
    "region": "fig3",
    "dominance": "fig4",
    "lambdamax": "fig5",
    "partition": "partition",
}


def _out_dir(args) -> str:
    return args.out or os.environ.get("POWERGAME_OUT", "powergame-out")


def _config_for(verb: str, args) -> dict:
    if verb == "simulate":
        if not args.config:
            raise ConfigError("config error at --config: simulate requires a config file")
        return load_config(args.config)
    if not args.config:
        return preset(_FALLBACK_PRESET[verb], seed=args.seed)
    if args.seed is not None:  # the config's engine.seed would silently win
        raise ConfigError("config error at --seed: set engine.seed in the config instead")
    cfg = load_config(args.config)
    task = cfg.get("task")
    if task is not None and task != verb:
        raise ConfigError(f"config error at task: config says {task!r} but the {verb} verb "
                          "was invoked")
    cfg["task"] = verb
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="powergame",
        description="Energy-efficiency power control experiments on shared channels.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, doc in (
        ("simulate", "run a configured multi-stage simulation"),
        ("region", "feasible expected-utility region of a 2-player game"),
        ("dominance", "expected-utility comparison table across strategies"),
        ("lambdamax", "equilibrium discount-factor bound"),
        ("partition", "recommendation-configuration frequencies"),
    ):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output directory")
        if verb in _FALLBACK_PRESET:
            p.add_argument("--seed", type=int, help="fallback preset's seed; not with --config")

    p = sub.add_parser("preset", help="run a named built-in experiment")
    p.add_argument("--name", required=True, help=f"one of: {', '.join(PRESETS)}")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="override the preset seed")

    args = parser.parse_args(argv)
    try:
        if args.verb == "preset":
            cfg = preset(args.name, seed=args.seed)
        else:
            cfg = _config_for(args.verb, args)
        manifest = run_experiment(cfg, _out_dir(args))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (PowerGameError, ValueError) as exc:
        print(f"model invariant violated: {exc}", file=sys.stderr)
        return 3
    names = ", ".join(sorted(manifest["artifacts"]))
    print(f"wrote {names} + manifest.json to {_out_dir(args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
