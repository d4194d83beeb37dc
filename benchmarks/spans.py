"""In-memory spans around the public entry points of ``powergame``.

A ``Tracer`` replaces chosen functions and methods of the package's
modules by wrappers that record a span (name, start, end, parent) per call
and bump operation counters.  Spans are kept in memory; ``self_times``
turns them into per-name self time after the traced round.  ``remove``
puts every original object back, so an untraced round runs the program
exactly as shipped.

Counting runs after a span has closed, so its cost lands in the caller's
self time; the benchmark reports the traced minus untraced wall time as
the tracing overhead.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at the root


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time summed per span name: each span's duration minus the part
    of its interval that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out: dict[str, float] = {}
    for idx, span in enumerate(spans):
        covered = _covered(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[idx]
        )
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - covered
    return out


def root_time(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._drawn: dict = {}  # (horizon, generator state, initial) -> laws, per pass

    def reset(self) -> None:
        """Start a new pass: forget spans, counters and drawn paths."""
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._drawn = {}

    def wrap(self, fn, name: str | None, count=None, pre=None):
        """Wrapper of ``fn`` that records a span ``name`` (none when ``name``
        is None), then calls ``count(counts, args, kwargs, result, token)``
        where ``token = pre(args, kwargs)`` was taken before the call."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                spans = tracer.spans
                stack = tracer._stack
                span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
                stack.append(len(spans))
                spans.append(span)
                span.start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = perf()
                    stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result, token)
            return result

        wrapper._bench_wrapper = True
        return wrapper

    def patch_function(self, module, attr: str, name, count=None, pre=None) -> None:
        """Wrap a module-level function everywhere the package holds it:
        modules that imported it by name hold their own reference."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, count, pre)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "powergame" and not mod_name.startswith("powergame."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name, count=None, pre=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, count, pre))

    def remove(self) -> None:
        """Put every wrapped object back, last patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _path_key(self, args, kwargs):
        # ChannelModel.sample_path(self, horizon, rng, initial=None); the
        # generator state before the draw identifies the stream exactly
        model, horizon = args[0], args[1] if len(args) > 1 else kwargs["horizon"]
        rng = args[2] if len(args) > 2 else kwargs["rng"]
        initial = args[3] if len(args) > 3 else kwargs.get("initial")
        state = rng.bit_generator.state["state"]
        return (model.law, int(horizon), tuple(sorted(state.items())),
                None if initial is None else tuple(int(v) for v in initial))

    def _count_path(self, counts, args, kwargs, result, key):
        law, horizon = key[0], key[1]
        counts["channels.sample_path_calls"] += 1
        counts["channels.stages_drawn"] += horizon
        drawn = self._drawn.setdefault(key[1:], [])
        if any(other is law for other in drawn):
            counts["channels.paths_redrawn"] += 1
        else:
            drawn.append(law)  # the reference keeps the law alive for the pass

    def install(self) -> None:
        """Wrap the entry points of every ``powergame`` module."""
        from powergame import (analysis, channels, efficiency, engine,
                               experiments, geometry, oneshot, strategies)

        # channels
        self.patch_method(channels.ChannelModel, "sample_path", "channels.sample_path",
                          self._count_path, self._path_key)
        self.patch_method(channels.ChannelModel, "gain_matrix", "channels.gain_matrix")
        self.patch_method(channels.MarkovJointLaw, "stationary_joint", "channels.stationary")
        self.patch_function(channels, "stationary_distribution", "channels.stationary")
        self.patch_function(channels, "load_model", "channels.load_model")

        # strategies
        self.patch_function(strategies, "compliant_profile", "strategies.compliant_profile",
                            _counter("strategies.compliant_profile_calls"))
        self.patch_function(strategies, "stage_action", "strategies.stage_action",
                            _counter("strategies.stage_action_calls"))
        self.patch_function(strategies, "detect_deviation", None,
                            _counter("strategies.detect_deviation_calls"))

        # oneshot
        self.patch_function(oneshot, "sinr", "oneshot.sinr", _count_sinr_rows)
        self.patch_function(oneshot, "utility", "oneshot.utility")
        self.patch_function(oneshot, "best_response", None,
                            _counter("oneshot.best_response_calls"))
        self.patch_function(oneshot, "social_optimum", "oneshot.social_optimum",
                            _counter("oneshot.social_optimum_calls"))

        # efficiency
        self.patch_method(efficiency.ExponentialEfficiency, "value", "efficiency.value",
                          _counter("efficiency.value_calls"))

        # engine
        self.patch_function(engine, "run_game", "engine.run_game", _count_run_game,
                            lambda args, kwargs: self.counts["strategies.stage_action_calls"])
        self.patch_function(engine, "estimate_expected_utility", None,
                            _counter("engine.estimate_calls"))

        # analysis
        self.patch_function(analysis, "feasible_region_2p", "analysis.feasible_region")
        self.patch_function(analysis, "minmax_levels", "analysis.minmax")
        self.patch_function(analysis, "expected_utilities_exact", "analysis.exact")
        self.patch_function(analysis, "lambda_max", "analysis.lambda_max")

        # geometry
        self.patch_function(geometry, "convex_hull", "geometry.convex_hull", _count_hull)
        self.patch_function(geometry, "minkowski_sum", "geometry.minkowski", _count_pairs)
        self.patch_function(geometry, "weighted_minkowski_sum", "geometry.minkowski")

        # experiments
        self.patch_function(experiments, "run_experiment", "experiments.run_experiment",
                            _count_run_experiment)


def _counter(key: str):
    def count(counts, args, kwargs, result, token):
        counts[key] += 1
    return count


def _count_sinr_rows(counts, args, kwargs, result, token):
    # a call with player index i still computes every player's SINR
    per_call = 1 if kwargs.get("i", args[3] if len(args) > 3 else None) is None \
        else args[0].n_players
    size = getattr(result, "size", 1)
    counts["oneshot.sinr_rows"] += int(size) * per_call


def _count_run_game(counts, args, kwargs, result, stage_calls_before):
    # a run that asked for stage actions went through the per-stage loop
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    counts["engine.run_game_calls"] += 1
    staged = counts["strategies.stage_action_calls"] > stage_calls_before
    key = "engine.sequential_stages" if staged else "engine.vectorized_stages"
    counts[key] += int(cfg.horizon)


def _count_hull(counts, args, kwargs, result, token):
    import numpy as np  # not at module level: run.py times the numpy import

    points = args[0] if args else kwargs["points"]
    counts["geometry.convex_hull_calls"] += 1
    counts["geometry.hull_points_in"] += int(np.asarray(points, dtype=float).size // 2)


def _count_pairs(counts, args, kwargs, result, token):
    import numpy as np

    a = np.asarray(args[0], dtype=float).reshape(-1, 2)
    b = np.asarray(args[1], dtype=float).reshape(-1, 2)
    counts["geometry.minkowski_pairs"] += a.shape[0] * b.shape[0]


def _count_run_experiment(counts, args, kwargs, result, token):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    counts["experiments.run_experiment_calls"] += 1
    names = list(result["artifacts"]) + ["manifest.json"]
    counts["experiments.bytes_written"] += sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in names
    )
