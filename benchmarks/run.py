"""Benchmark of ``powergame``: one workload per run, end-to-end or per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload crn_sweep --seed 1 --seconds 25 --trace 0

A run imports the package from ``src/``, sets the workload up nine times
(the median counts; eight of the nine import times come from fresh
interpreters that only import), then repeats whole rounds of the workload's
operations for ``--seconds`` seconds and checks every round's outputs.
With ``--trace 0`` it reports the end-to-end metrics ``wall_s`` (the median
round), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it alternates
untraced rounds with rounds traced through ``spans.Tracer`` and reports the
per-layer self times and counts of one round, the benchmark's own time and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give a sha256 per output.

The workload runs in this one process on one thread: BLAS thread pools
are capped at 1 before numpy is imported.

``wall_s`` and ``setup_s`` are scaled to a reference core speed by
``refspeed.RefClock``: a fixed reference kernel is timed at the start and
end of every round and, with ``--trace 0``, every 0.1 s during it, and
each stretch of operation time is multiplied by ``refspeed.REF_S`` over
the kernel's time on either side of it.  On the shared 2-core
host this was built on, the core's speed changes by up to a factor of two
in phases from seconds to hours (CPU time equal to wall time), so unscaled
medians of two sets of runs of the same code differed by more than the
bounds.  The unscaled round times are printed on the summary line and
reported by the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans  # standard library only, so numpy is still unimported

WORKLOADS = ("crn_sweep", "grim_deviation", "markov_models", "region_2p")
SETUP_REPEATS = 9
IMPORT_PROBE = ("import time; start = time.perf_counter(); import numpy, powergame; "
                "print(time.perf_counter() - start)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "channels.sample_path": "channels.sample_path_s",
    "channels.gain_matrix": "channels.gain_matrix_s",
    "channels.load_model": "channels.load_model_s",
    "channels.stationary": "channels.stationary_s",
    "strategies.compliant_profile": "strategies.compliant_profile_s",
    "strategies.stage_action": "strategies.stage_action_s",
    "oneshot.sinr": "oneshot.sinr_s",
    "oneshot.utility": "oneshot.utility_s",
    "oneshot.social_optimum": "oneshot.social_optimum_s",
    "efficiency.value": "efficiency.value_s",
    "engine.run_game": "engine.run_game_self_s",
    "analysis.feasible_region": "analysis.feasible_region_s",
    "analysis.minmax": "analysis.minmax_s",
    "analysis.exact": "analysis.exact_s",
    "analysis.lambda_max": "analysis.lambda_max_s",
    "geometry.convex_hull": "geometry.convex_hull_s",
    "geometry.minkowski": "geometry.minkowski_s",
    "experiments.run_experiment": "experiments.self_s",
}
COUNT_METRICS = (
    ("channels.sample_path_calls", "count"),
    ("channels.stages_drawn", "count"),
    ("channels.paths_redrawn", "count"),
    ("strategies.compliant_profile_calls", "count"),
    ("strategies.stage_action_calls", "count"),
    ("strategies.detect_deviation_calls", "count"),
    ("oneshot.sinr_rows", "count"),
    ("oneshot.best_response_calls", "count"),
    ("oneshot.social_optimum_calls", "count"),
    ("efficiency.value_calls", "count"),
    ("engine.run_game_calls", "count"),
    ("engine.sequential_stages", "count"),
    ("engine.vectorized_stages", "count"),
    ("engine.estimate_calls", "count"),
    ("geometry.convex_hull_calls", "count"),
    ("geometry.hull_points_in", "count"),
    ("geometry.minkowski_pairs", "count"),
    ("experiments.run_experiment_calls", "count"),
    ("experiments.bytes_written", "bytes"),
)


class Round:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.wall = 0.0  # summed operation time
        self.scaled = 0.0  # the same, scaled to the reference speed
        self.outputs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.self_times: dict = {}
        self.counts: dict = {}
        self.bench_self = 0.0


def run_round(workload, clock, tracer=None) -> Round:
    rnd = Round()
    if tracer is not None:
        tracer.reset()
    clock.start()
    try:
        for op in workload.ops:
            raised = None
            clock.begin_op()
            try:
                value = op.call()
            except Exception as exc:  # an operation's failure is counted, not fatal
                raised = exc
            rnd.wall += clock.end_op()
            rnd.attempted += 1
            if op.expect is not None:
                if isinstance(raised, op.expect):
                    rnd.outputs[op.name] = raised
                else:
                    rnd.failed += 1
            elif raised is not None:
                rnd.failed += 1
                print(f"operation {op.name} failed:", file=sys.stderr)
                traceback.print_exception(raised, file=sys.stderr)
            else:
                rnd.outputs[op.name] = value
    finally:
        rnd.scaled = clock.stop()
    if tracer is not None:
        rnd.self_times = spans.self_times(tracer.spans)
        rnd.counts = dict(tracer.counts)
        rnd.bench_self = rnd.wall - spans.root_time(tracer.spans)
    return rnd


def import_seconds(src: str) -> float:
    """Time to import numpy and powergame in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def _mean(values) -> float:
    return sum(values) / len(values)


def _quartiles(values) -> str:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else values
    return ", ".join(f"{q:.4f}" for q in qs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "powergame", "__init__.py")):
        print(f"error: {src}/powergame not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    start = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import powergame
    import_s = time.perf_counter() - start
    if not os.path.abspath(powergame.__file__).startswith(src + os.sep):
        print(f"error: powergame imported from {powergame.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import refspeed
    import workloads

    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    cwd = os.getcwd()
    # inputs refer to their files relative to the work directory, so the
    # configs, and the artifacts that echo them, are the same in every run
    os.chdir(workdir)
    try:
        # one import is timed in this process; the others, in fresh
        # interpreters, keep a single noisy sample from deciding setup_s.
        # Each set-up is scaled by the reference samples on either side of it.
        setup_times = []
        ref_before = None
        for i in range(SETUP_REPEATS):
            imported = import_s if i == 0 else import_seconds(src)
            start = time.perf_counter()
            workload = workloads.BUILDERS[args.workload](args.seed, ".")
            elapsed = imported + time.perf_counter() - start
            ref_after = refspeed.sample()
            if ref_before is None:
                ref_before = ref_after  # the first import ran before the kernel could
            setup_times.append(elapsed * 2.0 * refspeed.REF_S / (ref_before + ref_after))
            ref_before = ref_after
        setup_s = statistics.median(setup_times)

        tracer = spans.Tracer() if args.trace else None
        # with --trace 1 the kernel is sampled only between rounds: inside a
        # traced round its time would land in whichever span is open
        clock = refspeed.RefClock(interval=0.0 if args.trace else refspeed.INTERVAL_S)
        untraced: list[Round] = []
        traced: list[Round] = []
        problems: list[str] = []
        digests = None
        deadline = time.perf_counter() + args.seconds
        while not untraced or (tracer is not None and not traced) \
                or time.perf_counter() < deadline:
            batch = [run_round(workload, clock)]
            untraced.append(batch[0])
            if tracer is not None:
                tracer.install()
                try:
                    batch.append(run_round(workload, clock, tracer))
                finally:
                    tracer.remove()
                traced.append(batch[-1])
            for rnd in batch:
                problems += workload.check(rnd.outputs)
                found = workload.digests(rnd.outputs)
                if digests is None:
                    digests = found
                elif found != digests:
                    problems.append("outputs differ between rounds of the same inputs")
                rnd.outputs = None  # kept outputs would grow peak_rss_mb with the round count
        rounds = untraced + traced
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)

        if tracer is None:
            walls = [r.wall for r in untraced]
            scaled = [r.scaled for r in untraced]
            metrics = {
                "wall_s": {"value": statistics.median(scaled), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            summary = (f"{len(walls)} rounds, round time quartiles {_quartiles(walls)} s, "
                       f"scaled {_quartiles(scaled)} s, reference kernel median "
                       f"{1e3 * statistics.median(clock.samples):.3f} ms")
        else:
            if any(r.counts != traced[0].counts for r in traced):
                problems.append("per-layer counts differ between traced rounds")
            metrics = {}
            for span_name, metric in SPAN_METRICS.items():
                value = _mean([r.self_times.get(span_name, 0.0) for r in traced])
                metrics[metric] = {"value": value, "unit": "s"}
            for name, unit in COUNT_METRICS:
                metrics[name] = {"value": traced[0].counts.get(name, 0), "unit": unit}
            unknown = set().union(*(r.self_times for r in traced)) - set(SPAN_METRICS)
            if unknown:
                problems.append(f"spans without a metric: {sorted(unknown)}")
            traced_wall = _mean([r.wall for r in traced])
            untraced_wall = _mean([r.wall for r in untraced])
            bench_self = _mean([r.bench_self for r in traced])
            metrics["bench.self_s"] = {"value": bench_self, "unit": "s"}
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
            layer_sum = sum(metrics[m]["value"] for m in SPAN_METRICS.values())
            if abs(layer_sum + bench_self - traced_wall) > 1e-6 * traced_wall:
                problems.append("layer self times do not add up to the traced wall time")
            summary = (f"{len(traced)} traced + {len(untraced)} untraced rounds, "
                       f"overhead {100 * (traced_wall / untraced_wall - 1):.1f}%")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    for name in sorted(digests or {}):
        print(f"sha256 {name} {digests[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary}; "
          f"{attempted} operations attempted, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
