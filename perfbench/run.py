"""plasmonstack benchmark: end-to-end metrics per workload, or a traced run
with per-layer metrics.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads are defined, with the
reason for each, in ``workloads.py``.

Each run does one untimed warm-up pass, then timed passes for about
``--seconds`` seconds; after every pass its outputs are checked outside the
timed region.  ``--trace 0`` reports the end-to-end metrics (norm_wall_s,
peak_rss_mb, setup_s, norm_op_ms.p50, norm_op_ms.p99); the timings are
normalized to a host reference speed (``hostspeed.py``), and the measured
ones are printed on the summary line.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer calls and self time, the
wasted-work ratios and the tracing overhead; its spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment.  Exit code
0 on success, 1 when an output is wrong (see ``workloads.py``: a nonzero
CLI exit, fixture drift, a CSV or sidecar that disagrees with what it should
hold, a failed mode-set check, an unexpected refusal) or the trace is
broken, 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: BLAS/OpenMP threads; must be set before numpy is imported, which is too
#: early for cli.main's own PLASMONSTACK_THREADS handling
THREAD_CAP = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PLASMONSTACK_THREADS")

#: timed passes a run makes even when they overrun --seconds, so that every
#: per-operation median has at least three samples
MIN_PASSES = 3

#: fresh interpreters timed for setup_s after each timed pass, so that the
#: samples span the run as the passes do; one discarded warm-up process
#: runs after the warm-up pass
SETUP_PER_PASS = 2
#: host reference blocks timed before and after each set-up sample
SETUP_REFERENCE_BLOCKS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from plasmonstack import cli, fixtures_io, output, runners; cli.build_parser()"
)

WORKLOAD_NAMES = ("spectra", "fields", "nystrom", "mode-scan")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="plasmonstack benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads():
    nproc = len(os.sched_getaffinity(0))
    cap = min(THREAD_CAP, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap, nproc


def import_library():
    """Import plasmonstack from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import plasmonstack
    except ImportError as exc:
        print(f"perfbench: cannot import plasmonstack from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(plasmonstack.__file__).startswith(SRC + os.sep):
        print(f"perfbench: plasmonstack imported from {plasmonstack.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(cap, nproc):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": cap,
        "nproc": nproc,
    }


def setup_seconds():
    """Seconds from a fresh interpreter to the CLI modules imported and the
    parser built."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class Run:
    """Accumulates one run's passes: walls, per-pass raw and normalized
    operation latencies, set-up samples, failed operations, problems.
    ``operations`` is the number of operations in a pass and ``failed`` the
    indices of those that failed in any pass, so both depend only on the
    workload and seed, not on how many passes fit into the run."""

    def __init__(self):
        self.walls = {False: [], True: []}
        self.latencies = []
        self.normalized = []
        self.setup = []
        self.normalized_setup = []
        self.operations = 0
        self.failed = set()
        self.problems = []
        self.layer_passes = []


def make_pass(workload, seed, out_root, calibrate):
    """Returns (run_pass, check_pass) for ``workload``.  run_pass() runs one
    pass and gives (wall seconds, operation latencies, host reference
    timings or None, raw results); with ``calibrate`` the host reference
    is timed between operations (hostspeed.py).  check_pass(results) gives
    (indices of failed operations, wrong-output messages).  The check runs
    outside the timed region and outside any tracing."""
    import workloads

    if workload == "mode-scan":
        inputs = workloads.mode_scan_inputs(seed)
        first_refused = None

        def run_pass():
            start = perf_counter()
            latencies, refs, results = workloads.modes_pass(inputs, calibrate)
            return perf_counter() - start, latencies, refs, results

        def check_pass(results):
            nonlocal first_refused
            failed, wrong, refused = workloads.check_modes_pass(inputs, results, first_refused)
            if first_refused is None:
                first_refused = refused
            return failed, wrong

        return run_pass, check_pass

    presets = workloads.CLI_WORKLOADS[workload]
    counter = itertools.count()

    def run_pass():
        out_dir = os.path.join(out_root, f"pass{next(counter)}")
        start = perf_counter()
        latencies, refs, codes = workloads.cli_pass(presets, out_dir, calibrate)
        return perf_counter() - start, latencies, refs, (out_dir, codes)

    def check_pass(results):
        out_dir, codes = results
        try:
            return workloads.check_cli_pass(presets, out_dir, codes)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return run_pass, check_pass


def run_passes(run_pass, check_pass, seconds, tracer):
    """One warm-up pass, then at least MIN_PASSES timed passes and more while
    the next one is expected to end within ``seconds``.  With a tracer,
    passes alternate untraced/traced, and set-up time is not sampled."""
    import hostspeed

    run = Run()
    _wall, latencies, _refs, results = run_pass()
    run.operations = len(latencies)
    failed, problems = check_pass(results)
    del results
    run.failed |= failed
    run.problems += problems
    if tracer is None:
        setup_seconds()
    spent = 0.0
    while True:
        traced = tracer is not None and len(run.walls[False]) > len(run.walls[True])
        if traced:
            first_span = len(tracer.spans)
            tracer.reset_counters()
            tracer.install()
            try:
                wall, latencies, _refs, results = run_pass()
            finally:
                tracer.uninstall()
            run.layer_passes.append(layer_pass_stats(tracer, first_span, wall))
        else:
            wall, latencies, refs, results = run_pass()
            run.latencies.append(latencies)
            if refs is not None:
                run.normalized.append(hostspeed.normalize(latencies, refs))
            if tracer is None:
                sample_setup(run)
        failed, problems = check_pass(results)
        del results  # freed before the next pass, so peak RSS is one pass's
        run.walls[traced].append(wall)
        run.failed |= failed
        run.problems += problems
        spent += wall
        done = len(run.walls[False]) + len(run.walls[True]) >= MIN_PASSES and (tracer is None or run.walls[True])
        expected = statistics.median(run.walls[False] + run.walls[True])
        if done and spent + expected > seconds:
            return run


def sample_setup(run):
    """SETUP_PER_PASS set-up samples, normalized by host reference timings
    taken before, between and after them."""
    import hostspeed

    refs = [hostspeed.reference_seconds(SETUP_REFERENCE_BLOCKS)]
    samples = []
    for _ in range(SETUP_PER_PASS):
        samples.append(setup_seconds())
        refs.append(hostspeed.reference_seconds(SETUP_REFERENCE_BLOCKS))
    run.setup += samples
    run.normalized_setup += hostspeed.normalize(samples, refs)


def layer_pass_stats(tracer, first_span, wall):
    from tracer import SPAN_NAMES

    calls, self_s = tracer.pass_stats(first_span)
    stats = {}
    for name in SPAN_NAMES:
        stats[f"{name}.calls"] = calls[name]
        stats[f"{name}.self_s"] = self_s[name]
    stats["spectrum.modes.refused"] = tracer.raised[("spectrum.modes", "CrossValidationError")]
    for name in ("output.write_csv", "output.write_json"):
        stats[f"{name}.bytes"] = tracer.bytes[name]
    assemblies = calls["bie.assemble_block_np"] + calls["bie.assemble_block_s"]
    distinct = len(tracer.distinct["bie.assemble_block_np"]) + len(tracer.distinct["bie.assemble_block_s"])
    stats["bie.assemble.useful_ratio"] = distinct / assemblies if assemblies else 0.0
    transforms = calls["geometry.cartesian_to_elliptic"]
    grids = len(tracer.distinct["geometry.cartesian_to_elliptic"])
    stats["geometry.cartesian_to_elliptic.useful_ratio"] = grids / transforms if transforms else 0.0
    spans = tracer.spans[first_span:]
    root_time = sum(end - start for _n, _o, parent, start, end in spans if parent < 0)
    stats["trace.outside_spans_s"] = wall - root_time
    stats["trace.self_sum_s"] = sum(self_s.values())
    return stats


def pass_figures(passes):
    """(median pass seconds, p50 ms, p99 ms) of per-pass operation latencies.
    A pass's seconds are the sum of its operations' latencies.  Every pass
    runs the same operations in the same order; an operation's latency is
    its median across the passes, and the percentiles are over those."""
    per_op_ms = [statistics.median(samples) * 1e3 for samples in zip(*passes)]
    p99 = statistics.quantiles(per_op_ms, n=100, method="inclusive")[98]
    return statistics.median(sum(p) for p in passes), statistics.median(per_op_ms), p99


def end_to_end_metrics(run):
    """The pass, operation and set-up timings, normalized to the host
    reference speed (hostspeed.py), and the run's peak RSS."""
    wall, p50, p99 = pass_figures(run.normalized)
    return {
        "norm_wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(run.normalized_setup), "s"),
        "norm_op_ms.p50": (p50, "ms"),
        "norm_op_ms.p99": (p99, "ms"),
    }


def per_layer_metrics(run, tracer):
    """Median over traced passes of each per-pass layer figure, plus the
    tracing overhead: traced minus untraced median pass wall."""
    metrics = {}
    for key in run.layer_passes[0]:
        if key.startswith("trace."):
            continue
        if key.endswith(".self_s"):
            unit = "s"
        elif key.endswith(".bytes"):
            unit = "bytes"
        elif key.endswith(".useful_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        metrics[key] = (statistics.median(p[key] for p in run.layer_passes), unit)
    traced = statistics.median(run.walls[True])
    untraced = statistics.median(run.walls[False])
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.outside_spans_s"] = (statistics.median(p["trace.outside_spans_s"] for p in run.layer_passes), "s")

    problems = tracer.check_nesting()[:5]
    self_sum = sum(p["trace.self_sum_s"] for p in run.layer_passes)
    if self_sum > sum(run.walls[True]):
        problems.append(f"self times sum to {self_sum:.6f} s, above the traced wall {sum(run.walls[True]):.6f} s")
    return metrics, problems


def write_trace(workload, seed, tracer, run, env):
    path = os.path.join(STATE_DIR, f"trace-{workload}-seed{seed}.json")
    doc = {
        "env": env,
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "op", "parent", "start", "end"],
        "spans": tracer.spans,
        "traced_pass_walls": run.walls[True],
        "untraced_pass_walls": run.walls[False],
        "per_pass": run.layer_passes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def run_one(args, cap, nproc):
    env = environment(cap, nproc)

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    out_root = os.path.join(STATE_DIR, f"out-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    try:
        run = run_passes(*make_pass(args.workload, args.seed, out_root, not args.trace), args.seconds, tracer)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    problems = list(run.problems)
    if args.trace:
        metrics, trace_problems = per_layer_metrics(run, tracer)
        problems += trace_problems
        trace_path = write_trace(args.workload, args.seed, tracer, run, env)
        traced_wall = metrics["trace.wall_s"][0]
        top = sorted((v, k) for k, (v, _u) in metrics.items() if k.endswith(".self_s") and not k.startswith("trace."))[::-1][:4]
        print(
            f"perfbench {args.workload} seed={args.seed} traced: wall_s={traced_wall:.6g} s, "
            f"overhead_s={metrics['trace.overhead_s'][0]:.6g} s; most self time: "
            + ", ".join(f"{k}={v:.4g} s ({v / traced_wall:.0%})" for v, k in top)
        )
        print(f"perfbench {args.workload}: spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = end_to_end_metrics(run)
        summary = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
        wall, p50, p99 = pass_figures(run.latencies)
        print(
            f"perfbench {args.workload} seed={args.seed}: {summary} "
            f"(passes={len(run.latencies)}, ops per pass={run.operations}, set-up samples={len(run.setup)}) "
            f"measured: wall_s={wall:.6g} s setup_s={statistics.median(run.setup):.6g} s op_ms.p50={p50:.6g} ms op_ms.p99={p99:.6g} ms "
            f"(host slowdown {wall / metrics['norm_wall_s'][0]:.4g}) "
            f"error_rate={len(run.failed)}/{run.operations}={len(run.failed) / run.operations:.6g}"
        )
    for problem in problems[:10]:
        print(f"perfbench {args.workload}: WRONG OUTPUT: {problem}", file=sys.stderr)
    if len(problems) > 10:
        print(f"perfbench {args.workload}: {len(problems) - 10} more wrong outputs", file=sys.stderr)
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": run.operations,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    results, status = {}, 0
    for workload in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            status = proc.returncode
        if proc.returncode in (0, 1) and lines:
            results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and len(results) == len(WORKLOAD_NAMES),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None):
    args = parse_args(argv)
    cap, nproc = cap_threads()
    import_library()
    os.makedirs(STATE_DIR, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args, cap, nproc)


if __name__ == "__main__":
    sys.exit(main())
