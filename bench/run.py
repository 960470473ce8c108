"""ueprobe benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload toy2d-fit --seed 0 --seconds 20 --trace 0

Each run is ``ueprobe.cli.main([...])`` called in this process on inputs made
from ``--seed``, closed loop: the next run starts when the previous report is
on disk. Runs repeat until ``--seconds`` have passed and at least
``MIN_RUNS`` are done. ``--workload all`` runs every workload in turn, each in
a process of its own, and prints one summary. Every run's report goes
through the workload's output checks, and every report of one seed must be
byte-identical. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the runs):
``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``. ``--trace 1`` makes
one warm-up run, then alternates untraced runs and runs with every layer
traced (see tracing.py) for ``--seconds``, and reports the per-layer metrics,
the workload's invariant and ``trace.overhead_s`` (traced minus untraced
median ``wall_s``). ``--profile N`` runs once under cProfile and prints the
top N functions instead of measuring.

Set-up (imports, inputs, trained models) runs ``SETUP_REPEATS`` times in
fresh processes; ``setup_s`` is the median. Everything the benchmark writes
goes under ``.bench_runs/`` at the repository root; results and spans stay in
``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".bench_runs"  # relative to ROOT, the working directory of main()
SETUP_REPEATS = 3
# A run of mnist-synth takes about as long as --seconds; a fixed minimum keeps
# the number of runs per median the same whichever side of it a run ends.
MIN_RUNS = 2
SETUP_TIMEOUT_S = 60

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import LAYER_METRICS, ROOT_SPAN, SpanSet, Tracer, layer_metrics  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_METRICS = {
    **{name: unit for name, (unit, _) in LAYER_METRICS.items()},
    "trace.overhead_s": "s",
    "invariant.share": "fraction",
    "invariant.holds": "count",
}


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    digest: str | None
    failure: str | None


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------- environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root) -> str:
    """SHA-256 over src/ueprobe/*.py, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ueprobe")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "UE_PROBE_THREADS": os.environ.get("UE_PROBE_THREADS", "unset"),
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


# ---------------------------------------------------------------- set-up


def setup(args, inputs) -> float:
    """Run prepare.py SETUP_REPEATS times; the last one's inputs are used."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "prepare.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", inputs,
    ]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return statistics.median(times)


# ---------------------------------------------------------------- runs


def one_run(args, inputs, work, tracer: Tracer | None = None) -> RunResult:
    out = os.path.join(work, "report.json")
    models = os.path.join(work, "models")
    argv = workloads.cli_argv(args.workload, args.seed, inputs, out, models)
    failure = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = workloads.call_cli(argv)
        else:
            rc = tracer.call(ROOT_SPAN, workloads.call_cli, (argv,))
    except Exception as exc:  # a run that raises counts as failed, the loop goes on
        rc = None
        failure = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    digest = None
    if rc is not None and rc != 0:
        failure = f"cli.main returned {rc}"
    elif failure is None:
        digest = _sha256(out)
        problems = workloads.check_report(args.workload, workloads.load_report(out))
        failure = "; ".join(problems) or None
    for path in (out, models):
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    return RunResult(wall, cpu, digest, failure)


def timed_runs(args, inputs, work) -> list[RunResult]:
    """Runs back to back until ``--seconds`` have passed and MIN_RUNS are done."""
    results = []
    start = time.perf_counter()
    while len(results) < MIN_RUNS or time.perf_counter() - start < args.seconds:
        results.append(one_run(args, inputs, work))
    return results


def traced_runs(args, inputs, work, tracer: Tracer):
    """One warm-up run, then untraced and traced runs in turn until
    ``--seconds`` have passed, so both sides see the same warm process."""
    warmup = one_run(args, inputs, work)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(one_run(args, inputs, work))
        tracer.run_id = len(traced)
        tracer.install()
        try:
            traced.append(one_run(args, inputs, work, tracer))
        finally:
            tracer.uninstall()
    return warmup, untraced, traced


def mark_nondeterminism(results) -> str | None:
    """Fail every run whose report differs from the first good report."""
    digests = [r.digest for r in results if r.failure is None]
    if not digests:
        return None
    for r in results:
        if r.failure is None and r.digest != digests[0]:
            r.failure = f"report sha256 {r.digest} differs from {digests[0]}"
    return digests[0]


def traced_metrics(name: str, tracer: Tracer, untraced, traced) -> tuple[dict, list[str]]:
    """Medians over the traced runs of every layer metric and the invariant."""
    per_run = []
    notes = []
    for run_id, r in enumerate(traced):
        spans = SpanSet(s for s in tracer.spans if s[5] == run_id)
        metrics = layer_metrics(spans)
        share, holds, text = workloads.check_invariant(name, spans, r.wall_s)
        metrics["invariant.share"] = share
        metrics["invariant.holds"] = 1 if holds else 0
        per_run.append(metrics)
        notes.append(f"invariant, traced run {run_id}: {'holds' if holds else 'BROKEN'}: {text}")
    merged = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    merged["invariant.holds"] = min(m["invariant.holds"] for m in per_run)
    merged["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in untraced
    )
    return merged, notes


def profile(args, inputs, work, top: int) -> str:
    import cProfile
    import io
    import pstats

    out = os.path.join(work, "profile-report.json")
    argv = workloads.cli_argv(args.workload, args.seed, inputs, out, os.path.join(work, "models"))
    profiler = cProfile.Profile()
    profiler.enable()
    rc = workloads.call_cli(argv)
    profiler.disable()
    text = io.StringIO()
    text.write(f"cProfile of one {args.workload} run (seed {args.seed}, exit code {rc})\n")
    stats = pstats.Stats(profiler, stream=text)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return text.getvalue()


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="run once under cProfile and print the top N functions")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (bench/smoke.py); numbers are not comparable")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own; one summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    lines = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"bench: {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        lines.append(f"{name}: {result['attempted']} runs attempted, {result['failed']} failed")
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
            lines.append(_fmt(metric, m["value"], m["unit"]))
    print("\n".join(lines))
    print(json.dumps(total))
    return 0


def _fmt(name, value, unit, computed=False) -> str:
    label = " (computed)" if computed else ""
    return f"  {name:<30} {value:>14.6g} {unit}{label}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.ensure_src_on_path(ROOT)
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Paths end up in the report's options, so they are relative and the same
    # for every run: reports of one seed stay byte-identical across runs.
    os.chdir(ROOT)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    # One benchmark run at a time: runs share the work directory and the cores.
    with open(os.path.join(OUT, "lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return measure(args, results_dir)


def measure(args, results_dir) -> int:
    work = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    try:
        try:
            setup_s = setup(args, inputs)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        import ueprobe.cli  # noqa: F401  (imported here so no timed run pays for it)
        if args.profile:
            text = profile(args, inputs, work, args.profile)
            path = os.path.join(results_dir, f"profile-{args.workload}-seed{args.seed}.txt")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            print(text)
            print(f"profile written to {path}")
            return 0
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        notes = []
        if args.trace:
            tracer = Tracer()
            warmup, untraced, traced = traced_runs(args, inputs, work, tracer)
            results = [warmup] + untraced + traced
            digest = mark_nondeterminism(results)
            values, notes = traced_metrics(args.workload, tracer, untraced, traced)
            spans_path = os.path.join(results_dir, f"spans-{tag}.json")
            tracer.write(spans_path)
            notes.append(f"spans written to {spans_path}")
            units = TRACE_METRICS
        else:
            results = timed_runs(args, inputs, work)
            digest = mark_nondeterminism(results)
            timed = [r for r in results if r.failure is None] or results
            values = {
                "wall_s": statistics.median(r.wall_s for r in timed),
                "cpu_s": statistics.median(r.cpu_s for r in timed),
                "peak_rss_mb": _peak_rss_mb(),
                "setup_s": setup_s,
            }
            units = END_TO_END
        metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
        publish(args, os.path.join(results_dir, f"{tag}.json"), results, digest, notes, metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def publish(args, path, results, digest, notes, metrics) -> None:
    """Print the results, store them with the environment stamp, and print
    the JSON line last."""
    env = environment()
    failed = sum(1 for r in results if r.failure is not None)
    computed = {name for name, (_, c) in LAYER_METRICS.items() if c}
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} runs attempted, {failed} failed; report sha256 {digest}")
    for r in results:
        if r.failure:
            print(f"  FAILED run: {r.failure}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(_fmt(name, m["value"], m["unit"], name in computed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "report_sha256": digest,
        "runs": [r.__dict__ for r in results],
        "notes": notes,
        "metrics": {name: {**m, "computed": name in computed} for name, m in metrics.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
