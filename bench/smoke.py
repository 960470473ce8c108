"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced and checks
that every metric BENCHMARK.json names is reported, and that the traced run
evaluated the workload's invariant. It then makes one tiny report per
workload and checks that each deliberate corruption of it fails the output
checks. Exits 0 when everything holds. The tiny sizes make the numbers
meaningless; only their presence is checked.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(name: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def _bad_probability(doc):
    doc["rows"][0]["p_class1"] = 1.5


def _duplicate_row(doc):
    doc["rows"].append(dict(doc["rows"][0]))


def _low_train_accuracy(doc):
    doc["metadata"]["method_info"]["mfvi"]["train_accuracy"] = 0.5


def _confident_gp_corners(doc):
    for row in doc["rows"]:
        if row["method"] == "gp":
            row["entropy_nats"] = 0.0


def _low_test_accuracy(doc):
    doc["metadata"]["method_info"]["mcdropout"]["test_accuracy"] = 0.999


def _confident_gp_end(doc):
    doc["metadata"]["mean_entropy_per_t"]["gp"]["2"] = 0.1


def _uncertain_dropout_end(doc):
    doc["metadata"]["mean_entropy_per_t"]["mcdropout"]["-1"] = 0.6


# Each corruption breaks one output check; every one must be caught.
CORRUPTIONS = {
    "toy2d": (_bad_probability, _duplicate_row, _low_train_accuracy, _confident_gp_corners),
    "mnist-interp": (
        _bad_probability,
        _duplicate_row,
        _low_test_accuracy,
        _confident_gp_end,
        _uncertain_dropout_end,
    ),
}


def check_corruptions(name: str, work: str) -> list[str]:
    workloads.ensure_src_on_path(ROOT)
    inputs = os.path.join(work, "inputs")
    workloads.prepare(name, 0, inputs, tiny=True)
    out = os.path.join(work, "report.json")
    argv = workloads.cli_argv(name, 0, inputs, out, os.path.join(work, "models"))
    if workloads.call_cli(argv) != 0:
        return [f"{name}: tiny run failed"]
    clean = workloads.load_report(out)
    problems = []
    baseline = workloads.check_report(name, clean)
    if baseline:
        problems.append(f"{name}: the clean tiny report fails its checks: {baseline}")
    for corrupt in CORRUPTIONS[workloads.WORKLOADS[name].experiment]:
        doc = json.loads(json.dumps(clean))
        corrupt(doc)
        found = workloads.check_report(name, doc)
        label = corrupt.__name__.lstrip("_")
        if not found:
            problems.append(f"{name}: corruption {label} passed the output checks")
        else:
            print(f"{name}: corruption {label} caught: {found[0]}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    work = os.path.join(ROOT, ".bench_runs", "smoke")
    os.chdir(ROOT)
    try:
        for w in spec["workloads"]:
            name = w["name"]
            for trace in (0, 1):
                result, stdout = _run(name, trace)
                missing = wanted[trace] - set(result["metrics"])
                extra = set(result["metrics"]) - wanted[trace]
                if missing or extra:
                    problems.append(f"{name} trace {trace}: missing {sorted(missing)}, extra {sorted(extra)}")
                if not result["correct"]:
                    problems.append(f"{name} trace {trace}: {result['failed']} runs failed")
                if trace and "invariant, traced run 0:" not in stdout:
                    problems.append(f"{name}: traced run printed no invariant")
                print(f"{name} trace {trace}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} runs, {result['failed']} failed")
            shutil.rmtree(work, ignore_errors=True)
            problems += check_corruptions(name, os.path.join(work, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
