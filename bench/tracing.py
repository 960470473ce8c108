"""Span tracing of ueprobe's layers from outside the package.

The tracer wraps public functions of each ``ueprobe`` module. It patches the
name in the module that defines the function and in every other ``ueprobe``
module that imported it, so calls made through any of those names are seen.
Methods are patched on their class. Nothing under ``src/`` changes; the
patches are undone by ``Tracer.uninstall``.

Each call records one span: ``(id, name, start, end, parent id, run id, ok,
work)``. ``work`` holds counters computed from the call's arguments and
result (rows, layer sizes, bytes), so every per-layer number derives from the
span list alone. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) <= 1 else int(shape[0])


def _gemm_macs(layer_sizes) -> int:
    """Multiply-adds of one row through the dense layers."""
    return sum(int(i) * int(o) for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _forward_work(args, kwargs, result):
    params, x = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "x")
    rows = _rows(x)
    return {"rows": rows, "flop": 2 * rows * _gemm_macs(params.layer_sizes)}


def _backward_work(args, kwargs, result):
    params, x = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "x")
    rows = _rows(x)
    sizes = params.layer_sizes
    # dW for every layer, plus the delta propagated below every layer but the first
    macs = 2 * _gemm_macs(sizes) - int(sizes[0]) * int(sizes[1])
    return {"rows": rows, "flop": 2 * rows * macs}


def _cholesky_work(args, kwargs, result):
    n = int(getattr(_arg(args, kwargs, 0, "a"), "shape", (0,))[0])
    return {"n": n, "flop": n**3 / 3.0}


def _size_work(args, kwargs, result):
    return {"values": int(getattr(result, "size", 1))}


def _mc_work(args, kwargs, result):
    return {"passes": int(_arg(args, kwargs, 2, "cfg").n_samples)}


def _members_work(args, kwargs, result):
    samples = _arg(args, kwargs, 0, "samples")
    shape = getattr(samples, "shape", None)
    return {"members": int(shape[0]) if shape is not None and len(shape) == 2 else len(samples)}


def _predict_points_work(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _chain_work(args, kwargs, result):
    return {"accept_rate": float(result.accept_rate)}


def _file_work(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 0, "path"))}


def _load_idx_work(args, kwargs, result):
    images = _arg(args, kwargs, 0, "images_path")
    labels = _arg(args, kwargs, 1, "labels_path")
    return {"bytes": _file_bytes(images) + _file_bytes(labels)}


def _report_work(args, kwargs, result):
    report, path = _arg(args, kwargs, 0, "report"), _arg(args, kwargs, 1, "path")
    return {"rows": len(report.rows), "bytes": _file_bytes(path)}


# (module, attribute, work counter); the span name is "<layer>.<attribute>"
# with the layer taken from the module name. A dotted attribute is a method.
PROBES = (
    ("gp", "fit_hyperparams", None),
    ("gp", "laplace_fit", None),
    ("gp", "kernel_matrix", None),
    ("gp", "predict_proba_many", _predict_points_work),
    ("numerics", "cholesky", _cholesky_work),
    ("numerics", "jittered_cholesky", None),
    ("numerics", "solve_triangular", None),
    ("numerics", "softmax", None),
    ("numerics", "RngStream.uniform", _size_work),
    ("numerics", "RngStream.normal", _size_work),
    ("nnet", "forward", _forward_work),
    ("nnet", "backward", _backward_work),
    ("nnet", "train", None),
    ("mcdropout", "mc_average", _mc_work),
    ("bnn", "mfvi_train", None),
    ("bnn", "hmc_sample", _chain_work),
    ("bnn", "log_posterior_and_grad", None),
    ("bnn", "posterior_predict", _members_work),
    ("bnn", "sample_posterior", None),
    ("store", "save_blob", _file_work),
    ("store", "load_blob", _file_work),
    ("datasets", "load_idx", _load_idx_work),
    ("datasets", "probe_sweep", None),
    ("harness", "run_experiment", None),
    ("harness", "write_report", _report_work),
)

ROOT_SPAN = "run"


class Tracer:
    """Records spans around the probed functions while installed."""

    def __init__(self, package: str = "ueprobe"):
        self.package = package
        self.spans: list[tuple] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, work=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        result = None
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = work(args, kwargs, result) if (ok and work is not None) else None
            self.spans.append((sid, name, start, end, parent, self.run_id, ok, counts))

    def _wrapper(self, name, fn, work):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, probes=PROBES) -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for module_name, attr, work in probes:
            home = sys.modules[f"{self.package}.{module_name}"]
            span_name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(span_name, original, work))
                continue
            original = getattr(home, attr)
            traced = self._wrapper(span_name, original, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every recorded span as one JSON document."""
        fields = ("id", "name", "start", "end", "parent", "run", "ok", "work")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": fields, "spans": self.spans}, f)


class SpanSet:
    """Durations, self times and counters of the spans of one run."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for s in self.spans:
            child_time[s[4]] += s[3] - s[2]
        self.self_time = {s[0]: (s[3] - s[2]) - child_time[s[0]] for s in self.spans}

    def named(self, *names):
        return [s for s in self.spans if s[1] in names]

    def count(self, *names) -> int:
        return len(self.named(*names))

    def failures(self, *names) -> int:
        return sum(1 for s in self.named(*names) if not s[6])

    def self_s(self, *names) -> float:
        return sum(self.self_time[s[0]] for s in self.named(*names))

    def total_s(self, *names) -> float:
        return sum(s[3] - s[2] for s in self.named(*names))

    def covered_s(self, *names) -> float:
        """Wall time inside any span of ``names``, nested ones counted once."""
        total = 0.0
        for s in self.named(*names):
            parent = self.by_id.get(s[4])
            while parent is not None and parent[1] not in names:
                parent = self.by_id.get(parent[4])
            if parent is None:
                total += s[3] - s[2]
        return total

    def work(self, key, *names) -> float:
        return sum((s[7] or {}).get(key, 0) for s in self.named(*names))

    def children_of(self, parent_names, *names) -> int:
        return sum(
            1
            for s in self.named(*names)
            if s[4] in self.by_id and self.by_id[s[4]][1] in parent_names
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, computed); "computed" marks a quantity derived from layer
# sizes, matrix orders or file sizes rather than timed.
LAYER_METRICS = {
    "gp.fit_s": ("s", False),
    "gp.laplace_fits": ("count", False),
    "gp.laplace_failures": ("count", False),
    "gp.newton_steps": ("count", False),
    "gp.kernel_matrix_s": ("s", False),
    "gp.predict_s": ("s", False),
    "gp.predict_points": ("count", False),
    "numerics.cholesky_s": ("s", False),
    "numerics.cholesky_calls": ("count", False),
    "numerics.cholesky_gflop": ("GFLOP", True),
    "numerics.jitter_retries": ("count", False),
    "numerics.solve_triangular_s": ("s", False),
    "numerics.rng_uniform_s": ("s", False),
    "numerics.rng_uniform_values": ("count", False),
    "numerics.rng_normal_s": ("s", False),
    "numerics.rng_normal_values": ("count", False),
    "numerics.softmax_s": ("s", False),
    "nnet.forward_s": ("s", False),
    "nnet.forward_calls": ("count", False),
    "nnet.forward_rows": ("count", False),
    "nnet.forward_gflop": ("GFLOP", True),
    "nnet.forward_gflops": ("GFLOP/s", True),
    "nnet.backward_s": ("s", False),
    "nnet.backward_calls": ("count", False),
    "nnet.backward_gflop": ("GFLOP", True),
    "nnet.train_s": ("s", False),
    "mcdropout.predict_s": ("s", False),
    "mcdropout.passes": ("count", False),
    "bnn.mfvi_train_s": ("s", False),
    "bnn.elbo_steps": ("count", False),
    "bnn.elbo_step_ms": ("ms", False),
    "bnn.hmc_sample_s": ("s", False),
    "bnn.hmc_grad_evals": ("count", False),
    "bnn.hmc_grad_eval_ms": ("ms", False),
    "bnn.hmc_accept_rate": ("fraction", False),
    "bnn.posterior_predict_s": ("s", False),
    "bnn.posterior_members": ("count", False),
    "bnn.sample_posterior_s": ("s", False),
    "store.save_s": ("s", False),
    "store.save_mb": ("MB", True),
    "store.load_s": ("s", False),
    "store.load_mb": ("MB", True),
    "datasets.load_idx_s": ("s", False),
    "datasets.load_idx_mb": ("MB", True),
    "datasets.probe_sweep_s": ("s", False),
    "harness.run_s": ("s", False),
    "harness.other_s": ("s", False),
    "harness.write_report_s": ("s", False),
    "harness.report_rows": ("count", False),
    "harness.report_mb": ("MB", True),
}

MB = 1e6


def layer_metrics(spans: SpanSet) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the spans of one run.

    ``*_s`` values are self times: a span's duration minus the time its
    child spans cover. ``harness.run_s`` is the exception: the whole time of
    ``run_experiment``, children included.
    """
    s = spans
    fits = s.count("gp.laplace_fit")
    jittered = s.count("numerics.jittered_cholesky")
    chol = s.count("numerics.cholesky")
    forward_s = s.self_s("nnet.forward")
    forward_gflop = s.work("flop", "nnet.forward") / 1e9
    elbo_steps = s.children_of(("bnn.mfvi_train",), "nnet.backward")
    grad_evals = s.count("bnn.log_posterior_and_grad")
    chains = s.named("bnn.hmc_sample")
    accept = [c[7]["accept_rate"] for c in chains if c[7]]
    return {
        "gp.fit_s": s.self_s("gp.fit_hyperparams", "gp.laplace_fit"),
        "gp.laplace_fits": fits,
        "gp.laplace_failures": s.failures("gp.laplace_fit"),
        "gp.newton_steps": jittered - fits,
        "gp.kernel_matrix_s": s.self_s("gp.kernel_matrix"),
        "gp.predict_s": s.self_s("gp.predict_proba_many"),
        "gp.predict_points": s.work("rows", "gp.predict_proba_many"),
        "numerics.cholesky_s": s.self_s("numerics.cholesky", "numerics.jittered_cholesky"),
        "numerics.cholesky_calls": chol,
        "numerics.cholesky_gflop": s.work("flop", "numerics.cholesky") / 1e9,
        "numerics.jitter_retries": chol - jittered,
        "numerics.solve_triangular_s": s.self_s("numerics.solve_triangular"),
        "numerics.rng_uniform_s": s.self_s("numerics.uniform"),
        "numerics.rng_uniform_values": s.work("values", "numerics.uniform"),
        "numerics.rng_normal_s": s.self_s("numerics.normal"),
        "numerics.rng_normal_values": s.work("values", "numerics.normal"),
        "numerics.softmax_s": s.self_s("numerics.softmax"),
        "nnet.forward_s": forward_s,
        "nnet.forward_calls": s.count("nnet.forward"),
        "nnet.forward_rows": s.work("rows", "nnet.forward"),
        "nnet.forward_gflop": forward_gflop,
        "nnet.forward_gflops": _ratio(forward_gflop, forward_s),
        "nnet.backward_s": s.self_s("nnet.backward"),
        "nnet.backward_calls": s.count("nnet.backward"),
        "nnet.backward_gflop": s.work("flop", "nnet.backward") / 1e9,
        "nnet.train_s": s.self_s("nnet.train"),
        "mcdropout.predict_s": s.self_s("mcdropout.mc_average"),
        "mcdropout.passes": s.work("passes", "mcdropout.mc_average"),
        "bnn.mfvi_train_s": s.self_s("bnn.mfvi_train"),
        "bnn.elbo_steps": elbo_steps,
        "bnn.elbo_step_ms": 1e3 * _ratio(s.total_s("bnn.mfvi_train"), elbo_steps),
        "bnn.hmc_sample_s": s.self_s("bnn.hmc_sample"),
        "bnn.hmc_grad_evals": grad_evals,
        "bnn.hmc_grad_eval_ms": 1e3 * _ratio(s.total_s("bnn.log_posterior_and_grad"), grad_evals),
        "bnn.hmc_accept_rate": _ratio(sum(accept), len(accept)),
        "bnn.posterior_predict_s": s.self_s("bnn.posterior_predict"),
        "bnn.posterior_members": s.work("members", "bnn.posterior_predict"),
        "bnn.sample_posterior_s": s.self_s("bnn.sample_posterior"),
        "store.save_s": s.self_s("store.save_blob"),
        "store.save_mb": s.work("bytes", "store.save_blob") / MB,
        "store.load_s": s.self_s("store.load_blob"),
        "store.load_mb": s.work("bytes", "store.load_blob") / MB,
        "datasets.load_idx_s": s.self_s("datasets.load_idx"),
        "datasets.load_idx_mb": s.work("bytes", "datasets.load_idx") / MB,
        "datasets.probe_sweep_s": s.self_s("datasets.probe_sweep"),
        "harness.run_s": s.total_s("harness.run_experiment"),
        "harness.other_s": s.self_s(ROOT_SPAN, "harness.run_experiment"),
        "harness.write_report_s": s.self_s("harness.write_report"),
        "harness.report_rows": s.work("rows", "harness.write_report"),
        "harness.report_mb": s.work("bytes", "harness.write_report") / MB,
    }
