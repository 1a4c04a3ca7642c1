"""Span tracing of scalefit's public functions, from outside the package.

Tracer.install wraps each traced function in every scalefit module
namespace that holds it, so the wrapper runs whether a caller looks the
function up in its home module (fit_m2 calling solve_loglinear through the
fitting globals) or in a namespace that imported it (evaluation calling
fit_m2, cli calling run_benchmark).  Each call records one span (name,
start, end, parent) in flat arrays; self time is a span's duration minus
the durations of its child spans, which nest strictly on one thread.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np

# module -> public functions whose calls are traced
TARGETS = {
    "synthetic": ("generate_sphere_curve", "train_logistic",
                  "sample_sphere_dataset", "misclassification_rate"),
    "fitting": ("solve_loglinear", "fit_m1", "fit_m2", "fit_m3", "fit_m4"),
    "models": ("predict_m4",),
    "evaluation": ("evaluate_task",),
    "curve": ("split_for_extrapolation", "apply_cutoff"),
    "harness": ("load_task", "run_benchmark", "emit_report", "save_task"),
    "cli": ("main",),
}
FITTERS = {"fitting.fit_m1", "fitting.fit_m2", "fitting.fit_m3", "fitting.fit_m4"}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patched = []
        # per fitter call: its span id, and its FitResult's iterations,
        # converged flag and train loss
        self.fit_span = array("i")
        self.fit_iters = array("q")
        self.fit_converged = array("b")
        self.fit_loss = array("d")

    def span(self, name):
        """A decorator that records a span named name for each call."""
        nid = len(self.names)
        self.names.append(name)
        is_fitter = name in FITTERS

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = len(self.start)
                self.name_id.append(nid)
                self.parent.append(self._stack[-1] if self._stack else -1)
                self.end.append(math.nan)
                self._stack.append(sid)
                self.start.append(time.perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[sid] = time.perf_counter()
                    self._stack.pop()
                if is_fitter:
                    self.fit_span.append(sid)
                    self.fit_iters.append(result.iterations)
                    self.fit_converged.append(bool(result.converged))
                    self.fit_loss.append(result.train_loss)
                return result
            return traced
        return decorate

    def install(self, package):
        """Wrap every TARGETS function wherever a scalefit module holds it."""
        modules = [package] + [getattr(package, m) for m in TARGETS]
        for mod_name, funcs in TARGETS.items():
            home = getattr(package, mod_name)
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self.span(f"{mod_name}.{fn_name}")(original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Span count so far; spans recorded after it form a later segment."""
        return len(self.start)

    def stats(self, lo: int, hi: int) -> dict:
        """Per-function calls, self and total seconds over spans [lo, hi)."""
        start = np.frombuffer(self.start, dtype=float)[lo:hi]
        end = np.frombuffer(self.end, dtype=float)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        name = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i])} for i, n in enumerate(self.names)}
        fits = (np.frombuffer(self.fit_span, dtype=np.int32) >= lo) & \
               (np.frombuffer(self.fit_span, dtype=np.int32) < hi)
        losses = np.frombuffer(self.fit_loss, dtype=float)[fits]
        losses = losses[losses > 0]
        out["fitting"] = {
            "outer_iters": int(np.frombuffer(self.fit_iters, dtype=np.int64)[fits].sum()),
            "fits_converged": int(np.frombuffer(self.fit_converged, dtype=np.int8)[fits].sum()),
            "train_loss_gmean": float(np.exp(np.mean(np.log(losses)))) if losses.size else math.nan,
        }
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))
