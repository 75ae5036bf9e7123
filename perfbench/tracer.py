"""Spans around biquad's layer functions, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
biquad module that holds it. A wrapper has to sit where the caller looks the
name up: ``gram`` and ``monic`` import ``expand_certificate`` and
``tensors_equal`` by name, so patching ``core`` alone would miss their calls,
while ``kernels.*`` and ``exactla.*`` are looked up on their module.

A span records its layer name, start, end, depth and item; spans are kept
in the order they end, so depth and order give each span's parent. A call
nested directly inside a span of the same layer name (``save_certificate``
calling ``dumps_canonical``) is folded into the outer span. Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) -> layer name. Several functions may share one name.
LAYERS = {
    ("core", "sample_min"): "core.sample_min",
    ("core", "expand_certificate"): "core.expand_certificate",
    ("core", "tensors_equal"): "core.tensors_equal",
    ("kernels", "refine_batch"): "kernels.refine_batch",
    ("kernels", "project_affine"): "kernels.project_affine",
    ("kernels", "affine_residual"): "kernels.affine_residual",
    ("gram", "sos_probe"): "gram.sos_probe",
    ("gram", "gram_project_psd"): "gram.gram_project_psd",
    ("gram", "flattening_psd_check"): "gram.flattening_psd_check",
    ("exactla", "ldlt_psd"): "exactla.ldlt_psd",
    ("exactla", "solve_linear"): "exactla.solve_linear",
    ("dominance", "dd_sos_decompose"): "dominance.dd_sos_decompose",
    ("monic", "monic_sos_decompose"): "monic.monic_sos_decompose",
    ("monic", "merge_proportional"): "monic.merge_proportional",
    ("jsonio", "dumps_canonical"): "jsonio.dump",
    ("jsonio", "tensor_to_dict"): "jsonio.dump",
    ("jsonio", "certificate_to_dict"): "jsonio.dump",
    ("jsonio", "save_tensor"): "jsonio.dump",
    ("jsonio", "save_certificate"): "jsonio.dump",
    ("jsonio", "tensor_from_dict"): "jsonio.load",
    ("jsonio", "certificate_from_dict"): "jsonio.load",
    ("jsonio", "load_tensor"): "jsonio.load",
    ("jsonio", "load_certificate"): "jsonio.load",
}

STATUSES = ("sos_certified", "flattening_psd", "feasible_numerical",
            "infeasible_suspected", "inconclusive")
CLI_COMMANDS = ("check-dd", "decompose-dd", "verify", "classify-monic",
                "decompose-monic", "probe")


def _count_starts(args, kwargs, result, counts):
    counts["kernels.refine_batch.starts"] += len(args[1])


def _count_order(args, kwargs, result, counts):
    counts["exactla.ldlt_psd.order"] += args[0].shape[0]


def _count_terms(args, kwargs, result, counts):
    counts["core.expand_certificate.terms"] += len(args[0].terms)


def _count_probe(args, kwargs, result, counts):
    counts[f"gram.status.{result.status}"] += 1
    counts["gram.dykstra_iters"] += result.iterations


def _count_dumped(args, kwargs, result, counts):
    counts["jsonio.bytes"] += len(result.encode())


def _count_loaded(args, kwargs, result, counts):
    counts["jsonio.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    ("kernels", "refine_batch"): _count_starts,
    ("exactla", "ldlt_psd"): _count_order,
    ("core", "expand_certificate"): _count_terms,
    ("gram", "sos_probe"): _count_probe,
    ("jsonio", "dumps_canonical"): _count_dumped,
    ("jsonio", "load_tensor"): _count_loaded,
    ("jsonio", "load_certificate"): _count_loaded,
}


class Tracer:
    """Records spans and counts while installed and not paused."""

    def __init__(self):
        self.spans = []        # [name, start, end, depth, item]
        self.counts = Counter()
        self.item = 0
        self._stack = []       # (name, start) of the open spans
        self._enabled = False
        self._patched = []     # (module, attribute, original)

    def _enter(self, name):
        self._stack.append((name, time.perf_counter()))

    def _exit(self, name):
        end = time.perf_counter()
        _, start = self._stack.pop()
        self.spans.append([name, start, end, len(self._stack), self.item])

    @contextmanager
    def span(self, name):
        if not self._enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    @contextmanager
    def paused(self):
        was, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = was

    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            if tracer._stack and tracer._stack[-1][0] == name:
                result = fn(*args, **kwargs)
            else:
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(name)
            if count is not None:
                count(args, kwargs, result, tracer.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a biquad module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "biquad" or n.startswith("biquad."))]
        for (mod_name, attr), name in LAYERS.items():
            fn = getattr(sys.modules[f"biquad.{mod_name}"], attr)
            wrapped = self._wrap(name, fn, COUNTERS.get((mod_name, attr)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapped)
        self._enabled = True

    def uninstall(self):
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()
        self._enabled = False

    def aggregate(self):
        """{layer: [calls, total seconds, self seconds]} from the recorded spans.

        Spans are appended when they end, so a span's children precede it
        and sit one level deeper; a running sum per depth gives each span the
        total duration of its children.
        """
        table = {}
        child_time = [0.0]
        for name, start, end, depth, _ in self.spans:
            while len(child_time) <= depth + 1:
                child_time.append(0.0)
            dur = end - start
            own = dur - child_time[depth + 1]
            child_time[depth + 1] = 0.0
            child_time[depth] += dur
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
        return table
