"""Spans around the merge layers, recorded from outside the package.

Each layer is a public name that its callers look up at call time
(bezmerge.merging.d_table inside merge, bezmerge.curveio.d_table inside
run_merge, ...). Tracer.install replaces those names with wrappers that
record one span per call: name, start, end, parent span, request, and the
call's arguments and result, kept in memory. A layer's self time is its span
minus the spans of its children. A layer the package no longer has is left
out and reads as zero calls.
"""

import inspect
import json
import time
from collections import namedtuple

import bezmerge.curveio
import bezmerge.merging

LAYERS = [
    (bezmerge.merging, name) for name in (
        "validate", "constrained_head", "constrained_tail", "segment_dual_coeffs",
        "d_table", "dual_mid_coeffs", "c_table", "mid_controls")
] + [
    (bezmerge.curveio, name) for name in (
        "as_composite", "merge", "d_table", "l2_error", "max_error", "arc_length_partition")
]
LAYER_NAMES = [f"{module.__name__.split('.')[-1]}.{name}" for module, name in LAYERS]
ROOT = "run_merge"

Span = namedtuple("Span", "name start end parent request call result")


class Tracer:
    """Per-call spans of the wrapped layers; one root span per request."""

    def __init__(self):
        # Spans are lists in Span field order while open, for in-place updates.
        self._spans = []
        self._stack = [-1]
        self._request = -1
        self._present = [(module, name, label) for (module, name), label
                         in zip(LAYERS, LAYER_NAMES) if hasattr(module, name)]
        self._originals = {label: getattr(module, name) for module, name, label in self._present}
        self._wrappers = [self._wrap(label, self._originals[label])
                          for _, _, label in self._present]

    def _wrap(self, label, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [label, 0, 0, stack[-1], self._request, (args, kwargs), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                span[6] = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return span[6]

        return traced

    def _install(self, fns) -> None:
        for (module, name, _), fn in zip(self._present, fns):
            setattr(module, name, fn)

    def call(self, request: int, fn, *args, **kwargs):
        """Run fn as the root span of one request; returns (result, seconds)."""
        self._request = request
        span = [ROOT, 0, 0, -1, request, ((), {}), None]
        self._stack.append(len(self._spans))
        self._spans.append(span)
        self._install(self._wrappers)
        try:
            span[1] = time.perf_counter_ns()
            span[6] = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._install(self._originals[label] for _, _, label in self._present)
            self._stack.pop()
        return span[6], (span[2] - span[1]) * 1e-9

    @property
    def spans(self) -> list:
        return [Span(*span) for span in self._spans]

    def arguments(self, span: Span) -> dict:
        """The span's call arguments by parameter name."""
        args, kwargs = span.call
        return inspect.signature(self._originals[span.name]).bind(*args, **kwargs).arguments

    def self_times(self) -> list:
        """Self time of every span in ns, in span order."""
        own = [span[2] - span[1] for span in self._spans]
        for span in self._spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def write(self, path) -> None:
        rows = [{"name": s.name, "start_ns": s.start, "end_ns": s.end, "parent": s.parent,
                 "request": s.request} for s in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)
