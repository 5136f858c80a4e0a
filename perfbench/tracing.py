"""Spans around calls into decohist's public functions, recorded from outside.

The program is not instrumented.  For the traced part of a run the tracer
replaces each public function listed in ``LAYERS`` with a wrapper, in every
``decohist`` module that binds it (``histories`` imports
``heisenberg_projector`` by name, ``cli`` imports ``check_decoherence`` and
``construct_records`` by name, and so on), and wraps the constructors of the
model classes in place.  A wrapper records one span per call: name, start,
end, parent span and request id.  Garbage collection is recorded as
``runtime.gc`` spans through ``gc.callbacks``, so collector time is
subtracted from the span it interrupted.  Spans stay in memory until the run
writes them out.

A span's self time is its duration minus the durations of its children.
Summed over every span of a request, self times equal the duration of the
request's root span exactly; the root's own self time is the request time
that no layer covers (``unattributed``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import time
from contextlib import contextmanager

# Layer -> the functions whose spans count towards it, as "<module>.<name>".
LAYERS = {
    "model.build": (
        "model.StateOperator.__init__", "model.StateOperator.from_vector",
        "model.TimeGrid.__init__", "model.ProjectorFamily.__init__",
        "model.QuantumModel.__init__",
    ),
    "model.heisenberg": ("model.heisenberg_projector",),
    "linalg": tuple(f"linalg.{n}" for n in (
        "as_matrix", "as_vector", "max_abs", "matmul", "adjoint", "trace", "kron",
        "is_hermitian", "is_unitary", "herm_eig", "exp_generator",
    )),
    "histories.check": ("histories.check_decoherence", "histories.check_two_state_decoherence"),
    "histories.pointwise": (
        "histories.candidate_probability_forwards", "histories.candidate_probability_backwards",
        "histories.decoherence_functional", "histories.two_state_functional",
    ),
    "histories.other": (
        "histories.coarse_grain_check", "histories.both_conditions_theorem_check",
        "histories.two_state_probability_table", "histories.two_state_probability",
        "histories.pure_two_state_triviality_check", "histories.time_reversed_history_set",
        "histories.page_symmetric_cosmology_check",
    ),
    "records": (
        "records.branch_vectors", "records.strong_decoherence_iff_orthogonality",
        "records.construct_records",
    ),
    "scenarios.oracle": ("scenarios.collapse_chain_enumerate", "scenarios.collapse_probability_table"),
    "modelfile": ("modelfile.load_model", "modelfile.model_from_dict"),
    "cli": ("cli.main",),
}
GC_SPAN = "runtime.gc"
ROOT_SPAN = "request"
SPAN_LAYER = {name: layer for layer, names in LAYERS.items() for name in names}
SPAN_LAYER[GC_SPAN] = "runtime.gc"
SPAN_LAYER[ROOT_SPAN] = "unattributed"

MODULES = ("linalg", "model", "histories", "records", "scenarios", "modelfile", "cli")


def _pairs(result, args, kwargs) -> dict:
    m = len(result.histories)
    return {"pairs": m * (m - 1) // 2}


def _trajectories(result, args, kwargs) -> dict:
    return {"trajectories": len(result)}


def _bytes_read(result, args, kwargs) -> dict:
    return {"bytes_read": os.path.getsize(args[0])}


def _report_bytes(result, args, kwargs) -> dict:
    argv = list(args[0])
    if "--out" not in argv:
        return {}
    return {"report_bytes": os.path.getsize(argv[argv.index("--out") + 1])}


# Span name -> function turning (result, args, kwargs) into counters.
COUNTERS = {
    "histories.check_decoherence": _pairs,
    "histories.check_two_state_decoherence": _pairs,
    "scenarios.collapse_chain_enumerate": _trajectories,
    "modelfile.load_model": _bytes_read,
    "cli.main": _report_bytes,
}


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end", "info")

    def __init__(self, name: str, parent: int | None, request):
        self.sid = -1
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.end = 0.0
        self.info: dict | None = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Span recorder plus the patching that routes calls through it.

    Garbage collection can start at any allocation, including the tracer's
    own.  ``open`` therefore takes the start time only after the span is on
    the stack, and ``close`` takes the end time before popping it, so a
    collection always lands inside the span that is on top of the stack.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = None
        self._gc_open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self._request)
        # Number the span only now: building it may have run a collection
        # that appended a span of its own.
        span.sid = len(self.spans)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top != span.sid:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open.append(self.open(GC_SPAN))
        elif self._gc_open:
            self.close(self._gc_open.pop())

    @contextmanager
    def request(self, request_id):
        """Root span of one request; spans opened inside carry its id."""
        self._request = request_id
        root = self.open(ROOT_SPAN)
        gc.callbacks.append(self._on_gc)
        try:
            yield root
        finally:
            gc.callbacks.remove(self._on_gc)
            self.close(root)
            self._request = None

    def _traced(self, fn, name: str):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.info = count(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever a decohist module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"decohist.{m}") for m in MODULES}
        modules["decohist"] = importlib.import_module("decohist")
        for name in SPAN_LAYER:
            if name in (GC_SPAN, ROOT_SPAN):
                continue
            module, *path = name.split(".")
            # A function the program no longer has is skipped, so the trace
            # keeps working across changes to the program's surface.
            if len(path) == 2:  # a method: patch the class, which every binding shares
                cls = getattr(modules[module], path[0], None)
                raw = vars(cls).get(path[1]) if cls is not None else None
                if raw is None:
                    continue
                is_cm = isinstance(raw, classmethod)
                wrapped = self._traced(raw.__func__ if is_cm else raw, name)
                self._patch(cls, path[1], raw, classmethod(wrapped) if is_cm else wrapped)
                continue
            fn = getattr(modules[module], path[0], None)
            if fn is None:
                continue
            wrapped = self._traced(fn, name)
            for owner in modules.values():
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, attr, fn, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Per span (indexed by ``sid``): duration minus its children's durations."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def request_breakdown(spans: list[Span]) -> dict:
    """Per request id: root duration, and self time, calls and counters per layer.

    Each request's layer self times (``unattributed`` included) add up to its
    ``request_s``.
    """
    own = self_times(spans)
    out: dict = {}
    for s in spans:
        if s.request is None:
            continue
        rec = out.setdefault(s.request, {"request_s": 0.0, "self_s": {}, "calls": {}, "counts": {}})
        layer = SPAN_LAYER[s.name]
        rec["self_s"][layer] = rec["self_s"].get(layer, 0.0) + own[s.sid]
        rec["calls"][layer] = rec["calls"].get(layer, 0) + 1
        if s.name == ROOT_SPAN:
            rec["request_s"] = s.end - s.start
        for key, value in (s.info or {}).items():
            rec["counts"][key] = rec["counts"].get(key, 0) + value
    return out
