"""Per-layer ledger for the traced run, measured from outside the program.

The ledger wraps the public entry points of each layer (module functions
and class methods looked up at call time) with a timer that keeps a span
stack per thread.  A layer's *self* time is its span's duration minus the
time of the wrapped spans nested inside it, so the self times of all
layers never count one interval twice.  Whatever part of an op no span
covers is reported as ``core.unattributed_ms`` by the workload.

Nothing here changes what the program computes: each wrapper calls the
original with the same arguments and returns its result.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

#: (module path, attribute path, layer) of every wrapped entry point.
#: Names imported into ``repro.core.discoverer`` are patched there, the
#: namespace the discoverer resolves them from.
ENTRY_POINTS: List[Tuple[str, str, str]] = [
    ("repro.core.discoverer", "build_predicate_space", "predicates.space"),
    ("repro.core.discoverer", "build_evidence_state", "evidence"),
    ("repro.core.discoverer", "incremental_evidence_for_insert", "evidence"),
    ("repro.core.discoverer", "apply_insert_evidence", "evidence"),
    ("repro.core.discoverer", "delete_evidence_with_index", "evidence"),
    ("repro.core.discoverer", "delete_evidence_by_recompute", "evidence"),
    ("repro.core.discoverer", "apply_delete_evidence", "evidence"),
    ("repro.core.backends", "DynEIBackend.bootstrap", "enumeration"),
    ("repro.core.backends", "DynEIBackend.insert", "enumeration"),
    ("repro.core.backends", "DynEIBackend.delete", "enumeration"),
    ("repro.verification.kernel", "Verifier.is_minimal", "verification"),
    ("repro.verification.kernel", "Verifier.has_violation", "verification"),
    ("repro.service.snapshot", "Snapshot.check", "verification"),
    ("repro.service.snapshot", "canonicalize_masks", "dcs.canonical"),
    ("repro.service.snapshot", "Snapshot.dcs_payload", "dcs.render"),
    ("repro.service.server", "build_snapshot", "service.snapshot"),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.wal"),
]

#: Layer → ledger metric name of its self time.
LAYER_METRICS: Dict[str, str] = {
    "enumeration": "enumeration.ms",
    "verification": "verification.ms",
    "evidence": "evidence.ms",
    "predicates.space": "predicates.space_ms",
    "dcs.canonical": "dcs.canonical_ms",
    "dcs.render": "dcs.render_ms",
    "service.snapshot": "service.snapshot_ms",
    "durability.wal": "durability.wal_ms",
}


def _resolve(module_path: str, attribute_path: str):
    owner = importlib.import_module(module_path)
    *parents, name = attribute_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Ledger:
    """Self time and outermost-call count per layer, across threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Plain (non-stacked) timings, e.g. HTTP handler time.
        self.side_s: Dict[str, float] = defaultdict(float)
        #: Spans count only between start() and stop(): set-up and the
        #: correctness checks run through the same entry points.
        self.recording = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, function):
        ledger = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                if ledger.recording:
                    with ledger._lock:
                        ledger.self_s[layer] += duration - frame[1]
                        if outermost:
                            ledger.calls[layer] += 1

        return wrapper

    def add_side(self, name: str, seconds: float) -> None:
        if self.recording:
            with self._lock:
                self.side_s[name] += seconds

    def install(self) -> None:
        for module_path, attribute_path, layer in ENTRY_POINTS:
            owner, name = _resolve(module_path, attribute_path)
            original = owner.__dict__[name]
            self._patches.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original))
        self._wrap_http_handler()

    def _wrap_http_handler(self) -> None:
        """Time each HTTP request's server-side handling (not a layer of
        the additive ledger: a write's handler blocks on the commit)."""
        import repro.service.server as server

        original = server._make_handler
        ledger = self

        def make_handler(service):
            handler = original(service)
            route = handler._route

            def timed_route(self, method):
                start = time.perf_counter()
                try:
                    return route(self, method)
                finally:
                    ledger.add_side("http.handler", time.perf_counter() - start)

            handler._route = timed_route
            return handler

        self._patches.append((server, "_make_handler", original))
        server._make_handler = make_handler

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def start(self) -> None:
        """Clear the totals and start recording."""
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.side_s.clear()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def totals(self) -> Tuple[Dict[str, float], Counter, Dict[str, float]]:
        with self._lock:
            return dict(self.self_s), Counter(self.calls), dict(self.side_s)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()


def ledger_metrics(self_s: Dict[str, float], op_s: float) -> Dict[str, float]:
    """Layer self times (ms) plus the unattributed rest of ``op_s``.

    The values sum to ``core.op_ms`` exactly up to float rounding.
    """
    metrics = {
        metric: 1000.0 * self_s.get(layer, 0.0)
        for layer, metric in LAYER_METRICS.items()
    }
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYER_METRICS)
    metrics["core.unattributed_ms"] = 1000.0 * (op_s - attributed)
    metrics["core.op_ms"] = 1000.0 * op_s
    return metrics
