"""Spans recorded from outside the package, around calls into each layer.

The benchmark never edits ``src/``.  Instead it replaces, for the length of
one job, every reference to a layer's public function inside the
``cascadesim`` modules with a wrapper.  Package code looks functions up as
module attributes (``cascadesim.evolve.apply``, ``cascadesim.cli.write_csv``,
...), so calls from one layer into another are caught as well as the
benchmark's own calls.  Spans stay in memory and are written out by the
caller when the job ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# layer -> functions whose calls are recorded as spans of that layer
LAYERS = {
    "hilbert": ("coherent_state", "fock_state", "product_state", "qubit_state",
                "partial_trace", "DensityOperator.check"),
    "liouvillian": ("apply", "build_L_T", "build_L_ST", "build_jump_ops",
                    "build_nonhermitian_H"),
    "sources": ("classical_paths", "source_jump_channels", "build_L_S"),
    "evolve": ("evolve_master", "run_ensemble"),
    "ansatz": ("solve_separated_target", "build_ansatz_state"),
    "analysis": ("trace_distance", "support_pattern_check", "schmidt_entropy"),
    "cli": ("main", "load_config", "write_csv", "write_json", "state_dump",
            "_observable_rows"),
}
# the calls that start integration; the first one ends set-up
INTEGRATION = ("evolve.evolve_master", "evolve.run_ensemble")
ROOT = "job"

clock = time.perf_counter


def _resolve(layer: str, name: str):
    """(owner, attribute, function) for a layer function or method."""
    module = sys.modules[f"cascadesim.{layer}"]
    if "." in name:
        cls_name, attr = name.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, getattr(owner, attr)
    return module, name, getattr(module, name)


class Tracer:
    """Spans of one job: (name, start, end, parent index), root at index 0.

    With ``record=False`` only the start of integration is timed, so an
    untraced job carries two wrappers that each run a handful of times.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.spans = []
        self._stack = []
        self._patches = []
        self.first_integration = None

    def _wrapper(self, fn, name: str):
        spans, stack = self.spans, self._stack
        marks_start = name in INTEGRATION
        record = self.record

        def wrapper(*args, **kwargs):
            t0 = clock()
            if marks_start and self.first_integration is None:
                self.first_integration = t0
            if not record:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, t0, clock(), parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "cascadesim" or k.startswith("cascadesim."))]
        for layer, names in LAYERS.items():
            for name in names:
                span_name = f"{layer}.{name.split('.')[-1]}"
                if not self.record and span_name not in INTEGRATION:
                    continue
                owner, attr, fn = _resolve(layer, name)
                wrapper = self._wrapper(fn, span_name)
                if owner not in modules:  # a method: patch the class
                    self._patches.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, key, fn))
                            setattr(module, key, wrapper)

    def _uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @contextmanager
    def job(self):
        """Patch the package for one job; the root span covers the block."""
        self._install()
        self.spans.append(None)
        self._stack.append(0)
        t0 = clock()
        try:
            yield self
        finally:
            self.spans[0] = (ROOT, t0, clock(), -1)
            self._stack.clear()
            self._uninstall()

    @property
    def wall_s(self) -> float:
        _, t0, t1, _ = self.spans[0]
        return t1 - t0

    def self_times(self) -> dict:
        """Per layer: span durations minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += (t1 - t0) - child[i]
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, names) -> float:
        """Summed duration of the named spans (none of them nest in another)."""
        return sum(t1 - t0 for name, t0, t1, _ in self.spans if name in names)

    def export(self, job_id) -> list:
        """Spans as records, times in seconds from the root's start."""
        base = self.spans[0][1]
        return [{"job": job_id, "name": name, "start": t0 - base, "end": t1 - base,
                 "parent": parent}
                for name, t0, t1, parent in self.spans]
