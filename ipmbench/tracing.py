"""Spans around ipmsim's public functions, recorded from outside the package.

``Tracer`` replaces each traced function, in every ipmsim module namespace
that holds it, by a wrapper that records a span (function, parent span,
start, end) while recording is on.  Callers read these names at call time
(``cli`` calls ``ipmsim.cli.simulate``, ``modulator`` calls
``ipmsim.modulator.rotator``), so nested calls nest as spans.  Spans stay
in memory, are saved when the run ends, and the originals are restored
when the tracer exits.

Worker processes of the MC pool call no traced function; their work shows
only as the pool's child CPU time.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ("main",),
    "scenario": ("load_scenario",),
    "montecarlo": ("simulate", "estimate"),
    "decoy": ("sweep_loss", "secure_rate"),
    "modulator": ("fit_delta_l", "modulator_mueller", "bb84_table", "poincare_trace",
                  "output_stokes"),
    "polarization": ("jones_to_mueller", "rotator", "retarder", "apply_mueller"),
    "polarimetry": ("extract_stokes", "measure_stokes"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
# call_s_tail is the call time with this many slower calls beyond it; with
# fewer than about twice as many calls it falls back to the median
TAIL_BEYOND = 10


class Tracer:
    def __init__(self) -> None:
        self.function = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._recording = False
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording or os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.function.append(index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for index, name in enumerate(FUNCTIONS):
            layer, fn_name = name.split(".")
            fn = getattr(sys.modules[f"ipmsim.{layer}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(fn, index))
        for module_name, module in list(sys.modules.items()):
            if module_name != "ipmsim" and not module_name.startswith("ipmsim."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def recording(self):
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    def spans(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        return {
            "function": np.array(self.function, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "self": self_times(parent, end - start),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(FUNCTIONS), **self.spans())

    def summary(self) -> dict[str, float]:
        """Per function: calls, busy, self and per-call times; per layer: self time."""
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        out: dict[str, float] = {}
        for index, name in enumerate(FUNCTIONS):
            mine = spans["function"] == index
            calls = np.sort(duration[mine])
            out[f"{name}.calls"] = int(calls.size)
            out[f"{name}.busy_s"] = float(calls.sum())
            out[f"{name}.self_s"] = float(spans["self"][mine].sum())
            out[f"{name}.call_s_p50"] = float(np.median(calls)) if calls.size else 0.0
            tail = max(calls.size - 1 - TAIL_BEYOND, calls.size // 2)
            out[f"{name}.call_s_tail"] = float(calls[tail]) if calls.size else 0.0
        for layer in TRACED:
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{fn}.self_s"] for fn in TRACED[layer])
        out["trace.top_level_s"] = float(duration[spans["parent"] < 0].sum())
        out["trace.spans"] = int(duration.size)
        return out


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - children
