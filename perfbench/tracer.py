"""Span tracing for the synclab benchmark, installed from outside the program.

The tracer wraps the public functions and methods named in ``WRAPS`` (and the
``heapq`` functions the event engine calls) so that each call records a span:
name, start, end and the span that was open when it began.  Spans live in
flat in-memory arrays and are written out once, when the benchmark ends.
Nothing under ``src/`` knows about tracing; ``install`` patches the live
modules and ``uninstall`` restores every original attribute, so untraced
operations run the unmodified code.

A layer's self time is its spans' duration minus the part covered by their
child spans.  Because every traced operation sits under one root span opened
by the benchmark, the per-layer self times of an operation add up to its
wall time exactly.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import os
from array import array
from time import perf_counter_ns

import numpy as np


def _count(key):
    def hook(tracer, args, result):
        tracer.counts[key] = tracer.counts.get(key, 0) + 1
    return hook


def _count_pairs(size):
    def hook(tracer, args, result):
        key = "estimators.fit.pairs"
        tracer.counts[key] = tracer.counts.get(key, 0) + size(args)
    return hook


def _count_bytes(key):
    def hook(tracer, args, result):
        tracer.counts[key] = tracer.counts.get(key, 0) + os.path.getsize(args[0])
    return hook


def _count_head_events(tracer, args, result):
    key = "simnet.head_events"
    tracer.counts[key] = tracer.counts.get(key, 0) + len(result.head_events)


# (module, attribute, span name or None for a count-only wrapper, hook, other
# modules that imported the same function by name and must see the wrapper).
# Head-side fits are wrapped where HeadEstimator looks them up (the
# estimators module globals) and nowhere else: node-side fits in protocol
# keep their own references and count under protocol.node_estimate.
WRAPS = (
    ("clock", "HardwareClock.read", "clock.read", None, ()),
    ("clock", "HardwareClock.advance_drift", None, _count("clock.drift_steps"), ()),
    ("protocol", "JitterModel.sample", "protocol.jitter", None, ()),
    ("protocol", "Message.__init__", None, _count("protocol.frames_built"), ()),
    ("protocol", "Message.size_bytes", "protocol.size_bytes", None, ()),
    ("protocol", "RadioConfig.airtime_s", "protocol.radio", None, ()),
    ("protocol", "NodeState.node_estimate", "protocol.node_estimate", None, ()),
    ("protocol", "NodeState.record_measurement", "protocol.node", None, ()),
    ("protocol", "NodeState.build_report", "protocol.node", None, ()),
    ("protocol", "NodeState.build_relay", "protocol.node", None, ()),
    ("protocol", "NodeState.receive_sync_frame", "protocol.node", None, ()),
    ("protocol", "NodeState.build_beacon", "protocol.node", None, ()),
    ("protocol", "NodeState.build_rebroadcast", "protocol.node", None, ()),
    ("protocol", "NodeState.on_beacon", "protocol.node", None, ()),
    ("protocol", "NodeState.build_measurement_frame", "protocol.node", None, ()),
    ("protocol", "NodeState.build_forward", "protocol.node", None, ()),
    ("protocol", "NodeState.note_tx", "protocol.node", None, ()),
    ("protocol", "NodeState.note_rx", "protocol.node", None, ()),
    # __rsub__ and __rtruediv__ delegate to the wrapped forward operators
    ("precision", "Float32Emu.__add__", "precision.f32", None, ()),
    ("precision", "Float32Emu.__radd__", "precision.f32", None, ()),
    ("precision", "Float32Emu.__sub__", "precision.f32", None, ()),
    ("precision", "Float32Emu.__mul__", "precision.f32", None, ()),
    ("precision", "Float32Emu.__rmul__", "precision.f32", None, ()),
    ("precision", "Float32Emu.__truediv__", "precision.f32", None, ()),
    ("precision", "Float32Emu.__neg__", "precision.f32", None, ()),
    ("estimators", "HeadEstimator.ingest", "estimators.ingest", None, ()),
    ("estimators", "HeadEstimator.translate_to_reference", "estimators.translate", None, ()),
    ("estimators", "lsq_fit", "estimators.fit", _count_pairs(lambda a: len(a[0])), ()),
    ("estimators", "interpolate_params", "estimators.fit", _count_pairs(lambda a: 2), ()),
    ("estimators", "cumulative_params", "estimators.fit", _count_pairs(lambda a: 2), ()),
    ("simnet", "build_chain", "simnet.build", None, ()),
    ("simnet", "Engine.__init__", "simnet.init", None, ()),
    ("simnet", "Engine.run", "simnet.run", _count_head_events, ()),
    ("analysis", "run_config", "analysis.run", None, ()),
    ("analysis", "replay", "analysis.replay", None, ()),
    ("analysis", "accuracy_metrics", "analysis.accuracy", None, ()),
    ("analysis", "energy_from_trace", "analysis.energy", None, ()),
    ("analysis", "summarize_trace", "analysis.summary", None, ()),
    ("analysis", "write_measurements_csv", "analysis.write",
     _count_bytes("analysis.bytes_written"), ()),
    ("analysis", "write_summary_json", "analysis.write",
     _count_bytes("analysis.bytes_written"), ()),
    ("analysis", "save_trace", "analysis.write", _count_bytes("analysis.bytes_written"), ()),
    ("analysis", "load_trace", "analysis.load_trace", _count_bytes("analysis.bytes_read"), ()),
    ("config", "load_config", "config.parse", None, ("cli",)),
    ("config", "parse_config", "config.parse", None, ()),
    ("config", "RunConfig.replace", "config.canon", None, ()),
    ("config", "RunConfig.to_dict", "config.canon", None, ()),
    ("config", "RunConfig.config_hash", "config.canon", None, ()),
    ("cli", "main", "cli.main", None, ()),
)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.heap_peak = 0
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self._name)

    # -- patching -----------------------------------------------------------

    def _span(self, fn, name, hook):
        nid = self.name_id(name)
        opened, closed = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap(self, raw, name, hook):
        make = (lambda f: self._span(f, name, hook)) if name else (
            lambda f: self._counter(f, hook)
        )
        if isinstance(raw, property):
            return property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        return make(raw)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry of ``WRAPS`` that exists in the loaded program;
        record the ones that do not in ``missing``."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for module_name, path, name, hook, also in WRAPS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"synclab.{module_name}")
                for part in outer:
                    owner = owner.__dict__[part]
                raw = owner.__dict__[attr]
            except (ImportError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(raw, name, hook)
            self._patch(owner, attr, wrapped)
            for other in also:
                other_module = importlib.import_module(f"synclab.{other}")
                if other_module.__dict__.get(attr) is raw:
                    self._patch(other_module, attr, wrapped)
        simnet = importlib.import_module("synclab.simnet")
        if simnet.__dict__.get("heapq") is heapq:
            self._patch(simnet, "heapq", _HeapProxy(self))
        else:
            self.missing.append("simnet.heapq")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def self_times(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k) / 1e9
        own_s = np.bincount(a["name"], weights=own, minlength=k) / 1e9
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(total[i]) for i, n in enumerate(self.names)},
            {n: float(own_s[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path) -> None:
        """Write every span (name table plus flat columns) as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _HeapProxy:
    """Stands in for the ``heapq`` module inside ``synclab.simnet``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._nid = tracer.name_id("simnet.heap")

    def heappush(self, heap, item) -> None:
        tracer = self._tracer
        idx = tracer.open(self._nid)
        try:
            heapq.heappush(heap, item)
        finally:
            tracer.close(idx)
        if len(heap) > tracer.heap_peak:
            tracer.heap_peak = len(heap)

    def heappop(self, heap):
        tracer = self._tracer
        idx = tracer.open(self._nid)
        try:
            item = heapq.heappop(heap)
        finally:
            tracer.close(idx)
        tracer.counts["simnet.events"] = tracer.counts.get("simnet.events", 0) + 1
        return item

    def __getattr__(self, name):
        return getattr(heapq, name)
