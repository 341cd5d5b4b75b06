"""Span recorder for the traced run.

The recorder wraps the public functions of each layer where their callers
look them up (a class attribute, or a module global imported by name into
the caller's module) and records one span per call: name, start, end,
parent and op id.  A layer's self time is its spans' duration minus the
time their child spans cover.  Totals are folded as spans close; the first
``KEEP`` raw spans are also kept in memory and written out when the run
ends.  :meth:`SpanRecorder.restore` undoes every patch.

Patches must be installed *before* the deployment is built: protocol
handlers are registered as bound methods at construction time.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span names that start a client operation; spans nested in one share its op id
OP_SPANS = ("core.middleware.read", "core.middleware.write")


def patch_points() -> List[Tuple[str, Any, str, str]]:
    """``(span name, owner, attribute, kind)`` for every traced boundary.

    ``kind`` is ``"call"`` for a plain function or method and ``"gen"`` for
    a generator function whose every resumption is one span (resolution
    rounds run as processes that resume on message arrival).
    """
    from repro.core import detection, middleware, resolution
    from repro.live import transport as live_transport
    from repro.live import wire
    from repro.overlay import gossip, ransub, temperature, two_layer
    from repro.runtime import digest_cache
    from repro.sim import engine, network
    from repro.store import filesystem, update_log
    from repro.transport import endpoint
    from repro.versioning import extended_vector

    mw = middleware.IdeaMiddleware
    det = detection.DetectionService
    res = resolution.ResolutionManager
    evv = extended_vector.ExtendedVersionVector
    return [
        ("core.middleware.read", mw, "read", "call"),
        ("core.middleware.write", mw, "write", "call"),
        ("core.detection.detect", det, "detect", "call"),
        ("core.detection.ingest_digest", det, "ingest_digest", "call"),
        ("core.detection.current_level", det, "current_level", "call"),
        ("core.detection.announce_write", det, "announce_write", "call"),
        ("core.quantify.consistency_level", detection, "consistency_level",
         "call"),
        ("core.resolution.start_background", res,
         "start_background_resolution", "call"),
        ("core.resolution.start_active", res, "start_active_resolution",
         "call"),
        ("core.resolution.round", res, "_background_round", "gen"),
        ("core.resolution.round", res, "_active_round", "gen"),
        ("core.resolution.attention", res, "_rpc_attention", "call"),
        ("core.resolution.collect", res, "_rpc_collect", "call"),
        ("core.resolution.install", res, "_handle_install", "call"),
        ("runtime.digest_cache.local_digest", digest_cache.DigestCache,
         "local_digest", "call"),
        ("overlay.temperature.record_update", temperature.TemperatureTracker,
         "record_update", "call"),
        ("overlay.temperature.select_top", temperature.TemperatureTracker,
         "select_top", "call"),
        ("overlay.two_layer.record_update", two_layer.TwoLayerOverlay,
         "record_update", "call"),
        ("overlay.two_layer.top_layer", two_layer.TwoLayerOverlay,
         "top_layer", "call"),
        ("overlay.gossip.run_round", gossip.GossipService, "run_round",
         "call"),
        ("overlay.gossip.receive", gossip.GossipService, "_handle_digest",
         "call"),
        ("overlay.ransub.run_round", ransub.RanSubService, "run_round",
         "call"),
        ("sim.engine.run", engine.Simulator, "run", "call"),
        ("sim.network.send", network.Network, "send", "call"),
        ("sim.network.send", network.Network, "send_many", "call"),
        ("sim.network.deliver", network.Network, "_deliver", "call"),
        ("transport.endpoint.deliver", endpoint.ProtocolEndpoint, "deliver",
         "call"),
        ("transport.endpoint.rpc_timeout", endpoint.ProtocolEndpoint,
         "_timeout_request", "call"),
        ("versioning.merge", evv, "merge", "call"),
        ("versioning.apply", evv, "apply", "call"),
        ("store.write", filesystem.ReplicatedStore, "write", "call"),
        ("store.append", update_log.UpdateLog, "append", "call"),
        ("store.truncate", update_log.UpdateLog, "truncate", "call"),
        ("live.wire.encode", wire, "encode_envelope", "call"),
        ("live.wire.decode", wire, "decode_envelope", "call"),
        ("live.transport.send", live_transport.LiveTransport, "send", "call"),
        ("live.transport.send", live_transport.LiveTransport, "send_many",
         "call"),
    ]


class SpanRecorder:
    """Patches layer boundaries and folds their spans into per-name totals."""

    #: raw spans kept for writing out; totals cover every span
    KEEP = 50_000

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (name, start, end, parent name, op id) of the first ``KEEP`` spans
        self.raw: List[Tuple[str, float, float, Optional[str], int]] = []
        #: bytes of every frame the live wire encoded
        self.frame_bytes = 0
        #: spans close into the totals only while active
        self.active = True
        self._stack: List[list] = []
        self._op = -1
        self._next_op = 0
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------- patching
    def install(self) -> "SpanRecorder":
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for name, owner, attr, kind in patch_points():
            had = attr in vars(owner)
            original = vars(owner)[attr] if had else getattr(owner, attr)
            if kind == "gen":
                wrapper = self._wrap_generator(name, original)
            elif name == "live.wire.encode":
                wrapper = self._wrap_encoder(name, original)
            else:
                wrapper = self._wrap(name, original)
            self._saved.append((owner, attr, had, original))
            setattr(owner, attr, wrapper)
            self.totals.setdefault(name, [0, 0.0, 0.0])
        return self

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._saved:
            owner, attr, had, original = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        for entry in self.totals.values():
            entry[0], entry[1], entry[2] = 0, 0.0, 0.0
        self.raw.clear()
        self.frame_bytes = 0

    # ------------------------------------------------------------- spans
    def _open(self, name: str) -> list:
        if self._op < 0 and name in OP_SPANS:
            self._op = self._next_op
            self._next_op += 1
            frame = [name, 0.0, True]
        else:
            frame = [name, 0.0, False]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        if frame[2]:
            self._op = -1
        if not self.active:
            return
        duration = end - start
        entry = self.totals[frame[0]]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if len(self.raw) < self.KEEP:
            self.raw.append((frame[0], start, end,
                             parent[0] if parent is not None else None,
                             self._op))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start, perf_counter())
        return wrapper

    def _wrap_encoder(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            start = perf_counter()
            try:
                body = fn(*args, **kwargs)
            finally:
                self._close(frame, start, perf_counter())
            self.frame_bytes += len(body)
            return body
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value, error = None, None
            while True:
                frame = recorder._open(name)
                start = perf_counter()
                try:
                    if error is not None:
                        yielded = gen.throw(error)
                    else:
                        yielded = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    recorder._close(frame, start, perf_counter())
                value, error = None, None
                try:
                    value = yield yielded
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the round
                    error = exc
        return wrapper

    # ------------------------------------------------------------- output
    def calls(self, name: str) -> int:
        return int(self.totals[name][0])

    def self_seconds(self, prefix: str) -> float:
        """Self time of every span whose name starts with ``prefix``."""
        return sum(entry[2] for name, entry in self.totals.items()
                   if name == prefix or name.startswith(prefix + "."))

    def write(self, path: str) -> None:
        """Write the kept raw spans as JSON lines, then the totals."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.raw:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")
            out.write(json.dumps({"totals": self.totals}) + "\n")
