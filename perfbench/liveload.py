"""The live workload: ``repro.live`` nodes on one asyncio loop.

Each node gets its own :class:`~repro.live.clock.LiveClock`, UNIX-socket
:class:`~repro.live.transport.LiveTransport` and protocol stack
(``build_live_stack``), gossip on and heartbeats off.  The benchmark feeds
them an open-loop Poisson write schedule generated from the seed, demands
one resolution round per object every ``period`` seconds, and truncates
once a period so log state stays bounded.

The rounds run in windows the write schedule leaves empty, so a round's
delay is the live stack's own cost of a resolution (RPCs, vector encoding,
merge) rather than its queueing behind whatever writes happen to be due:
with writes in flight the per-run median moved by a fifth between runs.
Nodes answer RPCs after the sim deployments' 35 ms processing delay, so a
round's delay is protocol timing plus the loop's CPU cost.

The CPU throughput is not host-normalised: probes run in write-free windows
of the loop did not track the loop's speed (socket system time is part of
its CPU cost), and neither did probes taken right before and after the
session; both made the throughput spread between runs larger, not smaller
(0.27 against 0.09 raw over ten seeds with the outer probes).

A write blocked by a resolution round is retried every ``retry_after``
seconds until it applies; each write is timed from its *due* time, so a
stalled loop or a blocked write shows up in its propagation time.  A write
has propagated when every peer has ingested a digest that covers it.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Tuple

from repro.live.scenario import ScenarioSpec, build_live_stack, make_addresses

from perfbench.workloads import LiveWorkload

SETUP_REPEATS = 15
#: (start, length) of the write-free window in each period that holds the
#: resolution rounds, as fractions of the period
ROUND_WINDOW = (0.2, 0.2)


def schedule(w: LiveWorkload, seed: int, nodes: List[str],
             objects: List[str], horizon: float
             ) -> List[Tuple[float, str, str]]:
    """Poisson arrivals at ``write_rate``, less those due in the round
    windows: ``(due time, node, object)``."""
    rng = random.Random(seed)
    round_at = ROUND_WINDOW[0] * w.period
    round_len = ROUND_WINDOW[1] * w.period
    writes = []
    t = rng.expovariate(w.write_rate)
    while t < horizon:
        node, obj = rng.choice(nodes), rng.choice(objects)
        if not round_at <= t % w.period < round_at + round_len:
            writes.append((t, node, obj))
        t += rng.expovariate(w.write_rate)
    return writes


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (0 for an empty sample)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Propagation:
    """Tracks when each write has been ingested by every peer."""

    def __init__(self, nodes: List[str]) -> None:
        self.peers = len(nodes) - 1
        #: (origin, object) -> due time of each own write, by sequence - 1
        self.due: Dict[Tuple[str, str], List[float]] = {}
        #: (origin, object, peer) -> highest origin count the peer ingested
        self.seen: Dict[Tuple[str, str, str], int] = {}
        #: (origin, object, sequence) -> peers that have not ingested it yet
        self.waiting: Dict[Tuple[str, str, int], int] = {}
        #: (due time, seconds until every peer had it)
        self.done: List[Tuple[float, float]] = []

    def applied(self, origin: str, obj: str, seq: int, due: float) -> None:
        dues = self.due.setdefault((origin, obj), [])
        if seq != len(dues) + 1:
            raise RuntimeError(f"{origin}/{obj}: write sequence {seq} after "
                               f"{len(dues)} writes")
        dues.append(due)
        self.waiting[(origin, obj, seq)] = self.peers

    def ingested(self, peer: str, origin: str, obj: str, count: int,
                 now: float) -> None:
        key = (origin, obj, peer)
        last = self.seen.get(key, 0)
        if count <= last:
            return
        self.seen[key] = count
        dues = self.due.get((origin, obj), ())
        for seq in range(last + 1, min(count, len(dues)) + 1):
            wkey = (origin, obj, seq)
            left = self.waiting[wkey] - 1
            if left:
                self.waiting[wkey] = left
            else:
                del self.waiting[wkey]
                due = dues[seq - 1]
                self.done.append((due, now - due))


class LiveSession:
    """One live run: stacks, schedule, and what the run measured."""

    def __init__(self, w: LiveWorkload, seed: int, seconds: float,
                 rundir: str, *, recorder=None) -> None:
        self.w = w
        self.rundir = rundir
        self.recorder = recorder
        self.nodes = [f"n{i:02d}" for i in range(w.nodes)]
        self.objects = [f"obj{j}" for j in range(w.objects)]
        self.horizon = w.warmup + seconds
        self.writes = schedule(w, seed, self.nodes, self.objects,
                               self.horizon)
        self.spec = ScenarioSpec(nodes=self.nodes, objects=self.objects,
                                 writes=[], resolutions=[],
                                 truncate_at=float("inf"),
                                 duration=self.horizon, seed=seed)
        self.stacks: Dict[str, object] = {}
        self.propagation = Propagation(self.nodes)
        self.setup_s = 0.0
        self.t0 = 0.0
        self.applied = 0
        self.retries = 0
        self.late: List[float] = []
        self.lags: List[float] = []
        self.folded = 0
        self.peak_retained = 0
        self.marks: Dict[str, dict] = {}
        self.cancelled_readers = 0
        self._handles: List[asyncio.TimerHandle] = []

    # ------------------------------------------------------------ set-up
    async def _build(self, loop) -> None:
        addresses = make_addresses(self.nodes, "uds", self.rundir)
        self.stacks = {n: build_live_stack(self.spec, n, addresses, loop=loop)
                       for n in self.nodes}
        for stack in self.stacks.values():
            stack.node.processing_delay = self.w.processing_delay
            await stack.node.transport.start()

    async def _stop_transports(self) -> None:
        for stack in self.stacks.values():
            await stack.node.transport.stop()

    async def setup(self) -> None:
        """Build and start every stack ``SETUP_REPEATS`` times; keep the last."""
        loop = asyncio.get_running_loop()
        times = []
        for i in range(SETUP_REPEATS):
            started = time.perf_counter()
            await self._build(loop)
            times.append(time.perf_counter() - started)
            if i < SETUP_REPEATS - 1:
                await self._stop_transports()
        self.setup_s = statistics.median(times)
        for peer, stack in self.stacks.items():
            for obj, mw in stack.middlewares.items():
                self._hook_ingest(peer, obj, mw)

    def _hook_ingest(self, peer: str, obj: str, mw) -> None:
        """Note each digest a peer ingests (not a bus subscription: the
        untraced run must not add per-op events)."""
        detection = mw.detection
        forward = detection._on_remote_digest
        propagation = self.propagation
        loop = asyncio.get_running_loop()

        def on_remote_digest(digest) -> None:
            propagation.ingested(peer, digest.node_id, obj,
                                 digest.counts().count(digest.node_id),
                                 loop.time() - self.t0)
            forward(digest)

        detection._on_remote_digest = on_remote_digest

    # ------------------------------------------------------------ actions
    def _write_due(self, write) -> None:
        now = asyncio.get_running_loop().time() - self.t0
        self.late.append(now - write[0])
        self._attempt(write)

    def _attempt(self, write) -> None:
        due, node, obj = write
        mw = self.stacks[node].middlewares[obj]
        if mw.write(payload=None, metadata_delta=1.0) is None:
            self.retries += 1
            loop = asyncio.get_running_loop()
            self._handles.append(loop.call_later(self.w.retry_after,
                                                 self._attempt, write))
            return
        self.applied += 1
        self.propagation.applied(node, obj, mw.replica.vector.count(node),
                                 due)

    def _resolve(self, k: int) -> None:
        for j, obj in enumerate(self.objects):
            node = self.nodes[(k + j) % len(self.nodes)]
            self.stacks[node].middlewares[obj].demand_active_resolution()

    def _truncate(self, _=None) -> None:
        retained = 0
        for stack in self.stacks.values():
            for mw in stack.middlewares.values():
                retained += mw.replica.retained_log_entries()
                self.folded += mw.truncate_stable(
                    self.nodes, keep_window=self.w.truncate_window)
        self.peak_retained = max(self.peak_retained, retained)

    def _mark(self, name: str) -> None:
        if self.recorder is not None:
            # spans count only inside the timed phase
            if name == "start":
                self.recorder.reset()
            self.recorder.active = name == "start"
        stats = [s.node.transport.stats for s in self.stacks.values()]
        self.marks[name] = {
            "cpu": time.process_time(), "wall": time.perf_counter(),
            "applied": self.applied,
            "retries": self.retries,
            "sent": sum(sum(s.sent.values()) for s in stats),
            "bytes": sum(sum(s.bytes_sent.values()) for s in stats),
            "dropped": sum(sum(s.dropped.values()) for s in stats),
            "reconnects": sum(s.node.transport.reconnects
                              for s in self.stacks.values()),
            "digest_hits": sum(s.runtime.digests.hits
                               for s in self.stacks.values()),
            "digest_misses": sum(s.runtime.digests.misses
                                 for s in self.stacks.values()),
        }

    def _lag_tick(self, expected: float) -> None:
        loop = asyncio.get_running_loop()
        self.lags.append(loop.time() - expected)
        if loop.time() < self.t0 + self.horizon:
            self._handles.append(loop.call_at(expected + 0.005,
                                              self._lag_tick,
                                              expected + 0.005))

    def _at(self, when: float, fn, arg) -> None:
        loop = asyncio.get_running_loop()
        self._handles.append(loop.call_at(self.t0 + when, fn, arg))

    # ------------------------------------------------------------ the run
    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self.t0 = loop.time() + 0.05
        for stack in self.stacks.values():
            stack.node.clock.rebase(self.t0)
            stack.gossip.start()
        for write in self.writes:
            self._at(write[0], self._write_due, write)
        # Each period: truncate, then resolve every object in the round
        # window; the fixed phase keeps the collected vectors the same size
        # from round to round.
        period = self.w.period
        for k in range(1, int(self.horizon / period)):
            self._at(k * period, self._truncate, None)
            self._at((k + ROUND_WINDOW[0]) * period, self._resolve, k)
        self._at(self.w.warmup, self._mark, "start")
        self._at(self.horizon, self._mark, "end")
        if self.recorder is not None:
            self._handles.append(loop.call_at(self.t0, self._lag_tick,
                                              self.t0))
        await asyncio.sleep(self.t0 + self.horizon - loop.time() + 0.01)
        deadline = loop.time() + self.w.drain_timeout
        while (self.propagation.waiting or self.applied < len(self.writes)) \
                and loop.time() < deadline:
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        for handle in self._handles:
            handle.cancel()
        for stack in self.stacks.values():
            stack.shutdown()
        await self._stop_transports()

    def loop_exception(self, loop, context) -> None:
        """Count the reader tasks that teardown cancels (the transport's
        connection callback re-raises their cancellation); report anything
        else through the default handler."""
        if isinstance(context.get("exception"), asyncio.CancelledError):
            self.cancelled_readers += 1
            return
        loop.default_exception_handler(context)

    # ------------------------------------------------------------ results
    def check(self) -> List[str]:
        problems = []
        if self.applied != len(self.writes):
            problems.append(f"{len(self.writes) - self.applied} scheduled "
                            f"writes never applied")
        for node, stack in self.stacks.items():
            for obj, mw in stack.middlewares.items():
                own = mw.replica.vector.count(node)
                expected = len(self.propagation.due.get((node, obj), ()))
                if own != expected:
                    problems.append(f"{node}/{obj}: origin count {own} != "
                                    f"{expected} writes applied")
                level = mw.current_level()
                if not 0.0 <= level <= 1.0:
                    problems.append(f"{node}/{obj}: level {level} outside "
                                    f"[0,1]")
        if self.propagation.waiting:
            problems.append(f"{len(self.propagation.waiting)} writes not "
                            f"ingested by every peer")
        return problems

    def summarize(self) -> Dict[str, object]:
        a, b = self.marks["start"], self.marks["end"]
        start, end = self.w.warmup, self.horizon
        writes = sum(1 for due, _, _ in self.writes if start <= due < end)
        cpu = b["cpu"] - a["cpu"]
        prop = sorted(d * 1e3 for due, d in self.propagation.done
                      if start <= due < end)
        delays = [r.total_delay
                  for stack in self.stacks.values()
                  for mw in stack.middlewares.values()
                  for r in mw.resolution.history
                  if r.succeeded and start <= r.started_at < end]
        late = [x * 1e3 for x in self.late]
        return {
            "ops": writes,
            "failed": len(self.writes) - self.applied,
            "ops_per_s": writes / cpu,
            "cpu_ms_per_write": cpu / writes * 1e3,
            "msgs_per_op": (b["sent"] - a["sent"]) / writes,
            "bytes_per_op": (b["bytes"] - a["bytes"]) / writes,
            "resolution_delay_p50_s": statistics.median(delays),
            "resolution_delay_p90_s": quantile(delays, 90),
            "resolution_samples": len(delays),
            "propagation_ms_p50": quantile(prop, 50),
            "propagation_ms_p99": quantile(prop, 99),
            "propagation_samples": len(prop),
            "gen_late_ms_p99": quantile(late, 99),
            "blocked_retries": b["retries"] - a["retries"],
            "digest_hits": b["digest_hits"] - a["digest_hits"],
            "digest_misses": b["digest_misses"] - a["digest_misses"],
            "dropped": b["dropped"] - a["dropped"],
            "reconnects": b["reconnects"] - a["reconnects"],
            "loop_lag_ms_p99": quantile([x * 1e3 for x in self.lags], 99),
            "teardown_cancelled_readers": self.cancelled_readers,
            "entries_folded": self.folded,
            "peak_retained_entries": self.peak_retained,
            "cpu_s": cpu,
            "wall_s": b["wall"] - a["wall"],
        }


def session(w: LiveWorkload, seed: int, seconds: float, *,
            recorder=None) -> LiveSession:
    """Run one session to completion; sockets live in a private directory
    under the working directory, removed afterwards."""
    rundir = f".perfbench-live-{os.getpid()}"
    os.makedirs(rundir, exist_ok=True)
    live = LiveSession(w, seed, seconds, rundir, recorder=recorder)

    async def main() -> None:
        asyncio.get_running_loop().set_exception_handler(live.loop_exception)
        await live.setup()
        try:
            await live.run()
        finally:
            await live.close()

    try:
        asyncio.run(main())
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return live


def run(w: LiveWorkload, seed: int, seconds: float, trace: bool,
        report: dict):
    from perfbench import run as bench
    from perfbench.spans import SpanRecorder

    if not trace:
        live = session(w, seed, seconds)
        summary = live.summarize()
        report["summary"] = summary
        metrics = {
            "ops_per_s": summary["ops_per_s"],
            "setup_s": live.setup_s,
            "peak_rss_mb": bench.peak_rss_mb(),
            "msgs_per_op": summary["msgs_per_op"],
            "bytes_per_op": summary["bytes_per_op"],
            "resolution_delay_p50_s": summary["resolution_delay_p50_s"],
            "resolution_delay_p90_s": summary["resolution_delay_p90_s"],
        }
        return live.check(), summary["ops"], summary["failed"], metrics

    plain = session(w, seed, seconds / 2)
    untraced = plain.summarize()
    problems = plain.check()
    rec = SpanRecorder()
    try:
        rec.install()
        live = session(w, seed, seconds / 2, recorder=rec)
    finally:
        rec.restore()
    summary = live.summarize()
    problems += live.check()
    ops = summary["ops"]
    metrics = bench.no_layer_metrics()
    metrics.update(bench.core_layers(rec, ops, ops, 0))
    started = metrics["core.resolution.rounds_started"]
    completed = summary["resolution_samples"]
    metrics.update({
        "core.resolution.rounds_completed": completed,
        "core.resolution.completed_ratio": bench.per_op(completed, started),
        "runtime.digest_cache.hit_rate": bench.per_op(
            summary["digest_hits"],
            summary["digest_hits"] + summary["digest_misses"]),
        "store.entries_folded": summary["entries_folded"],
        "store.peak_retained_entries": summary["peak_retained_entries"],
        "live.transport.dropped": summary["dropped"],
        "live.transport.reconnects": summary["reconnects"],
        "live.transport.loop_lag_ms_p99": summary["loop_lag_ms_p99"],
        "live.propagation_ms_p50": summary["propagation_ms_p50"],
        "live.propagation_ms_p99": summary["propagation_ms_p99"],
        "live.gen_late_ms_p99": summary["gen_late_ms_p99"],
        "perfbench.clients.retries_per_write":
            bench.per_op(summary["blocked_retries"], ops),
    })
    bench.trace_overhead(metrics, untraced, summary)
    report["summary"] = summary
    report["untraced_summary"] = untraced
    report["spans"] = bench.write_spans(rec, report)
    return problems, ops, summary["failed"], metrics
