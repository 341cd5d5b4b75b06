"""The simulated workloads: build, warm up, measure, check.

A run builds the deployment ``SETUP_REPEATS`` times (the set-up metric is
the median build time), drives an untimed warm-up, then times whole
``step``-second slices of simulated time until the CPU budget is spent.
Per-op cost stays flat because the traffic driver's stability-driven
truncation keeps log state bounded by the window, not the run length.

The untimed phase never subscribes to per-op bus events and never sets
``collect_metrics``: those probes add work to every op.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.overlay.temperature import TemperatureConfig
from repro.overlay.two_layer import OverlayConfig
from repro.scenarios import FaultInjector, FaultPlan
from repro.scenarios.plan import CRASH, RECOVER
from repro.workloads import (
    ClientPopulation,
    ConstantRate,
    OpMix,
    UniformPopularity,
    ZipfPopularity,
)

from perfbench.clients import RetryingDriver
from perfbench.host import PROBE_REF_S, HostProbe
from perfbench.workloads import SimWorkload

SETUP_REPEATS = 15
#: the churn plan is generated far past any run; only the slices a run
#: reaches are armed
CHURN_HORIZON = 3_600.0
#: simulated seconds allowed for in-flight rounds to settle, and for the
#: quiescent round to finish (above the collect and member-block timeouts)
QUIESCE_LIMIT = 60.0
#: simulated seconds for install messages to reach every member (well above
#: the topology's largest one-way delay)
INSTALL_SETTLE = 2.0


def build(w: SimWorkload, seed: int) -> IdeaDeployment:
    """The deployment with its traffic attached and started."""
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED,
                        hint_level=w.hint_level,
                        background_period=w.background_period,
                        member_block_timeout=w.member_block_timeout,
                        outcome_history=256)
    overlay = OverlayConfig(temperature=TemperatureConfig(
        half_life=600.0, hot_threshold=0.5, max_top_size=w.nodes,
        min_top_size=1))
    builder = DeploymentBuilder(num_nodes=w.nodes, seed=seed,
                                overlay_config=overlay,
                                loss_probability=w.loss_probability)
    for i in range(w.objects):
        builder.add_object(f"obj{i}", config, start_background=True)
    popularity = (UniformPopularity(w.objects) if w.zipf_skew is None
                  else ZipfPopularity(w.objects, w.zipf_skew))
    population = ClientPopulation(
        name="clients", num_clients=w.clients, popularity=popularity,
        mix=OpMix(w.read_fraction), schedule=ConstantRate(w.rate_per_client))
    d = builder.start_overlay_services().build()
    d.traffic = RetryingDriver(d, [population], seed=seed,
                               truncate_every=w.truncate_every,
                               truncate_window=w.truncate_window,
                               truncate_keep_content=False).start()
    return d


def fault_plan(w: SimWorkload, node_ids, seed: int) -> Optional[FaultPlan]:
    """Seeded churn: a crash every ``1 / churn_rate`` seconds, back
    ``churn_downtime`` seconds later.  Victims take turns in a seeded order
    of the nodes, skipping any still down.

    Crash times are periodic rather than Poisson, and victims rotate rather
    than being drawn afresh, so that every seed puts the same fault load on
    the run and on each node: with Poisson gaps or independent draws the
    number of nodes down, and which of them carry the clients, varies more
    between seeds than a run can average out.
    """
    if w.churn_rate <= 0:
        return None
    order = list(node_ids)
    random.Random(seed).shuffle(order)
    plan = FaultPlan()
    down_until: Dict[str, float] = {}
    turn = 0
    t = 1.0
    while t < CHURN_HORIZON:
        alive = sum(1 for n in node_ids if down_until.get(n, 0.0) <= t)
        if alive > w.churn_spare:
            for _ in range(len(order)):
                victim = order[turn % len(order)]
                turn += 1
                if down_until.get(victim, 0.0) <= t:
                    plan.crash(victim, t)
                    plan.recover(victim, t + w.churn_downtime)
                    down_until[victim] = t + w.churn_downtime
                    break
        t += 1.0 / w.churn_rate
    return plan


@dataclass
class Counters:
    """Cumulative counts read at a slice boundary."""

    ops: int
    reads: int
    writes: int
    failed: int
    sent: int
    bytes: int
    events: int
    cpu: float

    @classmethod
    def read(cls, d: IdeaDeployment) -> "Counters":
        drv = d.traffic
        stats = d.network.stats
        return cls(ops=drv.ops_issued, reads=drv.reads_issued,
                   writes=drv.writes_issued,
                   failed=drv.skipped_down,
                   sent=sum(stats.sent.values()),
                   bytes=sum(stats.bytes_sent.values()),
                   events=d.sim.events_processed,
                   cpu=time.process_time())


@dataclass
class SimRun:
    """A built deployment and the state of its measured phase."""

    w: SimWorkload
    deployment: IdeaDeployment
    plan: Optional[FaultPlan]
    injectors: List[FaultInjector] = field(default_factory=list)
    armed_until: float = 0.0
    probe: HostProbe = field(default_factory=HostProbe)
    #: (ops, cpu seconds, host-normalised cpu seconds) per timed slice
    slices: List[tuple] = field(default_factory=list)
    start: Optional[Counters] = None
    end: Optional[Counters] = None
    measure_from: float = 0.0

    def _arm_faults(self, until: float, *, crashes: bool = True) -> None:
        """Arm the plan's actions due in ``(armed_until, until]``."""
        if self.plan is None or until <= self.armed_until:
            return
        window = FaultPlan()
        for action in self.plan.window(self.armed_until, until):
            if action.kind == CRASH and crashes:
                window.crash(action.node_id, action.time)
            elif action.kind == RECOVER:
                window.recover(action.node_id, action.time)
        self.armed_until = until
        self.injectors.append(FaultInjector(self.deployment, window).arm())

    def advance(self, until: float) -> None:
        self._arm_faults(until)
        self.deployment.run(until=until)

    def warm_up(self) -> None:
        self.advance(self.w.warmup)

    def measure(self, seconds: float) -> None:
        """Time whole slices until ``seconds`` of CPU time are spent.

        Each slice runs in ``probes_per_step`` parts, each right after a
        host probe; a part's CPU time is scaled by its probe against the
        reference probe time (see :mod:`perfbench.host`).
        """
        d = self.deployment
        part = self.w.step / self.w.probes_per_step
        self.measure_from = d.sim.now
        self.start = Counters.read(d)
        spent = 0.0
        while spent < seconds:
            ops = cpu = normalised = 0.0
            for _ in range(self.w.probes_per_step):
                scale = PROBE_REF_S / self.probe()
                before = Counters.read(d)
                self.advance(d.sim.now + part)
                after = Counters.read(d)
                ops += after.ops - before.ops
                cpu += after.cpu - before.cpu
                normalised += (after.cpu - before.cpu) * scale
            self.slices.append((ops, cpu, normalised))
            spent += cpu
        self.end = Counters.read(d)

    def fault_actions(self) -> int:
        return sum(len(inj.applied) for inj in self.injectors)

    def quiesce(self) -> None:
        """Stop traffic and new faults; let pending recoveries land."""
        d = self.deployment
        d.traffic.stop()
        for managed in d.objects.values():
            if managed.background_cancel is not None:
                managed.background_cancel()
        d.network.set_loss_probability(0.0)
        self._arm_faults(CHURN_HORIZON, crashes=False)
        d.run(until=d.sim.now + self.w.churn_downtime + 4.0)
        # rounds caught by a crash finish by their collect or block timeouts
        deadline = d.sim.now + QUIESCE_LIMIT
        while d.sim.now < deadline and (d.traffic.writes_pending or any(
                mw.resolution.resolving or mw.replica.write_blocked
                for managed in d.objects.values()
                for mw in managed.middlewares.values())):
            d.run(until=d.sim.now + 1.0)


def ops_per_s(run: SimRun, *, normalised: bool = True) -> float:
    """Median over slices of client ops per (host-normalised) CPU second."""
    return statistics.median(ops / (norm if normalised else cpu)
                             for ops, cpu, norm in run.slices)


def resolution_delays(run: SimRun) -> List[float]:
    """Total delay of every successful round started in the timed phase."""
    return [r.total_delay for managed in run.deployment.objects.values()
            for r in managed.resolutions
            if r.succeeded and r.started_at >= run.measure_from
            and r.finished_at <= run.deployment.sim.now]


# --------------------------------------------------------------------------
# output checks (invariants, not fingerprints)
# --------------------------------------------------------------------------

def check_levels(d: IdeaDeployment) -> List[str]:
    problems = []
    for object_id, managed in d.objects.items():
        for node_id, middleware in managed.middlewares.items():
            level = middleware.current_level()
            if not 0.0 <= level <= 1.0:
                problems.append(f"level {level} out of [0,1] at "
                                f"{node_id}/{object_id}")
    return problems


def check_no_write_lost(d: IdeaDeployment) -> List[str]:
    """Every applied write shows up as growth of its origin's own count."""
    origin_growth = sum(
        d.stores[node_id].replica(object_id).vector.count(node_id)
        for object_id, managed in d.objects.items()
        for node_id in managed.middlewares)
    applied = d.traffic.writes_applied
    if origin_growth != applied:
        return [f"writes applied {applied} != origin log growth "
                f"{origin_growth}"]
    return []


def in_flight(d: IdeaDeployment) -> int:
    """Messages whose delivery event is still pending in the engine.

    The engine has no public view of its pending events, so this walks its
    heap: a pending delivery is an event whose callback is bound to the
    network, carrying one message or a fan-out batch."""
    count = 0
    for entry in d.sim._queue._heap:
        event = entry[-1]
        if event.cancelled or getattr(event.callback, "__self__",
                                      None) is not d.network:
            continue
        count += len(event.arg) if isinstance(event.arg, list) else 1
    return count


def check_writes_applied(d: IdeaDeployment) -> List[str]:
    """Every write a resolution round blocked was applied on a retry."""
    pending = d.traffic.writes_pending
    if pending:
        return [f"{pending} blocked writes never applied"]
    return []


def check_drop_ledger(d: IdeaDeployment) -> List[str]:
    stats = d.network.stats
    sent = sum(stats.sent.values())
    delivered = sum(stats.delivered.values())
    dropped = sum(stats.dropped.values())
    flying = in_flight(d)
    if sent != delivered + dropped + flying:
        return [f"drop ledger: sent {sent} != delivered {delivered} + "
                f"dropped {dropped} + in flight {flying}"]
    if sum(stats.drop_reasons.values()) != dropped:
        return ["drop ledger: reasons do not sum to drops"]
    return []


def check_convergence(run: SimRun) -> List[str]:
    """After quiescence, one background round per object converges its
    surviving members."""
    d = run.deployment
    started = d.sim.now
    for object_id in d.objects:
        d.run_background_round(object_id)

    def quiescent_rounds(managed):
        return [r for r in managed.resolutions
                if r.kind == "background" and r.started_at >= started]

    while d.sim.now < started + QUIESCE_LIMIT and not all(
            quiescent_rounds(managed) for managed in d.objects.values()):
        d.run(until=d.sim.now + 1.0)
    # a round completes at its initiator; the installs are still in flight
    d.run(until=d.sim.now + INSTALL_SETTLE)
    problems = []
    for object_id, managed in d.objects.items():
        done = quiescent_rounds(managed)
        if not done:
            problems.append(f"{object_id}: no quiescent background round "
                            f"completed")
            continue
        alive = [n for n in done[-1].members if d.nodes[n].alive]
        counts = {n: d.stores[n].replica(object_id).vector.counts()
                  for n in alive}
        if len(set(map(_frozen, counts.values()))) > 1:
            problems.append(f"{object_id}: {len(alive)} surviving members "
                            f"did not converge")
    return problems


def _frozen(counts) -> tuple:
    return tuple(sorted(counts.as_dict().items()))


def check(run: SimRun) -> List[str]:
    """Every output check; an empty list means the run is correct."""
    d = run.deployment
    problems = check_levels(d) + check_drop_ledger(d)
    run.quiesce()
    problems += check_writes_applied(d) + check_no_write_lost(d)
    problems += check_drop_ledger(d)
    problems += check_convergence(run)
    problems += check_levels(d) + check_drop_ledger(d)
    return problems


def start(w: SimWorkload, seed: int) -> tuple:
    """Build ``SETUP_REPEATS`` times; returns (median build seconds, a run
    over the last build)."""
    times = []
    deployment = None
    for _ in range(SETUP_REPEATS):
        deployment = None  # free the previous build before timing the next
        started = time.perf_counter()
        deployment = build(w, seed)
        times.append(time.perf_counter() - started)
    run = SimRun(w=w, deployment=deployment,
                 plan=fault_plan(w, deployment.node_ids, seed))
    return statistics.median(times), run


def summarize(run: SimRun) -> Dict[str, object]:
    """End-to-end figures of the timed phase.  ``failed`` counts ops issued
    with every node down; a blocked write still pending after the checks
    fails too (the caller adds those)."""
    a, b = run.start, run.end
    ops = b.ops - a.ops
    delays = sorted(resolution_delays(run))
    q = statistics.quantiles(delays, n=10) if len(delays) >= 2 else [0.0] * 9
    drv = run.deployment.traffic
    return {
        "ops": ops,
        "failed": b.failed - a.failed,
        "writes_blocked": drv.writes_blocked,
        "write_retries": drv.write_retries,
        "client_failovers": drv.failovers,
        "ops_at_down_nodes": drv.skipped_down,
        "ops_per_s": ops_per_s(run),
        "ops_per_s_raw": ops_per_s(run, normalised=False),
        "probe_ratio": statistics.median(cpu / norm
                                         for _, cpu, norm in run.slices),
        "msgs_per_op": (b.sent - a.sent) / ops,
        "bytes_per_op": (b.bytes - a.bytes) / ops,
        "resolution_delay_p50_s": statistics.median(delays) if delays else 0.0,
        "resolution_delay_p90_s": q[8],
        "resolution_samples": len(delays),
        "slices": len(run.slices),
        "simulated_s": run.deployment.sim.now - run.measure_from,
        "cpu_s": sum(cpu for _, cpu, _ in run.slices),
    }
