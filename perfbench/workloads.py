"""Workload parameters.  Why each workload is in the set is recorded next
to its name in ``BENCHMARK.json``.

Every load comes from one process.  The three sim workloads are open-loop
in simulated time (independent clients on a fixed-rate Poisson schedule);
the live workload is open-loop in wall-clock time.  The seed given on the
command line generates every input: client schedules (through the
deployment's seeded random streams), fault plans and live write schedules.
No op fails: clients retry a write blocked by a resolution round until it
applies, and sim clients of a crashed node fail over to a live one
(:mod:`perfbench.clients`).

churn-resolve is lighter than the other sim workloads (10 ops/s per
client) and a member gives up on a silent initiator after 12 s rather than
the default 30 s: with 20 ops/s per client and 30 s blocks, writes queued
behind a stalled round and the log state they left behind moved the cost
per op, the peak RSS and the message counts by a tenth from seed to seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class SimWorkload:
    """One simulated deployment under open-loop client traffic."""

    name: str
    nodes: int
    objects: int
    clients: int
    rate_per_client: float          # ops per simulated second per client
    read_fraction: float
    zipf_skew: Optional[float]      # None = uniform popularity
    hint_level: float               # 0 = the controller never acts
    background_period: float        # simulated seconds between rounds
    truncate_every: float
    truncate_window: float
    loss_probability: float = 0.0
    #: seconds a member stays write-blocked with no install from the round's
    #: initiator (the program's default)
    member_block_timeout: float = 30.0
    #: crash rate (crashes per simulated second) of a seeded churn plan;
    #: 0 = no faults
    churn_rate: float = 0.0
    churn_downtime: float = 4.0
    churn_spare: int = 4
    #: untimed simulated warm-up: covers the first truncations and
    #: resolution rounds, so the timed phase sees the long-run regime
    warmup: float = 10.0
    #: simulated seconds per timed step; a whole multiple of the periodic
    #: activity so every step carries the same mix of work
    step: float = 2.0
    #: host probes per step: enough that each probe is next to well under
    #: a second of measured CPU time
    probes_per_step: int = 1

    kind = "sim"

    def params(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class LiveWorkload:
    """``repro.live`` nodes in one process over UNIX sockets."""

    name: str
    nodes: int
    objects: int
    write_rate: float               # aggregate writes per wall second
    #: every period each node truncates, then one resolution round per
    #: object is demanded (initiators rotate)
    period: float
    truncate_window: float
    #: seconds a node takes to answer an RPC: the sim deployments' default,
    #: so a round's delay is protocol timing plus the loop's CPU cost
    processing_delay: float = 0.035
    warmup: float = 2.0
    #: how long a write blocked by a resolution round waits before retrying
    retry_after: float = 0.002
    #: wall seconds allowed for the last writes to reach every peer
    drain_timeout: float = 10.0

    kind = "live"

    def params(self) -> Dict[str, object]:
        return asdict(self)


WORKLOADS: Dict[str, object] = {w.name: w for w in (
    SimWorkload(
        name="read-mostly",
        nodes=16, objects=4, clients=64, rate_per_client=40.0,
        read_fraction=0.9, zipf_skew=0.5, hint_level=0.0,
        background_period=2.0, truncate_every=2.0, truncate_window=5.0),
    SimWorkload(
        name="write-fanout",
        nodes=8, objects=64, clients=64, rate_per_client=20.0,
        read_fraction=0.5, zipf_skew=None, hint_level=0.0,
        background_period=5.0, truncate_every=5.0, truncate_window=5.0,
        step=5.0, probes_per_step=5),
    SimWorkload(
        name="churn-resolve",
        nodes=16, objects=4, clients=64, rate_per_client=10.0,
        read_fraction=0.7, zipf_skew=0.9, hint_level=0.8,
        background_period=2.0, truncate_every=2.0, truncate_window=5.0,
        loss_probability=0.005, member_block_timeout=12.0,
        churn_rate=0.5, warmup=24.0, step=8.0, probes_per_step=4),
    LiveWorkload(
        name="live-loopback",
        nodes=4, objects=2, write_rate=400.0, period=0.5,
        truncate_window=0.25),
)}
