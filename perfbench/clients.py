"""Clients that see no failed operation.

The program's :class:`~repro.workloads.driver.TrafficDriver` counts a write
blocked by a resolution round, and an op whose home node is down, as lost.
The benchmark's clients behave like real ones instead, so every op they
issue completes:

* a write blocked by a resolution round is resubmitted to the same object
  until it applies, :data:`RETRY_AFTER` simulated seconds later and then at
  doubling intervals up to :data:`RETRY_CAP` (the paper blocks updates
  during resolution; it does not drop them);
* a client whose home node is down sends to a live node drawn from the
  seeded stream, and goes back home once its home node is up again
  (checked every :data:`RETRY_CAP` seconds), so the clients' spread over the
  nodes does not drift with the run's length.

The driver's own issue path runs unchanged for every op; the extra work is
paid only on a blocked write or a crashed home node.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.workloads.driver import TrafficDriver

#: simulated seconds before a blocked write is first resubmitted, and the
#: longest wait between resubmissions: a round blocks writes for about 1 s,
#: longer when it waits out an RPC timeout
RETRY_AFTER = 0.2
RETRY_CAP = 1.6


class RetryingDriver(TrafficDriver):
    """A :class:`TrafficDriver` whose clients retry and fail over."""

    def __init__(self, deployment, populations, *, seed: int,
                 **kwargs) -> None:
        super().__init__(deployment, populations, **kwargs)
        self._rng = random.Random(seed)
        #: resubmissions of blocked writes, and blocked writes not yet applied
        self.write_retries = 0
        self.writes_pending = 0
        #: clients re-homed because their home node was down, and the home
        #: node of each client that is away
        self.failovers = 0
        self._away: Dict[str, str] = {}
        #: ``blocked_writes`` of each replica when last looked at: the one
        #: that moved is the replica a blocked write went to
        self._blocked_seen: Dict[int, int] = {}

    def _issue(self, stream) -> None:
        if not stream.node.alive:
            self._fail_over(stream)
        blocked = self.writes_blocked
        super()._issue(stream)
        if self.writes_blocked != blocked:
            self._retry_later(self._blocked_target(stream), RETRY_AFTER)
            self.writes_pending += 1

    def _blocked_target(self, stream):
        seen = self._blocked_seen
        for middleware in stream.middlewares:
            count = middleware.replica.blocked_writes
            if count != seen.get(id(middleware), 0):
                seen[id(middleware)] = count
                return middleware
        raise RuntimeError(f"blocked write of {stream.stream_id} has no "
                           f"blocked replica")

    def _retry_later(self, middleware, delay: float) -> None:
        self.deployment.sim.call_after(delay, self._retry,
                                       arg=(middleware, delay),
                                       label="client-retry")

    def _retry(self, pending) -> None:
        middleware, delay = pending
        if not middleware.node.alive:
            middleware = self.deployment.middleware(middleware.object_id,
                                                    self._live_node())
        self.write_retries += 1
        if middleware.write(metadata_delta=1.0) is None:
            self._blocked_seen[id(middleware)] = (
                middleware.replica.blocked_writes)
            self._retry_later(middleware, min(2 * delay, RETRY_CAP))
            return
        self.writes_applied += 1
        self.writes_pending -= 1

    def _live_node(self) -> str:
        nodes = self.deployment.nodes
        alive = [n for n in self.deployment.node_ids if nodes[n].alive]
        return alive[self._rng.randrange(len(alive))]

    def _fail_over(self, stream) -> None:
        if stream.stream_id not in self._away:
            self._away[stream.stream_id] = stream.node_id
            self._go_home_later(stream)
        self._bind(stream, self._live_node())
        self.failovers += 1

    def _go_home_later(self, stream) -> None:
        self.deployment.sim.call_after(RETRY_CAP, self._go_home,
                                       arg=stream, label="client-home")

    def _go_home(self, stream) -> None:
        home = self._away[stream.stream_id]
        if not self.deployment.nodes[home].alive:
            self._go_home_later(stream)
            return
        del self._away[stream.stream_id]
        self._bind(stream, home)

    def _bind(self, stream, node_id: str) -> None:
        stream.node_id = node_id
        stream.node = self.deployment.nodes[node_id]
        stream.middlewares = [self.deployment.middleware(object_id, node_id)
                              for object_id in self.object_ids]
