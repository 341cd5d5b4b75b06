"""The benchmark's clients lose no op: blocked writes are retried until they
apply, clients of a crashed node fail over, and churn victims rotate."""

from __future__ import annotations

from repro.scenarios.plan import CRASH

from perfbench import simload
from perfbench.test_probe_hygiene import SMALL_SIM


def test_no_op_fails_under_churn_and_resolution():
    _, sim_run = simload.start(SMALL_SIM, seed=5)
    sim_run.warm_up()
    sim_run.measure(0.3)
    summary = simload.summarize(sim_run)
    assert simload.check(sim_run) == []
    driver = sim_run.deployment.traffic
    assert summary["failed"] == 0 and driver.skipped_down == 0
    # the paths under test ran: writes were blocked and clients moved
    assert driver.writes_blocked > 0
    assert driver.write_retries >= driver.writes_blocked
    assert driver.failovers > 0
    assert driver.writes_pending == 0


def test_churn_victims_take_turns():
    nodes = [f"n{i}" for i in range(SMALL_SIM.nodes)]
    plan = simload.fault_plan(SMALL_SIM, nodes, seed=5)
    victims = [a.node_id for a in plan.window(0.0, 200.0) if a.kind == CRASH]
    counts = [victims.count(n) for n in nodes]
    assert max(counts) - min(counts) <= 1
