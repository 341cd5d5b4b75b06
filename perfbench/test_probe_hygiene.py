"""Probe hygiene: the untraced run adds no probe, the traced run cleans up.

The end-to-end metrics are only comparable across changes if the untraced
run costs what an uninstrumented deployment costs: no per-op bus
subscription (``DetectionEvaluated``, ``ClientOpCompleted``) and no
``collect_metrics``.  The traced run patches every layer boundary and must
restore each patched attribute exactly.
"""

from __future__ import annotations

import dataclasses

from perfbench import liveload, run, simload
from perfbench.spans import patch_points
from perfbench.workloads import WORKLOADS

#: small variants: the same code paths in well under a second each
SMALL_SIM = dataclasses.replace(WORKLOADS["churn-resolve"], nodes=6,
                                clients=12, warmup=3.0, churn_spare=2)
SMALL_LIVE = dataclasses.replace(WORKLOADS["live-loopback"], write_rate=100.0,
                                 warmup=0.3, period=0.3)


def test_untraced_sim_run_leaves_bus_as_built():
    _, sim_run = simload.start(SMALL_SIM, seed=3)
    d = sim_run.deployment
    built = d.bus.subscriptions()
    sim_run.warm_up()
    sim_run.measure(0.2)
    simload.summarize(sim_run)
    assert simload.check(sim_run) == []
    assert d.bus.subscriptions() == built
    assert d.traffic.metrics is None


def test_untraced_live_run_leaves_buses_as_built(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    built = {}

    class Probe(liveload.LiveSession):
        async def setup(self):
            await super().setup()
            built.update({n: s.runtime.bus.subscriptions()
                          for n, s in self.stacks.items()})

    monkeypatch.setattr(liveload, "LiveSession", Probe)
    live = liveload.session(SMALL_LIVE, seed=3, seconds=0.3)
    assert live.check() == []
    assert {n: s.runtime.bus.subscriptions()
            for n, s in live.stacks.items()} == built
    assert list(tmp_path.iterdir()) == []  # socket directory removed


def test_traced_run_restores_every_patch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = [(owner, attr, vars(owner).get(attr))
              for _, owner, attr, _ in patch_points()]
    report = {"workload": "small", "seed": 3}
    problems, ops, _, metrics = run.run_sim(SMALL_SIM, 3, 0.4, True, report)
    assert problems == [] and ops > 0
    # the recorder saw every layer the sim workload runs through
    assert metrics["core.middleware.read.self_us_per_op"] > 0
    assert metrics["sim.engine.events_per_op"] > 0
    assert metrics["live.wire.frames"] == 0
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr}"
