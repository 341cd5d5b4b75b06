"""Batched latency draws are draw-for-draw identical to sequential ones.

``Network.send_many`` takes one ``LatencyModel.delays(src, dsts)`` call per
fan-out.  For every model that must return exactly ``[delay(src, d) for d in
dsts]`` and leave each RNG stream in the state the per-destination loop
would, so a batched broadcast replays every committed trace unchanged.
Each case builds two twin-seeded models, samples one batched and one
sequentially, and compares the delays, the stream states, and one further
draw from each stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.latency import (
    FixedLatencyModel,
    HeterogeneousLatencyModel,
    LinkProfile,
    PerSourceLatencyModel,
    PlanetLabLatencyModel,
    UniformLatencyModel,
)
from repro.sim.random import RandomStreams
from repro.sim.topology import planetlab_topology

TOPOLOGY = planetlab_topology(16)
NODES = list(TOPOLOGY.node_ids)
SRC = NODES[0]


def _uniform(seed):
    rng = np.random.default_rng(seed)
    return UniformLatencyModel(0.01, 0.05, rng=rng), [rng]


def _fixed(seed):
    return FixedLatencyModel(0.02), []


def _planetlab(seed, sigma=0.25):
    rng = np.random.default_rng(seed)
    return PlanetLabLatencyModel(TOPOLOGY, rng, jitter_sigma=sigma), [rng]


def _per_source(seed, sigma=0.25):
    streams = RandomStreams(seed)
    model = PerSourceLatencyModel(TOPOLOGY, streams, jitter_sigma=sigma)
    return model, [streams.stream(f"{model.STREAM_PREFIX}.{node}")
                   for node in NODES]


def _heterogeneous(seed, sigma=0.25):
    streams = RandomStreams(seed)
    sites = sorted(set(TOPOLOGY.node_site.values()))
    links = {(sites[0], sites[1]): LinkProfile(latency_scale=2.0,
                                               jitter_sigma=0.6),
             (sites[1], sites[2]): LinkProfile(latency=0.08, jitter_sigma=0.0)}
    model = HeterogeneousLatencyModel(TOPOLOGY, links, streams=streams,
                                      jitter_sigma=sigma)
    return model, [streams.stream(model.STREAM_NAME)]


FACTORIES = {
    "uniform": _uniform,
    "fixed": _fixed,
    "planetlab": _planetlab,
    "planetlab-sigma0": lambda seed: _planetlab(seed, sigma=0.0),
    "per-source": _per_source,
    "per-source-sigma0": lambda seed: _per_source(seed, sigma=0.0),
    # wide jitter, so the min_jitter clamp binds on a good share of draws
    "per-source-sigma1": lambda seed: _per_source(seed, sigma=1.0),
    "heterogeneous": _heterogeneous,
    "heterogeneous-sigma0": lambda seed: _heterogeneous(seed, sigma=0.0),
}

FANOUTS = {
    "n1": [NODES[1]],
    "n7": NODES[1:8],
    "n15": NODES[1:16],
    "self-in-dsts": [NODES[3], SRC, NODES[5], NODES[9]],
    "repeated-dst": [NODES[2], NODES[2], NODES[4]],
}


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


@pytest.mark.parametrize("fanout", sorted(FANOUTS))
@pytest.mark.parametrize("model_name", sorted(FACTORIES))
def test_delays_equal_sequential_delay_calls(model_name, fanout):
    dsts = FANOUTS[fanout]
    batched, batched_rngs = FACTORIES[model_name](11)
    looped, looped_rngs = FACTORIES[model_name](11)
    for _ in range(3):  # repeated fan-outs keep consuming in lock-step
        got = batched.delays(SRC, dsts)
        want = [looped.delay(SRC, dst) for dst in dsts]
        assert got == want
        assert all(type(value) is float for value in got)
        assert _states(batched_rngs) == _states(looped_rngs)
    assert ([rng.random() for rng in batched_rngs]
            == [rng.random() for rng in looped_rngs])


def test_empty_fanout_draws_nothing():
    model, rngs = _planetlab(3)
    before = _states(rngs)
    assert model.delays(SRC, []) == []
    assert _states(rngs) == before


@pytest.mark.parametrize("n", [1, 2, 7, 15])
def test_generator_size_n_draw_matches_scalar_draws(n):
    """The numpy property the batched models rely on, checked directly."""
    batched = np.random.default_rng(42)
    looped = np.random.default_rng(42)
    values = batched.lognormal(-0.03125, 0.25, size=n).tolist()
    assert values == [float(looped.lognormal(-0.03125, 0.25))
                      for _ in range(n)]
    assert batched.bit_generator.state == looped.bit_generator.state
