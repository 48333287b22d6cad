"""Tests for the event-driven network contention model."""

import numpy as np
import pytest

from repro.icn import HierarchicalLeafSpine, Mesh2D, Network, NetworkConfig
from repro.sim import Engine


def line_topology(n=3):
    from repro.icn.topology import Topology

    t = Topology()
    for i in range(n - 1):
        t.add_link(f"n{i}", f"n{i+1}")
    return t


def test_single_message_latency_equals_hops_times_hop_time():
    eng = Engine()
    net = Network(eng, line_topology(4),
                  NetworkConfig(hop_cycles=5, freq_ghz=2.0, link_bytes_per_ns=1e9))
    done = []
    net.send("n0", "n3", 64, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(3 * 2.5)]


def test_serialization_adds_to_hop_time():
    eng = Engine()
    cfg = NetworkConfig(hop_cycles=5, freq_ghz=2.0, link_bytes_per_ns=128.0)
    net = Network(eng, line_topology(2), cfg)
    done = []
    net.send("n0", "n1", 1280, lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(2.5 + 10.0)]


def test_contention_queues_messages_on_shared_link():
    eng = Engine()
    net = Network(eng, line_topology(2),
                  NetworkConfig(hop_cycles=2, freq_ghz=1.0, link_bytes_per_ns=1e9))
    arrivals = []
    for __ in range(3):
        net.send("n0", "n1", 64, lambda: arrivals.append(eng.now))
    eng.run()
    assert arrivals == [pytest.approx(2.0), pytest.approx(4.0), pytest.approx(6.0)]


def test_no_contention_mode_is_pure_delay():
    eng = Engine()
    net = Network(eng, line_topology(2),
                  NetworkConfig(hop_cycles=2, freq_ghz=1.0,
                                link_bytes_per_ns=1e9, contention=False))
    arrivals = []
    for __ in range(3):
        net.send("n0", "n1", 64, lambda: arrivals.append(eng.now))
    eng.run()
    assert arrivals == [pytest.approx(2.0)] * 3


def test_self_message_delivered_immediately():
    eng = Engine()
    net = Network(eng, line_topology(2), NetworkConfig())
    done = []
    net.send("n0", "n0", 64, lambda: done.append(eng.now))
    eng.run()
    assert done == [0.0]


def test_network_stats():
    eng = Engine()
    net = Network(eng, line_topology(3), NetworkConfig())
    net.send("n0", "n2", 64, lambda: None)
    eng.run()
    assert net.messages_sent == 1
    assert net.hops_traversed == 2


def test_leafspine_suffers_less_contention_than_mesh():
    """The Figure 7 mechanism: same random traffic, same hop latency;
    ECMP spreads load while XY mesh concentrates it."""
    rng = np.random.default_rng(1)

    def run(topology, endpoints, use_rng):
        eng = Engine()
        net = Network(eng, topology, NetworkConfig(),
                      rng=np.random.default_rng(2) if use_rng else None)
        latencies = []
        pairs = [(endpoints[rng.integers(len(endpoints))],
                  endpoints[rng.integers(len(endpoints))]) for __ in range(400)]
        for i, (src, dst) in enumerate(pairs):
            t = i * 0.7  # aggressive injection
            eng.schedule_at(t, lambda s=src, d=dst, st=t: net.send(
                s, d, 256, lambda st=st: latencies.append(eng.now - st)))
        eng.run()
        return float(np.mean(latencies))

    mesh = Mesh2D(8, 4)
    mesh_eps = [mesh.tile(x, y) for x in range(8) for y in range(4)]
    ls = HierarchicalLeafSpine()
    ls_eps = [ls.leaf(i) for i in range(32)]
    assert run(ls, ls_eps, True) < run(mesh, mesh_eps, False)


def test_busiest_links_reporting():
    eng = Engine()
    net = Network(eng, line_topology(3), NetworkConfig())
    for __ in range(5):
        net.send("n0", "n2", 64, lambda: None)
    eng.run()
    top = net.busiest_links(top=1)
    assert top[0][1] == 5


# ------------------------------------------------------- degraded sends
# Sends launched while any link is failed route over fresh, liveness-
# checked paths; these pin that they behave exactly like healthy sends.


def small_leafspine():
    return HierarchicalLeafSpine(n_pods=1, leaves_per_pod=2,
                                 spines_per_pod=2, n_core=1)


def spur_topology():
    """n0 - n1 - n2 with a spur n1 - x, whose failure only switches the
    topology into degraded routing."""
    from repro.icn.topology import Topology

    t = Topology()
    t.add_link("n0", "n1")
    t.add_link("n1", "n2")
    t.add_link("n1", "x")
    return t


def test_degraded_leafspine_send_keeps_healthy_hops_and_latency():
    topo = small_leafspine()
    src, dst = topo.leaf_name(0, 0), topo.leaf_name(0, 1)
    topo.fail_link(src, topo.spine_name(0, 0))
    eng = Engine()
    cfg = NetworkConfig()
    net = Network(eng, topo, cfg, rng=np.random.default_rng(3))
    done = []
    net.send(src, dst, 64, lambda: done.append(eng.now))
    eng.run()
    hop_time = cfg.hop_latency_ns + cfg.serialization_ns(64)
    assert done == [2 * hop_time]
    assert net.hops_traversed == 2
    assert net.messages_sent == 1 and net.messages_dropped == 0
    assert (src, topo.spine_name(0, 1)) in net._links


def test_degraded_mesh_xy_send_drops_without_route():
    topo = Mesh2D(3, 1)
    topo.fail_link(topo.tile(0, 0), topo.tile(1, 0))
    eng = Engine()
    net = Network(eng, topo, NetworkConfig())
    delivered, dropped = [], []
    net.send(topo.tile(0, 0), topo.tile(2, 0), 64,
             lambda: delivered.append(eng.now),
             on_dropped=lambda: dropped.append(eng.now))
    eng.run()
    assert delivered == [] and dropped == [0.0]
    assert net.messages_dropped == 1 and net.messages_sent == 0


def test_degraded_send_drops_in_flight_when_next_link_fails():
    topo = spur_topology()
    topo.fail_link("n1", "x")
    eng = Engine()
    cfg = NetworkConfig()
    net = Network(eng, topo, cfg)
    delivered, dropped = [], []
    net.send("n0", "n2", 64, lambda: delivered.append(eng.now),
             on_dropped=lambda: dropped.append(eng.now))
    eng.schedule(1.0, topo.fail_link, "n1", "n2")
    eng.run()
    hop_time = cfg.hop_latency_ns + cfg.serialization_ns(64)
    assert delivered == [] and dropped == [hop_time]
    assert net.messages_sent == 1 and net.messages_dropped == 1


def test_degraded_send_emits_one_icn_hop_span():
    from repro.telemetry import Tracer

    topo = small_leafspine()
    src, dst = topo.leaf_name(0, 0), topo.leaf_name(0, 1)
    topo.fail_link(src, topo.spine_name(0, 0))
    eng = Engine()
    eng.probe = Tracer()
    net = Network(eng, topo, NetworkConfig(), rng=np.random.default_rng(3))
    net.send(src, dst, 64, lambda: None)
    eng.run()
    (span,) = [s for s in eng.probe.spans if s.category == "icn_hop"]
    assert span.name == f"{src}->{dst}" and span.attrs["hops"] == 2
    assert span.end_ns == eng.now


def test_degraded_sends_balance_the_sanitizer_ledger():
    from repro.check import CheckContext

    topo = spur_topology()
    topo.fail_link("n1", "x")
    eng = Engine()
    eng.probe = CheckContext(strict=True)
    net = Network(eng, topo, NetworkConfig())
    dropped = []
    net.send("n0", "n2", 64, lambda: None)
    eng.schedule(3.0, net.send, "n0", "n2", 64, lambda: None, None,
                 lambda: dropped.append(eng.now))
    eng.schedule(4.0, topo.fail_link, "n1", "n2")
    eng.run()
    assert eng.probe.finalize() == []
    (led,) = eng.probe._nets.values()
    assert (led.sends, led.delivers, led.inflight_drops) == (2, 1, 1)
    assert len(dropped) == 1 and net.messages_dropped == 1


def test_degraded_sends_do_not_grow_route_cache():
    topo = small_leafspine()
    src, dst = topo.leaf_name(0, 0), topo.leaf_name(0, 1)
    eng = Engine()
    net = Network(eng, topo, NetworkConfig(), rng=np.random.default_rng(3))
    net.send(src, dst, 64, lambda: None)
    eng.run()
    cached = len(net._routes)
    topo.fail_link(src, topo.spine_name(0, 0))
    for __ in range(50):
        net.send(src, dst, 64, lambda: None)
        net.send(dst, src, 64, lambda: None)
    eng.run()
    assert len(net._routes) == cached
    assert net.messages_sent == 101 and net.messages_dropped == 0
