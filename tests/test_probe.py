"""Tests for the engine's probe slot (repro.sim.probe) and its two
subscribers, the span tracer and the invariant sanitizer."""

import inspect
from collections import Counter
from dataclasses import replace
from unittest.mock import Mock

import pytest

from repro.check import CheckContext
from repro.faults import FaultSchedule
from repro.hybrid import HybridConfig
from repro.sim.engine import Engine
from repro.sim.probe import NULL_PROBE, Probe, Probes
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE
from repro.telemetry import Tracer, chrome_trace
from repro.workloads.deathstar import social_network_app

HOOKS = sorted(name for name, fn in vars(Probe).items()
               if callable(fn) and not name.startswith("_")
               and name != "spanning")


# ---------------------------------------------------------------- unit level

def test_null_probe_is_disabled_and_every_hook_is_a_noop():
    assert Engine().probe is NULL_PROBE
    assert NULL_PROBE.enabled is False
    for name in HOOKS:
        hook = getattr(NULL_PROBE, name)
        params = inspect.signature(hook).parameters.values()
        n_args = sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
                     for p in params)
        assert hook(*[Mock()] * n_args) is None, name


def test_probes_fans_every_hook_out_in_subscriber_order():
    calls = Mock()
    probes = Probes(calls.first, calls.second)
    assert probes.enabled
    for name in HOOKS:
        calls.reset_mock()
        getattr(probes, name)(1, 2, key=3)
        assert [c[0] for c in calls.mock_calls] == \
            [f"first.{name}", f"second.{name}"]
        assert all(c[1:] == ((1, 2), {"key": 3}) for c in calls.mock_calls)


def test_spanning_reports_the_interval_until_done_fires():
    eng = Engine()
    tracer = Tracer()
    fired = []
    done = tracer.spanning(eng, lambda: fired.append(eng.now), "fabric",
                           "s0->s1", track="fabric", bytes=64)
    eng.schedule(10.0, done)
    eng.run()
    (span,) = tracer.spans
    assert (span.category, span.name, span.track) == \
        ("fabric", "s0->s1", "fabric")
    assert (span.start_ns, span.end_ns) == (0.0, 10.0)
    assert span.attrs == {"bytes": 64}
    assert fired == [10.0]


def test_probes_spanning_reaches_every_subscriber():
    eng = Engine()
    a, b = Tracer(), Tracer()
    eng.schedule(5.0, Probes(a, b).spanning(eng, lambda: None, "icn_hop",
                                            "x", hops=2))
    eng.run()
    assert [s.as_dict() for s in a.spans] == [s.as_dict() for s in b.spans]
    assert a.spans[0].duration_ns == 5.0


# ------------------------------------------------------------- whole-system

POLICY = replace(UMANYCORE, n_cores=32, n_clusters=4, dispatch="least",
                 rq_policy="sjf", work_steal=True, steal_policy="maxload",
                 core_bypass=True)


def _policy_run(tracer=None, check=None):
    """Core bypass, maxload stealing, SJF, rejections and faults in one
    small run: every root village fails for 0.4 ms, so external
    requests are rejected while the health checker has them marked down."""
    sim = ClusterSimulation(POLICY, social_network_app("Text"),
                            rps_per_server=40_000.0, n_servers=1,
                            duration_s=0.003, seed=3, tracer=tracer,
                            check=check)
    faults = FaultSchedule(detection_ns=50_000.0)
    for v in sim.servers[0].top_nic.villages_for(sim.app.root):
        faults.fail_village(0, v, 1.0e6, 1.4e6)
    sim.install_faults(faults)
    return sim.run()


def _untraced(result):
    d = result.as_dict()
    d.pop("breakdown", None)        # only traced runs carry one
    return d


def test_subscribers_see_the_same_run_alone_and_together():
    plain = _policy_run()
    assert plain.rejected > 0
    assert plain.sched_stats["steals"] > 0
    assert plain.sched_stats["bypasses"] > 0
    assert plain.fault_stats["injected"]["injected"] > 0

    tracer_only = Tracer()
    traced = _policy_run(tracer=tracer_only)
    check_only = CheckContext(strict=False)
    checked = _policy_run(check=check_only)
    tracer_both, check_both = Tracer(), CheckContext(strict=False)
    both = _policy_run(tracer=tracer_both, check=check_both)

    spans = Counter(s.category for s in tracer_only.spans)
    assert spans["steal"] == plain.sched_stats["steals"]
    assert spans["core_bypass"] == plain.sched_stats["bypasses"]
    assert chrome_trace(tracer_both) == chrome_trace(tracer_only)
    assert [s.as_dict() for s in tracer_both.spans] == \
        [s.as_dict() for s in tracer_only.spans]
    assert check_both.stats.as_dict() == check_only.stats.as_dict()
    assert [str(v) for v in check_both.violations] == \
        [str(v) for v in check_only.violations] == []
    assert check_only.stats.checks > 1000

    assert both.as_dict() == traced.as_dict()
    assert _untraced(traced) == _untraced(checked) == _untraced(both) \
        == plain.as_dict()


def test_every_rejection_closes_one_rejected_request_span():
    tracer = Tracer()
    result = _policy_run(tracer=tracer)
    rejected = [s for s in tracer.request_spans()
                if s.attrs.get("rejected")]
    assert len(rejected) == result.rejected > 0


# ----------------------------------------------- hybrid + SJF segment taps

#: ``as_dict()`` of a hybrid run over SJF queues, where both segment taps
#: (the SJF service-time estimator, then the hybrid controller) are live.
#: The load queues work, so SJF order (fed by the first tap) matters.
HYBRID_SJF_PIN = {
    'app': 'Text',
    'completed': 81,
    'duration_s': 0.004,
    'hybrid': {'abort_log': [],
               'aborts': 0,
               'calls_elided': 38,
               'commits': 3,
               'committed_at_ns': 3300000.0,
               'events_elided': 2425,
               'mgk': {'rate_rps': 24444.44444444444,
                       'saturation_rps': 105834.10504034926,
                       'servers': 32,
                       'service_ns': 302360.0,
                       'utilization': 0.23096944444444442},
               'models': {'text': {'mean_ns': 1637024.2437872572,
                                   'p99_ns': 1883763.547473278,
                                   'samples': 11},
                          'urlshorten': {'mean_ns': 1192771.4150950876,
                                         'p99_ns': 1615425.05987958,
                                         'samples': 13},
                          'usermention': {'mean_ns': 345518.40373849653,
                                          'p99_ns': 445203.4426573777,
                                          'samples': 11}},
               'roots_elided': 13,
               'services_committed': ['text', 'urlshorten', 'usermention'],
               'state': 'committed',
               'tol': 0.5,
               'window_ns': 300000.0,
               'windows_seen': 8},
    'latency_ns': {'count': 79,
                   'max': 2316390.2684126403,
                   'mean': 1654163.6545612812,
                   'p50': 1667995.3481051154,
                   'p99': 2236190.299130207,
                   'p999': 2308370.2714843983},
    'n_servers': 1,
    'offered': 81,
    'rejected': 0,
    'rps_per_server': 22000,
    'sched': {'bypasses': 0,
              'core_bypass': False,
              'dispatch': 'rr',
              'rq_policy': 'sjf',
              'steal_policy': 'off',
              'steals': 0},
    'system': 'uManycore',
    'tail_to_average': 1.35185553918079,
    'throughput_rps': 20250.0}


def _hybrid_sjf_sim(check=None):
    config = replace(UMANYCORE, n_cores=32, n_clusters=4, rq_policy="sjf")
    hybrid = HybridConfig(tol=0.5, windows=3, min_samples=5,
                          window_ns=300_000.0, calibration_roots=10)
    return ClusterSimulation(config, social_network_app("Text"),
                             rps_per_server=22_000, n_servers=1,
                             duration_s=0.004, seed=7, hybrid=hybrid,
                             check=check)


@pytest.mark.parametrize("check", [False, True])
def test_hybrid_over_sjf_matches_its_pinned_result(check):
    sim = _hybrid_sjf_sim(CheckContext() if check else None)
    assert sim.run().as_dict() == HYBRID_SJF_PIN


def test_hybrid_tap_chains_after_the_sjf_estimator():
    sim = _hybrid_sjf_sim()
    village = sim.servers[0].villages[0]
    estimator = village.observe_segment.__self__
    sim.hybrid.install()
    village.observe_segment("text", 123.0)
    assert estimator._estimate_ns == {"text": 123.0}
    assert (sim.hybrid._seg_count, sim.hybrid._seg_sum) == (1, 123.0)
