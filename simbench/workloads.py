"""The benchmark's four workloads.

Each workload turns a seed into one *op* — a simulated point, or one
sweep of the four Figure 1 evaluators — split into a set-up phase and a
run phase, and reports the op's simulated outputs so they can be checked
against the values pinned per seed in ``pins.json``.  Every generated
input (arrival RNG streams, the fault schedule, the synthetic traces) is
derived from the seed; nothing else varies between ops of one seed.

Why these four, and what each one stresses, is in README.md.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.cpu import traces as cpu_traces
from repro.cpu.microarch import evaluate
from repro.cpu.microarch.branch import GSharePredictor, PerceptronPredictor
from repro.cpu.microarch.iprefetch import ISpyPrefetcher
from repro.cpu.microarch.prefetch import PythiaPrefetcher
from repro.dc import DcConfig
from repro.faults import FaultSchedule, ResilienceConfig, fault_inventory
from repro.hybrid import HybridConfig
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE
from repro.workloads.deathstar import social_network_app

#: Fault-schedule knobs for ``dc_faults``: an aggregate rate high enough
#: that every op sees about 200 faults, enough to drive timeouts, retries
#: and drops, and so that host time does not hinge on whether a seed
#: happened to draw one or two.
FAULT_RATE_PER_S = 10_000.0
FAULT_MTTR_NS = 1_000_000.0

#: Trace lengths of one ``microarch_fig1`` sweep (the quick suite uses
#: 120K/60K; these keep one four-evaluator cycle near three host seconds).
N_ACCESSES = 12_000
N_BRANCHES = 6_000


def _leaf_spine(link) -> bool:
    """A leaf->spine ICN link (inventory pairs are name-ordered)."""
    __, u, v = link
    return u.startswith("leaf") and v.startswith("spine")


class SimWorkload:
    """A cluster simulation point; one op builds and runs it afresh."""

    kind = "sim"
    unit = "roots/s"

    def __init__(self, name: str, rps: float, n_servers: int,
                 duration_s: float, **extra):
        self.name = name
        self.rps = rps
        self.n_servers = n_servers
        self.duration_s = duration_s
        self.extra = extra

    def build(self, seed: int) -> ClusterSimulation:
        """Set-up phase: construct the cluster (and arm faults)."""
        return ClusterSimulation(UMANYCORE, social_network_app("Text"),
                                 rps_per_server=self.rps,
                                 n_servers=self.n_servers,
                                 duration_s=self.duration_s, seed=seed,
                                 **self.extra)

    def run(self, sim: ClusterSimulation, timings: Optional[dict] = None):
        """Run phase: simulate the point to completion."""
        return sim.run()

    def work(self, result) -> int:
        """Root requests answered (completed + failed + rejected)."""
        return result.completed + result.failed + result.rejected

    def outputs(self, sim: ClusterSimulation, result) -> dict:
        """The simulated outputs pinned per seed."""
        s = result.summary
        out = {
            "offered": result.offered,
            "completed": result.completed,
            "failed": result.failed,
            "rejected": result.rejected,
            "latency": {"count": s.count, "mean_ns": s.mean, "p50_ns": s.p50,
                        "p99_ns": s.p99, "p999_ns": s.p999},
            "events_processed": sim.engine.events_processed,
        }
        if result.fault_stats is not None:
            out["faults"] = result.fault_stats
        if result.dc_stats is not None:
            dc = result.dc_stats
            out["dc"] = {"routed": dc["routed"], "proxied": dc["proxied"],
                         "answered": [e["answered"]
                                      for e in dc["per_server"]]}
        if result.hybrid_stats is not None:
            out["hybrid"] = {k: v for k, v in result.hybrid_stats.items()
                             if isinstance(v, (int, float, str))}
        return out

    def check(self, result) -> List[str]:
        """Seed-independent invariants of one op's outputs."""
        problems = []
        answered = self.work(result)
        if answered != result.offered:
            problems.append(f"{result.offered} roots offered but "
                            f"{answered} answered")
        if result.completed == 0:
            problems.append("no root completed")
        return problems


class FaultedDcWorkload(SimWorkload):
    """``dc_faults``: the dc tier under a seeded random fault schedule."""

    def build(self, seed: int) -> ClusterSimulation:
        sim = super().build(seed)
        inv = fault_inventory(sim.servers)
        schedule = FaultSchedule.random(
            seed=seed, duration_ns=self.duration_s * 1e9,
            villages=inv["villages"],
            links=[link for link in inv["links"] if _leaf_spine(link)],
            nics=inv["nics"], rate_per_s=FAULT_RATE_PER_S,
            mttr_ns=FAULT_MTTR_NS)
        sim.install_faults(schedule, ResilienceConfig(
            timeout_ns=2_500_000.0, max_retries=3,
            hedge_delay_ns=1_500_000.0))
        return sim


class HybridWorkload(SimWorkload):
    """``hybrid_long``: the analytic fast path over a long horizon."""

    def reference(self, seed: int) -> dict:
        """The detailed (hybrid off) run of the same point and seed — the
        slow reference ``p99_err_pct`` is measured against."""
        detailed = SimWorkload(self.name, self.rps, self.n_servers,
                               self.duration_s)
        s = detailed.build(seed).run().summary
        return {"count": s.count, "p99_ns": s.p99}


#: Figure 1 evaluator name -> (trace generator it draws from, trace
#: length, evaluator call on a pre-generated trace).  The calls mirror
#: ``repro.experiments.fig01_microarch.run`` argument for argument.
EVALUATORS = {
    "D-Prefetcher": ("data_address_trace", N_ACCESSES,
                     lambda p: evaluate.evaluate_data_prefetcher(
                         p, PythiaPrefetcher, None, n_accesses=N_ACCESSES)),
    "Branch Predictor": ("branch_trace", N_BRANCHES,
                         lambda p: evaluate.evaluate_branch_predictor(
                             p, GSharePredictor, PerceptronPredictor, None,
                             n_branches=N_BRANCHES)),
    "I-Prefetcher": ("instruction_address_trace", N_ACCESSES,
                     lambda p: evaluate.evaluate_instruction_prefetcher(
                         p, ISpyPrefetcher, None, n_accesses=N_ACCESSES)),
    "I-Cache Replace": ("instruction_address_trace", N_ACCESSES,
                        lambda p: evaluate.evaluate_icache_replacement(
                            p, None, n_accesses=N_ACCESSES)),
}

PROFILES = cpu_traces.MONO_PROFILES + cpu_traces.MICRO_PROFILES


class MicroarchWorkload:
    """``microarch_fig1``: one op is one cycle over the four evaluators.

    Set-up generates every trace of the cycle from the seed, in the draw
    order Figure 1 uses (a fresh ``default_rng(seed)`` per evaluator,
    monolith profiles first).  The run phase replays those traces through
    the evaluators, which are handed the pre-generated trace in place of
    their own generator call — the RNG feeds nothing else, so outputs
    equal ``fig01_microarch.run(N_ACCESSES, N_BRANCHES, seed)``.
    """

    kind = "microarch"
    unit = "records/s"
    name = "microarch_fig1"

    def build(self, seed: int) -> Dict[str, Dict[str, object]]:
        traces = {}
        for name, (generator, n, __) in EVALUATORS.items():
            rng = np.random.default_rng(seed)
            gen = getattr(cpu_traces, generator)
            traces[name] = {p.name: gen(p, n, rng) for p in PROFILES}
        return traces

    def sweep(self, name: str, traces) -> dict:
        """Run one evaluator over every profile on its replayed traces."""
        generator, __, call = EVALUATORS[name]
        served = traces[name]
        saved = getattr(evaluate, generator)
        setattr(evaluate, generator, lambda p, n, rng: served[p.name])
        try:
            results = [call(p) for p in PROFILES]
        finally:
            setattr(evaluate, generator, saved)
        n_mono = len(cpu_traces.MONO_PROFILES)
        return {"mono": evaluate.geometric_mean_speedup(results[:n_mono]),
                "micro": evaluate.geometric_mean_speedup(results[n_mono:]),
                "speedups": [r.speedup for r in results]}

    def run(self, traces, timings: Optional[dict] = None) -> dict:
        """Run phase: the four sweeps; ``timings`` gets each one's host
        seconds by evaluator name."""
        out = {}
        for name in EVALUATORS:
            start = time.perf_counter()
            out[name] = self.sweep(name, traces)
            if timings is not None:
                timings[name] = time.perf_counter() - start
        return out

    def work(self, outputs) -> int:
        """Trace records (accesses + branches) replayed in one cycle."""
        return len(PROFILES) * sum(spec[1] for spec in EVALUATORS.values())

    def outputs(self, traces, outputs) -> dict:
        return outputs

    def check(self, outputs) -> List[str]:
        return [f"{name}: non-finite geomean" for name, r in outputs.items()
                if not (np.isfinite(r["mono"]) and np.isfinite(r["micro"]))]

    def reference(self, seed: int) -> dict:
        """Figure 1 outputs through the experiment's own public path,
        which generates its traces inside the evaluators."""
        from repro.experiments.fig01_microarch import run

        geomeans = run(n_accesses=N_ACCESSES, n_branches=N_BRANCHES,
                       seed=seed)
        return {name: {"mono": g["mono"], "micro": g["micro"]}
                for name, g in geomeans.items()}


WORKLOADS = {
    w.name: w for w in (
        SimWorkload("umc_peak", rps=150_000.0, n_servers=1,
                    duration_s=0.012),
        FaultedDcWorkload("dc_faults", rps=20_000.0, n_servers=4,
                          duration_s=0.02,
                          dc=DcConfig(lb="p2c", replication=2)),
        HybridWorkload("hybrid_long", rps=100_000.0, n_servers=1,
                       duration_s=4.0, hybrid=HybridConfig()),
        MicroarchWorkload(),
    )
}
