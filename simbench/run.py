#!/usr/bin/env python3
"""Simulator benchmark: how much simulated work the ``repro`` simulator
delivers per host second, per workload, end to end and layer by layer.

One invocation measures one workload in its own process::

    python3 simbench/run.py --workload umc_peak --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` is the traced run, which reports the per-layer ledger (see
``ledger.py``).  Either way every op's simulated outputs are checked:
against the run's first op (determinism), against seed-independent
invariants, and against ``pins.json`` when the seed is pinned.  The last
line of standard output is one JSON object with ``correct``,
``attempted`` (ops), ``failed`` (ops failed) and ``metrics``.

Other modes::

    python3 simbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 simbench/run.py --regen-pins     # slow: re-pins every output

``--all`` runs every workload, each in its own process.  README.md
documents the workloads, the metrics and how to read a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.json"

#: Seeds whose outputs are pinned: the default seed, and a held-out one
#: that was not looked at while the benchmark was tuned.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: An op count below this cannot check determinism across ops.
MIN_OPS = 2

END_TO_END = {"work_per_s": "1/s", "wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

PER_LAYER = {
    "sim.self_s": "s", "sim.events": "count", "sim.events_per_root": "count",
    "sim.events_per_s": "1/s", "sim.schedule_calls": "count",
    "sim.cancelled": "count",
    "icn.self_s": "s", "icn.events": "count", "icn.messages": "count",
    "icn.hops": "count", "icn.hop_wait_ns": "ns", "icn.dropped": "count",
    "net.self_s": "s", "net.events": "count", "net.nic_ops": "count",
    "net.fabric_msgs": "count", "net.storage_ops": "count",
    "net.port_wait_ns": "ns", "net.dropped": "count",
    "core.self_s": "s", "core.events": "count", "core.submits": "count",
    "core.rq_rejects": "count", "core.context_switches": "count",
    "sched.self_s": "s", "sched.dispatches": "count",
    "systems.self_s": "s", "systems.events": "count",
    "systems.roots": "count", "systems.rpcs": "count",
    "dc.self_s": "s", "dc.events": "count", "dc.routes": "count",
    "dc.proxied": "count",
    "faults.self_s": "s", "faults.events": "count",
    "faults.timeouts": "count", "faults.retries": "count",
    "faults.hedges": "count", "faults.useful_ratio": "ratio",
    "hybrid.self_s": "s", "hybrid.events": "count",
    "hybrid.roots_elided": "count", "hybrid.events_elided": "count",
    "hybrid.elided_ratio": "ratio", "hybrid.commits": "count",
    "hybrid.aborts": "count",
    "workloads.arrivals": "count", "workloads.generate_s": "s",
    "metrics.records": "count", "metrics.self_s": "s",
    "cpu.trace_gen_s": "s", "cpu.model_s": "s", "cpu.records": "count",
    "cpu.dprefetch_s": "s", "cpu.branch_s": "s", "cpu.iprefetch_s": "s",
    "cpu.icache_s": "s",
    "trace.overhead": "ratio", "trace.unattributed_s": "s",
}

#: Self time of each layer, under the metric name that carries it.
SELF_TIME = {"sim": "sim.self_s", "icn": "icn.self_s", "net": "net.self_s",
             "core": "core.self_s", "sched": "sched.self_s",
             "systems": "systems.self_s", "dc": "dc.self_s",
             "faults": "faults.self_s", "hybrid": "hybrid.self_s",
             "workloads": "workloads.generate_s",
             "metrics": "metrics.self_s", "cpu": "cpu.model_s"}

EVALUATOR_METRICS = {"D-Prefetcher": "cpu.dprefetch_s",
                     "Branch Predictor": "cpu.branch_s",
                     "I-Prefetcher": "cpu.iprefetch_s",
                     "I-Cache Replace": "cpu.icache_s"}

#: Summed self time plus unattributed time must match the traced wall
#: within this share of it.
TIME_TOLERANCE = 0.01


def canonical(value):
    """JSON round trip, so live outputs compare equal to pinned ones."""
    return json.loads(json.dumps(value))


def first_difference(got, want, path="") -> str:
    """Path and values of the first place two output trees differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return first_difference(got.get(key), want.get(key),
                                        f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list) \
            and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return first_difference(g, w, f"{path}[{i}]")
    return f"{path or '.'}: got {got!r}, want {want!r}"


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Op:
    """One op: set-up, run, outputs and the problems found in them.  With
    a ``ledger`` the run phase is traced into it."""

    def __init__(self, wl, seed: int, ledger=None):
        gc.collect()
        clock = time.perf_counter
        start = clock()
        self.state = wl.build(seed)
        built = clock()
        self.timings = {}
        if ledger is not None:
            ledger.reset()
        self.result = wl.run(self.state, self.timings)
        if ledger is not None:
            ledger.close()
        done = clock()
        self.setup_s = built - start
        self.wall_s = done - built
        self.work = wl.work(self.result)
        self.outputs = canonical(wl.outputs(self.state, self.result))
        self.problems = wl.check(self.result)


class Checker:
    """Counts ops and failed ops; an op fails if it raised or any of its
    outputs differs from the pins, from the reference op, or breaks an
    invariant."""

    def __init__(self, wl, seed: int):
        self.pinned = load_pins()["outputs"][wl.name].get(str(seed))
        self.reference = None
        self.ops = 0
        self.failed = 0

    def attempt(self, make_op):
        self.ops += 1
        try:
            op = make_op()
        except Exception:                 # one bad op must not end the run
            self.failed += 1
            print(f"  op {self.ops} raised:")
            traceback.print_exc(file=sys.stdout)
            return None
        problems = list(op.problems)
        if self.reference is None:
            self.reference = op.outputs
        elif op.outputs != self.reference:
            problems.append("differs from the first op: " + first_difference(
                op.outputs, self.reference))
        if self.pinned is not None and op.outputs != self.pinned:
            problems.append("differs from pins.json: " + first_difference(
                op.outputs, self.pinned))
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"  op {self.ops} failed: {problem}")
        return op


def honest(name: str, q: float, value_ns: float, count: int) -> str:
    """A percentile with its tail sample count; withheld below 10."""
    beyond = int(count * (1.0 - q))
    if beyond < 10:
        return f"{name} withheld ({beyond} samples beyond, need 10)"
    return f"{name} {value_ns / 1e3:.1f} us ({beyond} beyond)"


def describe_outputs(wl, outputs: dict, seed: int) -> None:
    if wl.kind != "sim":
        for name, r in outputs.items():
            print(f"  {name:17s} geomean speedup mono {r['mono']:.4f}  "
                  f"micro {r['micro']:.4f}")
        return
    lat = outputs["latency"]
    n = lat["count"]
    print(f"  roots: offered {outputs['offered']}, completed "
          f"{outputs['completed']}, failed {outputs['failed']}, rejected "
          f"{outputs['rejected']}; {outputs['events_processed']} events")
    print(f"  latency after warm-up, n={n}: mean {lat['mean_ns'] / 1e3:.1f} us"
          f", {honest('p50', 0.5, lat['p50_ns'], n)}"
          f", {honest('p99', 0.99, lat['p99_ns'], n)}"
          f", {honest('p999', 0.999, lat['p999_ns'], n)}")
    if wl.name != "hybrid_long":
        return
    reference = load_pins()["hybrid_reference"].get(str(seed))
    if reference is None:
        print(f"  p99_err_pct n/a: no detailed reference pinned for seed "
              f"{seed} (pinned: {DEFAULT_SEED}, {HELD_OUT_SEED})")
        return
    err = abs(lat["p99_ns"] - reference["p99_ns"]) / reference["p99_ns"]
    print(f"  p99_err_pct {err * 100.0:.3f} %  (hybrid p99 vs detailed p99 "
          f"{reference['p99_ns'] / 1e3:.1f} us, n={reference['count']})")


def measure(wl, seed: int, seconds: float):
    """Untraced ops until ``seconds`` have passed; end-to-end metrics."""
    checker = Checker(wl, seed)
    samples = []       # (work, run host s, set-up host s, probe s) per op
    outputs = rss = None
    deadline = time.perf_counter() + seconds
    before = calibration.probe()
    while checker.ops < MIN_OPS or time.perf_counter() < deadline:
        op = checker.attempt(lambda: Op(wl, seed))
        sample = None
        if op is not None:
            sample = (op.work, op.wall_s, op.setup_s)
            outputs = op.outputs
            if rss is None:
                # A user's process runs one point; later ops would only
                # add allocator growth that depends on the op count.
                rss = peak_rss_mb()
        op = None      # free the simulation before probing
        gc.collect()
        after = calibration.probe()
        if sample is not None:
            # The probes on either side of the op gauge the host's speed
            # while it ran (see calibration.py).
            samples.append(sample + ((before + after) / 2,))
        before = after
    if outputs is None:
        return checker, None, None
    works, walls, setups, probes = zip(*samples)
    scales = [calibration.REFERENCE_S / probe for probe in probes]
    median = statistics.median
    metrics = {
        "work_per_s": median(w / (t * k)
                             for w, t, k in zip(works, walls, scales)),
        "wall_s": median(t * k for t, k in zip(walls, scales)),
        "setup_s": median(u * k for u, k in zip(setups, scales)),
        "peak_rss_mb": rss,
    }
    print(f"simbench {wl.name} seed={seed} trace=0: {checker.ops} ops, "
          f"{checker.failed} failed"
          + (" (pinned seed)" if checker.pinned is not None else ""))
    print(f"  {wl.unit.replace('/s', '_per_s'):14s}{metrics['work_per_s']:14.2f}"
          f" {wl.unit}  (work_per_s, median of {len(samples)} ops)")
    print(f"  {'wall_s':14s}{metrics['wall_s']:14.4f} s  (run phase per op)")
    print(f"  {'setup_s':14s}{metrics['setup_s']:14.5f} s  "
          f"(median of {len(samples)} set-ups)")
    print(f"  {'peak_rss_mb':14s}{metrics['peak_rss_mb']:14.1f} MiB  "
          f"(after the first op)")
    print(f"  times above are reference seconds; in host seconds: probe "
          f"{median(probes):.3f} (reference {calibration.REFERENCE_S}), "
          f"work_per_s {median(w / t for w, t in zip(works, walls)):.2f}, "
          f"wall_s {median(walls):.4f}, setup_s {median(setups):.5f}")
    print(f"  ops {checker.ops}  ops_failed {checker.failed}")
    describe_outputs(wl, outputs, seed)
    return checker, metrics, END_TO_END


def sim_counters(ledger, op, untraced_wall: float) -> dict:
    """Per-layer counters of one traced simulation op, read from the
    simulation objects and the ledger."""
    sim, result = op.state, op.result
    servers = sim.servers
    villages = [v for s in servers for v in s.villages]
    domains = {id(v.scheduler): v.scheduler for v in villages}
    nets = [s.network for s in servers]
    events = sim.engine.events_processed
    roots = op.work
    hybrid = result.hybrid_stats or {}
    resilient = any(s.resilience is not None for s in servers)
    useful = ledger.useful if resilient else ledger.rpcs
    return {
        "sim.events": events,
        "sim.events_per_root": events / roots,
        "sim.events_per_s": events / untraced_wall,
        "sim.schedule_calls": ledger.schedule_calls,
        "sim.cancelled": ledger.scheduled - events,
        "icn.messages": sum(n.messages_sent for n in nets),
        "icn.hops": sum(n.hops_traversed for n in nets),
        "icn.hop_wait_ns": ledger.resource_wait_ns("icn"),
        "icn.dropped": sum(n.messages_dropped for n in nets),
        "net.nic_ops": ledger.resource_jobs(".port"),
        "net.fabric_msgs": sim.fabric.messages,
        "net.storage_ops": sim.storage.accesses,
        "net.port_wait_ns": ledger.resource_wait_ns("net"),
        "net.dropped": sum(n.dropped for s in servers
                           for n in s.lnics + s.rnics),
        "core.submits": sum(v.rq.enqueued for v in villages),
        "core.rq_rejects": sum(v.rq.rejected for v in villages),
        "core.context_switches": sum(d.switches for d in domains.values()),
        "sched.dispatches": sum(s.top_nic.dispatched for s in servers),
        "systems.roots": roots,
        "systems.rpcs": ledger.rpcs,
        "dc.routes": sum(sim.lb.routed) if sim.lb is not None else 0,
        "dc.proxied": sum(s.rpc_proxied for s in servers),
        "faults.timeouts": sum(s.rpc_timeouts for s in servers),
        "faults.retries": sum(s.rpc_retries for s in servers),
        "faults.hedges": sum(s.rpc_hedges for s in servers),
        "faults.useful_ratio": useful / ledger.rpcs if ledger.rpcs else 1.0,
        "hybrid.roots_elided": hybrid.get("roots_elided", 0),
        "hybrid.events_elided": sim.engine.events_elided,
        "hybrid.elided_ratio": hybrid.get("roots_elided", 0) / roots,
        "hybrid.commits": hybrid.get("commits", 0),
        "hybrid.aborts": hybrid.get("aborts", 0),
        "workloads.arrivals": result.offered,
        "metrics.records": len(sim.recorder) + sum(
            len(r) for r in sim.server_recorders or ()),
    }


def attribution_problems(ledger, wall: float, engine_events: int) -> list:
    """The traced run's own checks: every event owned by exactly one
    layer, and the ledger's times adding up to the traced wall."""
    problems = []
    events = dict(ledger.events)
    if events.get(None):
        problems.append(f"{events[None]} events owned by no layer")
    unlisted = {layer: n for layer, n in events.items()
                if layer is not None and f"{layer}.events" not in PER_LAYER}
    if any(unlisted.values()):
        problems.append(f"events of layers without an events metric: "
                        f"{unlisted}")
    if sum(events.values()) != engine_events:
        problems.append(f"layers own {sum(events.values())} events, the "
                        f"engine processed {engine_events}")
    total = sum(ledger.self_s.values()) + ledger.unattributed_s
    if abs(total - wall) > TIME_TOLERANCE * wall:
        problems.append(f"self times + unattributed = {total:.4f} s, "
                        f"traced wall = {wall:.4f} s")
    return problems


def traced(wl, seed: int, seconds: float):
    """The traced run: one untraced op for the baseline, then traced ops
    until ``seconds`` have passed; per-layer metrics averaged per op."""
    from ledger import LAYERS, Ledger, install

    checker = Checker(wl, seed)
    untraced = checker.attempt(lambda: Op(wl, seed))
    if untraced is None:
        return checker, None, None
    untraced_wall = untraced.wall_s
    untraced = None
    ledger = Ledger()
    install(ledger)

    def traced_op() -> Op:
        op = Op(wl, seed, ledger)
        metrics = {f"{layer}.events": ledger.events[layer]
                   for layer in LAYERS if f"{layer}.events" in PER_LAYER}
        for layer, name in SELF_TIME.items():
            metrics[name] = ledger.self_s.get(layer, 0.0)
        metrics["trace.unattributed_s"] = ledger.unattributed_s \
            + ledger.self_s.get(None, 0.0)
        metrics["trace.overhead"] = op.wall_s / untraced_wall
        engine_events = 0
        if wl.kind == "sim":
            metrics.update(sim_counters(ledger, op, untraced_wall))
            engine_events = op.state.engine.events_processed
        else:
            metrics["cpu.trace_gen_s"] = op.setup_s
            metrics["cpu.records"] = op.work
            for name, metric in EVALUATOR_METRICS.items():
                metrics[metric] = op.timings[name]
        op.problems += attribution_problems(ledger, op.wall_s, engine_events)
        op.metrics = metrics
        return op

    ledgers = []
    deadline = time.perf_counter() + seconds
    while checker.ops < MIN_OPS or time.perf_counter() < deadline:
        op = checker.attempt(traced_op)
        if op is not None:
            ledgers.append(op.metrics)
        op = None
    if not ledgers:
        return checker, None, None
    per_op = {name: statistics.fmean(m.get(name, 0.0) for m in ledgers)
              for name in PER_LAYER}
    print(f"simbench {wl.name} seed={seed} trace=1: {checker.ops} ops "
          f"({len(ledgers)} traced), {checker.failed} failed")
    wall = sum(per_op[name] for name in SELF_TIME.values()) \
        + per_op["trace.unattributed_s"]
    print(f"  traced wall {wall:.3f} s per op = {per_op['trace.overhead']:.2f}"
          f" x untraced {untraced_wall:.3f} s")
    print(f"  {'layer':10s}{'self_s':>10s}{'share':>8s}{'events':>10s}")
    for layer, name in SELF_TIME.items():
        events = per_op.get(f"{layer}.events")
        print(f"  {layer:10s}{per_op[name]:10.4f}{per_op[name] / wall:8.1%}"
              f"{'' if events is None else f'{events:10.0f}'}")
    print(f"  {'(none)':10s}{per_op['trace.unattributed_s']:10.4f}"
          f"{per_op['trace.unattributed_s'] / wall:8.1%}")
    for name, value in per_op.items():
        if not name.endswith("_s") and name != "trace.overhead":
            shown = f"{value:16.0f}" if float(value).is_integer() \
                else f"{value:16.4f}"
            print(f"  {name:24s}{shown} {PER_LAYER[name]}")
    print(f"  ops {checker.ops}  ops_failed {checker.failed}")
    return checker, per_op, PER_LAYER


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    measure_fn = traced if args.trace else measure
    checker, metrics, units = measure_fn(wl, args.seed, args.seconds)
    if metrics is None:
        print(f"simbench: every op of {wl.name} failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.ops,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a one-line summary per workload."""
    from workloads import WORKLOADS

    summary = []
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary.append(f"{name:16s} exited {proc.returncode}")
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                          for k, v in result["metrics"].items()
                          if k in END_TO_END or k == "trace.overhead")
        summary.append(f"{name:16s} ops {result['attempted']} failed "
                       f"{result['failed']}: {shown}")
    print("\n".join(["summary:"] + summary))
    return status


def regen_pins() -> int:
    """Re-pin every workload's outputs on the pinned seeds (slow: runs the
    detailed reference of hybrid_long, minutes per seed)."""
    from workloads import WORKLOADS

    pins = {"seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
            "outputs": {}, "hybrid_reference": {}}
    for name, wl in WORKLOADS.items():
        pins["outputs"][name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            op = Op(wl, seed)
            if op.problems:
                print(f"{name} seed {seed}: {op.problems}", file=sys.stderr)
                return 1
            pins["outputs"][name][str(seed)] = op.outputs
            if wl.kind == "microarch":
                public = canonical(wl.reference(seed))
                replayed = {k: {"mono": v["mono"], "micro": v["micro"]}
                            for k, v in op.outputs.items()}
                if public != replayed:
                    print(f"{name} seed {seed}: replayed traces disagree "
                          f"with fig01_microarch.run: "
                          f"{first_difference(replayed, public)}",
                          file=sys.stderr)
                    return 1
            elif name == "hybrid_long":
                pins["hybrid_reference"][str(seed)] = wl.reference(seed)
            print(f"pinned {name} seed {seed}", flush=True)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--regen-pins", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"simbench: simulator sources not found at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.regen_pins:
        return regen_pins()
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
