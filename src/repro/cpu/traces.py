"""Synthetic instruction/data/branch trace generators.

The paper drives its Figure 1 and Figure 9 studies with Pin traces of
monolithic applications (MySQL, Cassandra, Kafka, Clang, WordPress) and
microservice applications (SocialNetwork, Router, SetAlgebra).  We have no
Pin or those binaries, so we generate statistical traces whose controlling
parameters — footprint size, access locality, loop structure and branch
behaviour — match the qualitative characterization in Sections 2.2/3.5:
monoliths have multi-MB instruction and multi-10s-of-MB data footprints
with irregular access patterns; microservice handlers have ~0.5 MB data
footprints and small, highly reused instruction footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

PAGE = 4096
LINE = 64


@dataclass(frozen=True)
class TraceProfile:
    """Statistical description of a workload's memory/branch behaviour."""

    name: str
    kind: str                        # "mono" | "micro"
    data_footprint_kb: int
    instr_footprint_kb: int
    data_zipf_s: float               # page-popularity skew (higher = hotter)
    run_length_mean: float           # avg sequential lines per data burst
    func_count: int                  # static functions in the hot path
    func_len_lines: int              # I-cache lines per function
    loop_iterations_mean: float      # reuse of a function body
    branch_correlated_frac: float    # branches needing long history
    branch_bias: float               # taken prob. of the biased branches
    ilp: float = 3.0
    line_reuse_mean: float = 3.0     # consecutive accesses per cache line
    static_branches: int = 384       # distinct branch PCs in the hot path


# Monolithic workloads used in the Figure 1 publications.
MONO_PROFILES = [
    TraceProfile("mysql", "mono", data_footprint_kb=65536, instr_footprint_kb=4096,
                 data_zipf_s=0.6, run_length_mean=2.0, func_count=4000,
                 func_len_lines=40, loop_iterations_mean=2.0,
                 branch_correlated_frac=0.07, branch_bias=0.95, ilp=2.4),
    TraceProfile("cassandra", "mono", data_footprint_kb=131072, instr_footprint_kb=6144,
                 data_zipf_s=0.55, run_length_mean=3.0, func_count=6000,
                 func_len_lines=36, loop_iterations_mean=2.0,
                 branch_correlated_frac=0.08, branch_bias=0.94, ilp=2.2),
    TraceProfile("kafka", "mono", data_footprint_kb=98304, instr_footprint_kb=5120,
                 data_zipf_s=0.65, run_length_mean=4.0, func_count=5000,
                 func_len_lines=32, loop_iterations_mean=2.5,
                 branch_correlated_frac=0.06, branch_bias=0.96, ilp=2.6),
    TraceProfile("clang", "mono", data_footprint_kb=262144, instr_footprint_kb=8192,
                 data_zipf_s=0.5, run_length_mean=2.0, func_count=9000,
                 func_len_lines=48, loop_iterations_mean=1.5,
                 branch_correlated_frac=0.08, branch_bias=0.93, ilp=2.0),
    TraceProfile("wordpress", "mono", data_footprint_kb=49152, instr_footprint_kb=3072,
                 data_zipf_s=0.7, run_length_mean=2.5, func_count=3500,
                 func_len_lines=30, loop_iterations_mean=2.0,
                 branch_correlated_frac=0.06, branch_bias=0.95, ilp=2.5),
]

# Microservice workloads of Figure 1 / Section 3.5: ~0.5 MB handler
# footprints, small hot instruction working sets, highly biased branches.
MICRO_PROFILES = [
    TraceProfile("socialnetwork", "micro", data_footprint_kb=512, instr_footprint_kb=128,
                 data_zipf_s=1.5, run_length_mean=6.0, func_count=60,
                 func_len_lines=24, loop_iterations_mean=8.0,
                 branch_correlated_frac=0.01, branch_bias=0.999, ilp=3.0,
                 line_reuse_mean=16.0, static_branches=48),
    TraceProfile("router", "micro", data_footprint_kb=384, instr_footprint_kb=96,
                 data_zipf_s=1.6, run_length_mean=8.0, func_count=40,
                 func_len_lines=20, loop_iterations_mean=10.0,
                 branch_correlated_frac=0.008, branch_bias=0.999, ilp=3.2,
                 line_reuse_mean=20.0, static_branches=32),
    TraceProfile("setalgebra", "micro", data_footprint_kb=640, instr_footprint_kb=112,
                 data_zipf_s=1.4, run_length_mean=10.0, func_count=50,
                 func_len_lines=22, loop_iterations_mean=9.0,
                 branch_correlated_frac=0.012, branch_bias=0.999, ilp=3.4,
                 line_reuse_mean=14.0, static_branches=40),
]


def as_records(trace) -> list:
    """A trace as a list of plain Python ints, for per-record replay loops.

    Iterating an ndarray yields numpy scalars, whose arithmetic costs
    several times a Python int's; the replay loops convert once up front.
    A list passes through unchanged.
    """
    return trace if isinstance(trace, list) else np.asarray(trace).tolist()


def _bounded_zipf_probs(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


def data_address_trace(profile: TraceProfile, n_accesses: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Byte-address stream of data accesses.

    Pages are drawn from a bounded-Zipf popularity distribution over the
    footprint; each draw produces a short sequential run of cache lines
    (spatial locality), with run length geometric around the profile mean.
    """
    n_pages = max(1, profile.data_footprint_kb * 1024 // PAGE)
    probs = _bounded_zipf_probs(n_pages, profile.data_zipf_s)
    lines_per_page = PAGE // LINE
    addrs = np.empty(n_accesses, dtype=np.int64)
    filled = 0
    per_run = profile.run_length_mean * profile.line_reuse_mean
    while filled < n_accesses:
        batch = max(64, int((n_accesses - filled) / per_run) + 1)
        pages = rng.choice(n_pages, size=batch, p=probs)
        runs = 1 + rng.geometric(1.0 / profile.run_length_mean, size=batch)
        starts = rng.integers(0, lines_per_page, size=batch)
        for page, run, start in zip(pages, runs, starts):
            run = int(min(run, lines_per_page - start))
            base = int(page) * PAGE + int(start) * LINE
            lines = base + np.arange(run) * LINE
            # Temporal locality: several consecutive accesses per line.
            reuses = 1 + rng.geometric(1.0 / profile.line_reuse_mean, size=run)
            seq = np.repeat(lines, reuses)
            take = min(len(seq), n_accesses - filled)
            addrs[filled:filled + take] = seq[:take]
            filled += take
            if filled >= n_accesses:
                break
    return addrs


def instruction_address_trace(profile: TraceProfile, n_accesses: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Byte-address stream of instruction fetches.

    The hot path is a set of functions; execution picks a function
    (Zipf-popular), runs its body sequentially for a geometric number of
    loop iterations, then jumps to another function (call/return flow).
    """
    n_funcs = profile.func_count
    probs = _bounded_zipf_probs(n_funcs, 1.0 if profile.kind == "micro" else 0.6)
    footprint_lines = profile.instr_footprint_kb * 1024 // LINE
    func_len = max(1, min(profile.func_len_lines, footprint_lines // max(1, n_funcs) or 1))
    addrs = np.empty(n_accesses, dtype=np.int64)
    filled = 0
    while filled < n_accesses:
        func = int(rng.choice(n_funcs, p=probs))
        base = (func * profile.func_len_lines) % max(footprint_lines - func_len, 1)
        iters = 1 + int(rng.geometric(1.0 / profile.loop_iterations_mean))
        for __ in range(iters):
            take = min(func_len, n_accesses - filled)
            addrs[filled:filled + take] = (base + np.arange(take)) * LINE
            filled += take
            if filled >= n_accesses:
                break
    return addrs


def branch_trace(profile: TraceProfile, n_branches: int,
                 rng: np.random.Generator,
                 max_lag: int = 20) -> Tuple[np.ndarray, np.ndarray]:
    """(pc, taken) streams.

    Static branches split into *biased* (taken with ``branch_bias``) and
    *history-correlated*: a correlated branch's outcome equals the global
    outcome ``lag`` branches ago, with lag drawn in [4, max_lag].  That is
    linearly separable (a perceptron with history >= max_lag learns it),
    while a 12-bit-history gshare cannot see lags beyond 12 and dilutes
    its counters across history patterns for the rest.  Monoliths have far
    more correlated branches — the source of the perceptron's Figure 1
    edge — while microservice handlers are overwhelmingly biased.
    """
    n_static = profile.static_branches
    is_corr = rng.random(n_static) < profile.branch_correlated_frac
    lags = rng.integers(4, max_lag + 1, size=n_static)
    bias = np.where(rng.random(n_static) < 0.7, profile.branch_bias,
                    1.0 - profile.branch_bias)
    # Branches execute in loop-structured blocks (like basic blocks inside
    # loops), so the global history register sees repetitive patterns —
    # the regularity table-based predictors rely on.
    block_len = 8
    n_blocks = max(1, n_static // block_len)
    # Hot blocks dominate execution (Zipf), so block-to-block transitions
    # recur and the global history register sees familiar patterns.
    block_probs = _bounded_zipf_probs(n_blocks, 1.3 if profile.kind == "micro" else 0.9)
    pcs = np.empty(n_branches, dtype=np.int64)
    filled = 0
    while filled < n_branches:
        slot = int(rng.choice(n_blocks, p=block_probs))
        start = slot * block_len
        iters = 1 + int(rng.geometric(1.0 / max(4.0, profile.loop_iterations_mean)))
        block = np.arange(start, min(start + block_len, n_static))
        seq = np.tile(block, iters)[: n_branches - filled]
        pcs[filled:filled + len(seq)] = seq
        filled += len(seq)
    noise = rng.random(n_branches)
    taken = np.zeros(n_branches, dtype=np.int8)
    history = [1] * (max_lag + 1)   # most recent first
    for i in range(n_branches):
        b = pcs[i]
        if is_corr[b]:
            out = history[lags[b] - 1]
            if noise[i] < 0.05:
                out = 1 - out
        else:
            out = 1 if noise[i] < bias[b] else 0
        taken[i] = out
        history.insert(0, out)
        history.pop()
    return pcs, taken


def handler_trace(profile: TraceProfile, n_accesses: int, rng: np.random.Generator,
                  n_handlers: int = 8, shared_fraction: float = 0.85
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(data_addrs, instr_addrs) for a sequence of service handlers.

    Successive handlers of the same instance share ``shared_fraction`` of
    their footprint (Section 3.5 / Figure 8); the rest is per-handler
    private state placed in a disjoint region.
    """
    per_handler = n_accesses // n_handlers
    data_parts, instr_parts = [], []
    private_base = profile.data_footprint_kb * 1024 * 2
    for h in range(n_handlers):
        d = data_address_trace(profile, per_handler, rng)
        private = rng.random(per_handler) > shared_fraction
        d[private] += private_base * (h + 1)
        data_parts.append(d)
        instr_parts.append(instruction_address_trace(profile, per_handler, rng))
    return np.concatenate(data_parts), np.concatenate(instr_parts)
