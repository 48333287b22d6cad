"""Tests for the microarchitectural optimization models (Figure 1 substrate)."""

from collections import deque

import numpy as np
import pytest

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.microarch.branch import (
    GSharePredictor,
    PerceptronPredictor,
    measure_accuracy,
)
from repro.cpu.microarch.evaluate import (
    OptimizationResult,
    evaluate_branch_predictor,
    evaluate_data_prefetcher,
    geometric_mean_speedup,
)
from repro.cpu.microarch.iprefetch import ISpyPrefetcher, run_instruction_prefetch
from repro.cpu.microarch.prefetch import (
    PythiaPrefetcher,
    StridePrefetcher,
    run_data_prefetch,
)
from repro.cpu.microarch.replacement import RipplePolicy, _median, \
    profile_transient_lines
from repro.cpu.traces import MICRO_PROFILES, MONO_PROFILES, branch_trace, \
    data_address_trace, instruction_address_trace


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def test_stride_prefetcher_learns_sequential_stream():
    cache = SetAssociativeCache(4096, 4)
    addrs = np.arange(0, 64 * 500, 64)
    run_data_prefetch(cache, StridePrefetcher(), addrs)
    # After the stride confirms, almost everything is prefetched ahead.
    assert cache.stats.hit_rate > 0.9


def test_stride_prefetcher_idle_on_random_stream(rng):
    cache = SetAssociativeCache(4096, 4)
    addrs = rng.integers(0, 1 << 24, 500) * 64
    run_data_prefetch(cache, StridePrefetcher(), addrs)
    assert cache.stats.hit_rate < 0.2


def test_pythia_learns_constant_offset_pattern(rng):
    cache = SetAssociativeCache(4096, 4)
    addrs = np.arange(0, 64 * 2000, 64)
    pf = PythiaPrefetcher(rng=rng)
    run_data_prefetch(cache, pf, addrs)
    assert pf.rewarded > 0
    assert cache.stats.hit_rate > 0.5


def test_gshare_learns_biased_branch():
    g = GSharePredictor()
    # Always-taken branch converges fast.
    acc = measure_accuracy(g, np.zeros(500, dtype=int), np.ones(500, dtype=np.int8))
    assert acc > 0.95


def test_perceptron_learns_history_pattern_gshare_struggles_on():
    """Outcome = parity of last 10 outcomes: linearly separable for a
    perceptron with history >= 10... parity is NOT linearly separable; use
    a single-history-bit correlation instead (out[t] = out[t-7])."""
    n = 6000
    taken = np.zeros(n, dtype=np.int8)
    state = [1, 0, 1, 1, 0, 1, 0]
    for i in range(n):
        taken[i] = state[i % 7]
    pcs = np.zeros(n, dtype=int)
    acc_p = measure_accuracy(PerceptronPredictor(history_len=24), pcs, taken)
    assert acc_p > 0.95  # periodic pattern is linearly separable in history


def test_branch_eval_perceptron_beats_gshare_on_mono(rng):
    res = evaluate_branch_predictor(
        MONO_PROFILES[0], GSharePredictor, PerceptronPredictor, rng,
        n_branches=40_000)
    assert res.speedup > 1.10


def test_branch_eval_marginal_on_micro(rng):
    res = evaluate_branch_predictor(
        MICRO_PROFILES[0], GSharePredictor, PerceptronPredictor, rng,
        n_branches=60_000)
    assert res.speedup < 1.09


def test_ispy_prefetcher_reduces_icache_misses(rng):
    addrs = instruction_address_trace(MONO_PROFILES[0], 60_000, rng)
    base = SetAssociativeCache(64 * 1024, 8)
    for a in addrs:
        base.access(int(a))
    opt = SetAssociativeCache(64 * 1024, 8)
    run_instruction_prefetch(opt, ISpyPrefetcher(), addrs)
    assert opt.stats.misses < base.stats.misses


def test_profile_transient_lines_finds_streaming_lines():
    # 10 hot lines touched constantly + 1000 lines touched once each.
    hot = np.tile(np.arange(10) * 64, 200)
    cold = (np.arange(1000) + 100) * 64
    trace = np.concatenate([hot[:1000], cold, hot[1000:]])
    transient = profile_transient_lines(trace, cache_lines=64)
    hot_lines = set(range(10))
    assert hot_lines.isdisjoint(transient)
    assert len(transient) >= 900  # the streaming lines


def test_data_prefetch_eval_mono_gains_more_than_micro(rng):
    mono = evaluate_data_prefetcher(MONO_PROFILES[0], PythiaPrefetcher, rng,
                                    n_accesses=40_000)
    micro = evaluate_data_prefetcher(MICRO_PROFILES[0], PythiaPrefetcher, rng,
                                     n_accesses=40_000)
    assert mono.speedup >= micro.speedup
    assert micro.speedup < 1.10


def test_geometric_mean_speedup():
    results = [OptimizationResult("a", "mono", 2.0, 1.0),
               OptimizationResult("b", "mono", 1.0, 2.0)]
    assert geometric_mean_speedup(results) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        geometric_mean_speedup([])


# ------------------------------------------------ exactness against numpy
#
# The predictors, Pythia and the Ripple profiler run on plain Python ints,
# floats and lists.  These reference classes are the earlier numpy
# implementations, kept verbatim as oracles: int8 gshare counters, int32
# perceptron weights, float64 Q-rows with np.argmax, np.median, and the
# cache's separate _locate/membership probe.  Both sides replay the same
# traces and must agree exactly.

class RefGShare:
    def __init__(self, table_bits: int = 12, history_len: int = 8):
        self.table_bits = table_bits
        self._table = np.full(1 << table_bits, 2, dtype=np.int8)
        self._history = 0
        self._hist_mask = (1 << history_len) - 1

    def _index(self, pc):
        return (pc ^ self._history) & ((1 << self.table_bits) - 1)

    def predict(self, pc):
        return self._table[self._index(pc)] >= 2

    def update(self, pc, taken):
        idx = self._index(pc)
        if taken:
            self._table[idx] = min(3, self._table[idx] + 1)
        else:
            self._table[idx] = max(0, self._table[idx] - 1)
        self._history = ((self._history << 1) | int(taken)) & self._hist_mask


class RefPerceptron:
    def __init__(self, n_perceptrons: int = 512, history_len: int = 24):
        self.n = n_perceptrons
        self._w = np.zeros((n_perceptrons, history_len + 1), dtype=np.int32)
        self._hist = np.ones(history_len, dtype=np.int32)
        self.theta = int(1.93 * history_len + 14)

    def _output(self, pc):
        w = self._w[pc % self.n]
        return int(w[0] + (w[1:] * self._hist).sum())

    def predict(self, pc):
        return self._output(pc) >= 0

    def update(self, pc, taken):
        y = self._output(pc)
        t = 1 if taken else -1
        if (y >= 0) != taken or abs(y) <= self.theta:
            row = self._w[pc % self.n]
            row[0] += t
            row[1:] += t * self._hist
        self._hist[1:] = self._hist[:-1]
        self._hist[0] = t


class RefPythia:
    OFFSETS = PythiaPrefetcher.OFFSETS

    def __init__(self, rng, epsilon: float = 0.05, alpha: float = 0.15):
        self.rng = rng
        self.epsilon = epsilon
        self.alpha = alpha
        self._q = {}
        self._last = None
        self._pending = {}
        self.issued = 0
        self.rewarded = 0

    def _q_row(self, sig):
        row = self._q.get(sig)
        if row is None:
            row = np.zeros(len(self.OFFSETS))
            self._q[sig] = row
        return row

    def observe(self, line_addr, hit):
        out = []
        if self._last is not None:
            sig = max(-64, min(64, line_addr - self._last))
            row = self._q_row(sig)
            if self.rng.random() < self.epsilon:
                action = int(self.rng.integers(len(self.OFFSETS)))
            else:
                action = int(np.argmax(row))
            offset = self.OFFSETS[action]
            if offset != 0 and row[action] <= 0.0 \
                    and self.rng.random() >= self.epsilon:
                offset = 0
            if offset != 0:
                target = line_addr + offset
                row[action] += self.alpha * (-0.2 - row[action])
                self._pending[target] = (sig, action)
                self.issued += 1
                out = [target]
        self._last = line_addr
        return out

    def credit(self, line_addr):
        entry = self._pending.pop(line_addr, None)
        if entry is None:
            return
        sig, action = entry
        row = self._q_row(sig)
        row[action] += self.alpha * (1.0 - row[action])
        self.rewarded += 1


class RefISpy:
    def __init__(self, depth=4, max_per_context=8, lookahead=4):
        self.max_per_context = max_per_context
        self._recent = deque(maxlen=depth)
        self._live_contexts = deque(maxlen=lookahead)
        self._table = {}

    def _context(self):
        h = 0
        for a in self._recent:
            h = (h * 1000003 + a) & 0xFFFFFFFF
        return h

    def observe(self, line_addr, hit):
        out = list(self._table.get(self._context(), ()))
        if not hit:
            for past_ctx in self._live_contexts:
                targets = self._table.setdefault(past_ctx, [])
                if line_addr not in targets:
                    targets.append(line_addr)
                    if len(targets) > self.max_per_context:
                        targets.pop(0)
            self._recent.append(line_addr)
            self._live_contexts.append(self._context())
        return out


class RefCache(SetAssociativeCache):
    def _locate(self, addr):
        line = addr // self.line_size
        return line, self._sets[line % self.n_sets]

    def access(self, addr):
        line, cset = self._locate(addr)
        self.stats.accesses += 1
        if line in cset:
            if cset[line]:
                self.stats.useful_prefetches += 1
                cset[line] = False
            cset.move_to_end(line)
            self.stats.hits += 1
            return True
        self._fill(line, cset, prefetched=False)
        return False

    def prefetch(self, addr):
        line, cset = self._locate(addr)
        if line in cset:
            return False
        self.stats.prefetches += 1
        self._fill(line, cset, prefetched=True)
        return True


def ref_measure_accuracy(predictor, pcs, taken, warmup_fraction=0.1):
    warmup = int(len(pcs) * warmup_fraction)
    correct = 0
    for i, (pc, t) in enumerate(zip(pcs, taken)):
        pc = int(pc)
        t = bool(t)
        if predictor.predict(pc) == t and i >= warmup:
            correct += 1
        predictor.update(pc, t)
    return correct / max(1, len(pcs) - warmup)


def ref_replay(cache, prefetcher, addresses, credit=True):
    """The earlier run_data_prefetch / run_instruction_prefetch loop."""
    for addr in addresses:
        addr = int(addr)
        line = addr // 64
        hit = cache.access(addr)
        if hit and credit:
            prefetcher.credit(line)
        for target in prefetcher.observe(line, hit):
            if target >= 0:
                cache.prefetch(target * 64)


def ref_profile_transient_lines(addresses, cache_lines):
    last_seen = {}
    gaps = {}
    for i, addr in enumerate(addresses):
        line = int(addr) // 64
        prev = last_seen.get(line)
        if prev is not None:
            gaps.setdefault(line, []).append(i - prev)
        last_seen[line] = i
    density = len(last_seen) / max(1, len(addresses))
    threshold = cache_lines / max(density, 1e-9)
    transient = {line for line, g in gaps.items() if np.median(g) > threshold}
    return transient | {line for line in last_seen if line not in gaps}


def cache_state(cache):
    return cache.stats, [list(s.items()) for s in cache._sets]


ORACLE_CASES = [(p, seed) for p in (MONO_PROFILES[0], MICRO_PROFILES[0])
                for seed in (1, 2)]
ORACLE_IDS = [f"{p.name}-seed{seed}" for p, seed in ORACLE_CASES]


@pytest.mark.parametrize("profile,seed", ORACLE_CASES, ids=ORACLE_IDS)
def test_branch_predictors_match_numpy_oracle(profile, seed):
    pcs, taken = branch_trace(profile, 5_000, np.random.default_rng(seed))
    for new, ref in ((GSharePredictor(), RefGShare()),
                     (PerceptronPredictor(), RefPerceptron())):
        got, want = [], []
        for pc, t in zip(pcs.tolist(), taken.tolist()):
            got.append(new.predict(pc))
            want.append(bool(ref.predict(pc)))
            new.update(pc, bool(t))
            ref.update(pc, bool(t))
        assert got == want
    for new_cls, ref_cls in ((GSharePredictor, RefGShare),
                             (PerceptronPredictor, RefPerceptron)):
        assert measure_accuracy(new_cls(), pcs, taken) \
            == ref_measure_accuracy(ref_cls(), pcs, taken)


@pytest.mark.parametrize("profile,seed", ORACLE_CASES, ids=ORACLE_IDS)
def test_pythia_matches_numpy_oracle(profile, seed):
    addrs = data_address_trace(profile, 8_000, np.random.default_rng(seed))
    new_cache, ref_cache = (cls(64 * 1024, 8) for cls in
                            (SetAssociativeCache, RefCache))
    new = PythiaPrefetcher(rng=np.random.default_rng(seed))
    ref = RefPythia(rng=np.random.default_rng(seed))
    for __ in range(2):                 # warm-up pass, then measured pass
        run_data_prefetch(new_cache, new, addrs)
        ref_replay(ref_cache, ref, addrs)
    assert ref.issued > 0
    assert (new.issued, new.rewarded) == (ref.issued, ref.rewarded)
    assert new._q == {sig: row.tolist() for sig, row in ref._q.items()}
    assert new._pending == ref._pending
    assert cache_state(new_cache) == cache_state(ref_cache)
    # The RNGs were drawn the same number of times, in the same order.
    assert new.rng.random() == ref.rng.random()


@pytest.mark.parametrize("profile,seed", ORACLE_CASES, ids=ORACLE_IDS)
def test_ispy_matches_oracle(profile, seed):
    addrs = instruction_address_trace(profile, 8_000,
                                      np.random.default_rng(seed))
    new_cache, ref_cache = (cls(16 * 1024, 8) for cls in
                            (SetAssociativeCache, RefCache))
    new, ref = ISpyPrefetcher(), RefISpy()
    run_instruction_prefetch(new_cache, new, addrs)
    ref_replay(ref_cache, ref, addrs, credit=False)
    assert new._table == ref._table
    assert cache_state(new_cache) == cache_state(ref_cache)
    assert new_cache.stats.prefetches > 0


@pytest.mark.parametrize("profile,seed", ORACLE_CASES, ids=ORACLE_IDS)
def test_ripple_matches_numpy_oracle(profile, seed):
    addrs = instruction_address_trace(profile, 8_000,
                                      np.random.default_rng(seed))
    transient = profile_transient_lines(addrs, 256)
    assert transient == ref_profile_transient_lines(addrs, 256)
    new_cache = SetAssociativeCache(16 * 1024, 8,
                                    policy=RipplePolicy(transient))
    ref_cache = RefCache(16 * 1024, 8, policy=RipplePolicy(transient))
    for a in addrs.tolist() * 2:
        assert new_cache.access(a) == ref_cache.access(a)
    assert cache_state(new_cache) == cache_state(ref_cache)


def test_median_matches_numpy_on_odd_and_even_lengths():
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        values = rng.integers(1, 10_000, size=n).tolist()
        assert _median(values) == np.median(values)


def test_list_and_ndarray_traces_give_identical_results():
    rng = np.random.default_rng(11)
    addrs = data_address_trace(MONO_PROFILES[1], 5_000, rng)
    caches = []
    for trace in (addrs, addrs.tolist()):
        cache = SetAssociativeCache(64 * 1024, 8)
        run_data_prefetch(cache, PythiaPrefetcher(rng=np.random.default_rng(1)),
                          trace)
        run_instruction_prefetch(cache, ISpyPrefetcher(), trace)
        caches.append(cache_state(cache))
    assert caches[0] == caches[1]
    assert profile_transient_lines(addrs, 256) \
        == profile_transient_lines(addrs.tolist(), 256)
    pcs, taken = branch_trace(MONO_PROFILES[1], 5_000, rng)
    assert measure_accuracy(PerceptronPredictor(), pcs, taken) \
        == measure_accuracy(PerceptronPredictor(), pcs.tolist(),
                            taken.tolist())
