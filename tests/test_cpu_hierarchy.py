"""Tests for the multi-level cache hierarchy walker."""

from repro.cpu.hierarchy import (
    SCALEOUT_HIERARCHY,
    SERVERCLASS_HIERARCHY,
    UMANYCORE_HIERARCHY,
    CacheHierarchy,
)


def test_latency_accumulates_through_levels():
    h = CacheHierarchy(UMANYCORE_HIERARCHY)
    c = h.config
    # Cold access: TLB miss (page walk) + L1 miss + L2 miss + memory.
    cold = h.access_data(0)
    assert cold == (c.l1_tlb_latency + c.memory_latency  # TLB walk
                    + c.l1_latency + c.l2_latency + c.memory_latency)
    # Warm access: TLB hit + L1 hit.
    warm = h.access_data(0)
    assert warm == c.l1_tlb_latency + c.l1_latency


def test_l2_hit_path():
    h = CacheHierarchy(UMANYCORE_HIERARCHY)
    c = h.config
    h.access_data(0)
    # Evict the L1 line by filling its set (8-way, 64KB/8/64 = 128 sets).
    stride = 64 * 128
    for i in range(1, 9):
        h.access_data(i * stride)
    lat = h.access_data(0)
    # addr 0 now misses L1 but hits L2 (L2 is bigger / different set map).
    assert lat == c.l1_tlb_latency + c.l1_latency + c.l2_latency


def test_serverclass_has_l3_and_l2_tlb():
    h = CacheHierarchy(SERVERCLASS_HIERARCHY)
    assert h.l3 is not None and h.l2_dtlb is not None
    rates = h.hit_rates()
    assert "L3" in rates and "L2DTLB" in rates


def test_manycore_has_single_level_tlb_no_l3():
    for cfg in (UMANYCORE_HIERARCHY, SCALEOUT_HIERARCHY):
        h = CacheHierarchy(cfg)
        assert h.l3 is None and h.l2_dtlb is None


def test_small_working_set_gets_high_hit_rates():
    """Section 3.5: microservice working sets fit in L1 (hit rate > 95%)."""
    import numpy as np

    from repro.cpu.traces import MICRO_PROFILES, data_address_trace

    rng = np.random.default_rng(0)
    h = CacheHierarchy(UMANYCORE_HIERARCHY)
    addrs = data_address_trace(MICRO_PROFILES[0], 50_000, rng)
    for a in addrs:          # warm-up: services run continuously
        h.access_data(int(a))
    for cache in (h.l1d, h.l2, h.dtlb):
        cache.reset_stats()
    for a in addrs:
        h.access_data(int(a))
    rates = h.hit_rates()
    assert rates["L1D"] > 0.90
    assert rates["L1DTLB"] > 0.95


def test_hit_rates_pinned_on_fixed_trace():
    """Figure 9's consumer of the cache model: exact hit rates on a short
    fixed handler trace (two passes, no reset), pinned as literals."""
    import numpy as np

    from repro.cpu.traces import MICRO_PROFILES, MONO_PROFILES, handler_trace

    expected = {
        "serverclass": (MONO_PROFILES[0], 1410752, {
            "L1D": 0.6385, "L1I": 0.6873333333333334,
            "L2": 0.503955500618047, "L1DTLB": 0.8556666666666667,
            "L1ITLB": 0.9888333333333333, "L3": 0.0,
            "L2DTLB": 0.49364896073903003, "L2ITLB": 0.08955223880597014}),
        "umanycore": (MICRO_PROFILES[0], 320240, {
            "L1D": 0.9555, "L1I": 0.952, "L2": 0.1918918918918919,
            "L1DTLB": 0.99375, "L1ITLB": 0.9986666666666667}),
    }
    for config in (SERVERCLASS_HIERARCHY, UMANYCORE_HIERARCHY):
        profile, cycles, rates = expected[config.name]
        d_addrs, i_addrs = handler_trace(profile, 6_000,
                                         np.random.default_rng(7))
        h = CacheHierarchy(config)
        total = 0
        for d, i in list(zip(d_addrs, i_addrs)) * 2:
            total += h.access_data(int(d))
            total += h.access_instr(int(i))
        assert total == cycles
        assert h.hit_rates() == rates
