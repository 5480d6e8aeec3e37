/**
 * @file
 * Unit tests for the three-level cache hierarchy and the in-order
 * core timing model.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/inorder.hh"
#include "reference.hh"

using namespace xbsp;
using cache::Hierarchy;
using cache::HierarchyConfig;
using cache::HitLevel;

TEST(Hierarchy, FirstAccessGoesToMemoryThenHitsL1)
{
    Hierarchy hierarchy;
    EXPECT_EQ(hierarchy.access(0x4000, false), HitLevel::Memory);
    EXPECT_EQ(hierarchy.access(0x4000, false), HitLevel::L1);
    EXPECT_EQ(hierarchy.access(0x4020, false), HitLevel::L1)
        << "same 64B line";
}

TEST(Hierarchy, EvictedFromL1HitsInL2)
{
    Hierarchy hierarchy;
    // L1 is 32KB 2-way with 256 sets; lines mapping to set 0 are
    // 16KB apart.  Three of them overflow the 2 ways.
    const Addr a = 0, b = 16384, c = 32768;
    hierarchy.access(a, false);
    hierarchy.access(b, false);
    hierarchy.access(c, false); // evicts a from L1
    EXPECT_EQ(hierarchy.access(a, false), HitLevel::L2);
}

TEST(Hierarchy, LatencyMatchesTable1)
{
    Hierarchy hierarchy;
    EXPECT_EQ(hierarchy.latency(HitLevel::L1), 3u);
    EXPECT_EQ(hierarchy.latency(HitLevel::L2), 14u);
    EXPECT_EQ(hierarchy.latency(HitLevel::L3), 35u);
    EXPECT_EQ(hierarchy.latency(HitLevel::Memory), 250u);
}

TEST(Hierarchy, ServicedCountsSumToAccesses)
{
    Hierarchy hierarchy;
    Rng rng(3);
    for (int i = 0; i < 20000; ++i)
        hierarchy.access(rng.nextBelow(1u << 21), i % 3 == 0);
    EXPECT_EQ(hierarchy.totalAccesses(), 20000u);
    EXPECT_EQ(hierarchy.servicedAt(HitLevel::L1) +
                  hierarchy.servicedAt(HitLevel::L2) +
                  hierarchy.servicedAt(HitLevel::L3) +
                  hierarchy.servicedAt(HitLevel::Memory),
              20000u);
}

TEST(Hierarchy, DirtyL1EvictionWritesBackNotLost)
{
    Hierarchy hierarchy;
    const Addr a = 0, b = 16384, c = 32768;
    hierarchy.access(a, true); // dirty in L1
    hierarchy.access(b, false);
    hierarchy.access(c, false); // a evicted from L1, written into L2
    // a must still be close (L2), not re-fetched from DRAM.
    EXPECT_EQ(hierarchy.access(a, false), HitLevel::L2);
}

TEST(Hierarchy, WorkingSetsLandAtTheRightLevel)
{
    auto avgLatency = [](u64 footprint) {
        Hierarchy hierarchy;
        Rng rng(7);
        const u64 lines = footprint / 64;
        for (u64 i = 0; i < lines * 4; ++i)
            hierarchy.access((i % lines) * 64, false); // warm
        Cycles total = 0;
        const int n = 30000;
        for (int i = 0; i < n; ++i) {
            total += hierarchy.latency(
                hierarchy.access(rng.nextBelow(lines) * 64, false));
        }
        return static_cast<double>(total) / n;
    };
    const double l1 = avgLatency(16 * 1024);
    const double l2 = avgLatency(256 * 1024);
    const double dram = avgLatency(64ull << 20);
    EXPECT_NEAR(l1, 3.0, 0.5);
    EXPECT_GT(l2, 8.0);
    EXPECT_LT(l2, 20.0);
    EXPECT_GT(dram, 150.0);
}

TEST(Hierarchy, FlushAllColdRestart)
{
    Hierarchy hierarchy;
    hierarchy.access(0x123400, false);
    EXPECT_EQ(hierarchy.access(0x123400, false), HitLevel::L1);
    hierarchy.flushAll();
    EXPECT_EQ(hierarchy.access(0x123400, false), HitLevel::Memory);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    Hierarchy hierarchy;
    hierarchy.access(0x9000, false);
    hierarchy.resetStats();
    EXPECT_EQ(hierarchy.totalAccesses(), 0u);
    EXPECT_EQ(hierarchy.access(0x9000, false), HitLevel::L1);
}

TEST(Hierarchy, MismatchedLineSizesFatal)
{
    HierarchyConfig config;
    config.l2.lineSize = 128;
    EXPECT_EXIT(Hierarchy{config}, ::testing::ExitedWithCode(1),
                "uniform line size");
}

TEST(Hierarchy, ReferenceModelMatchesFastPathExactly)
{
    // Drive twin hierarchies with the same pseudo-random mixed
    // stream — one through the optimized classes (packed-tag SoA,
    // MRU hint, latency table), one through the standalone
    // pre-fast-path reference model — and require identical hit
    // levels, latencies, statistics and final contents.
    Hierarchy fast;
    cache::ReferenceHierarchy reference;
    u64 state = 0x9E3779B97F4A7C15ull;
    Cycles fastCycles = 0, refCycles = 0;
    for (int i = 0; i < 200000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // ~1.5MB footprint so every level (and DRAM) participates.
        const Addr addr = (state >> 17) % (3u << 19);
        const bool isWrite = (state & 1) != 0;
        const HitLevel f = fast.access(addr, isWrite);
        const HitLevel r = reference.access(addr, isWrite);
        ASSERT_EQ(f, r) << "ref " << i;
        fastCycles += fast.latency(f);
        refCycles += reference.latency(r);
    }
    EXPECT_EQ(fastCycles, refCycles);
    for (const HitLevel level :
         {HitLevel::L1, HitLevel::L2, HitLevel::L3,
          HitLevel::Memory}) {
        EXPECT_EQ(fast.servicedAt(level),
                  reference.servicedAt(level));
    }
    EXPECT_EQ(fast.dramWritebacks(), reference.dramWritebacks());
    EXPECT_EQ(fast.l1().accesses(), reference.l1().accesses());
    EXPECT_EQ(fast.l1().misses(), reference.l1().misses());
    EXPECT_EQ(fast.l2().misses(), reference.l2().misses());
    EXPECT_EQ(fast.l3().writebacksOut(),
              reference.l3().writebacksOut());
    // Final contents agree too: probe a sample of lines.
    for (Addr addr = 0; addr < (3u << 19); addr += 4096)
        EXPECT_EQ(fast.l1().probe(addr), reference.l1().probe(addr));
}

TEST(InOrderCore, CyclesAreInstrsPlusMemoryLatency)
{
    cache::Hierarchy hierarchy;
    cpu::InOrderCore core(hierarchy);
    core.onBlock(0, 100);
    EXPECT_EQ(core.instructions(), 100u);
    EXPECT_EQ(core.cycles(), 100u);

    core.onMemRef(0x8000, false); // cold: DRAM
    EXPECT_EQ(core.cycles(), 100u + 250u);
    core.onMemRef(0x8000, false); // L1 hit
    EXPECT_EQ(core.cycles(), 100u + 250u + 3u);
    EXPECT_EQ(core.totals().memRefs, 2u);
}

TEST(InOrderCore, CpiMath)
{
    cache::Hierarchy hierarchy;
    cpu::InOrderCore core(hierarchy);
    EXPECT_DOUBLE_EQ(core.totals().cpi(), 0.0);
    core.onBlock(0, 10);
    core.onMemRef(0x0, false); // 250
    EXPECT_DOUBLE_EQ(core.totals().cpi(), 26.0);
}
