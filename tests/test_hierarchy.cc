/**
 * @file
 * Unit tests for the three-level cache hierarchy and the in-order
 * core timing model.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

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
    // stream — one through the optimized classes (recency-ordered
    // sets, latency table), one through the standalone
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

namespace
{

/**
 * Drive `config` twins with the same batched stream: the optimized
 * hierarchy through accessBatch(), the reference model one access()
 * per reference.  Batch sizes vary (empty ones included), references
 * come in runs of same-line repeats that write on the repeats, and
 * both hierarchies are flushed part-way through.
 */
void
expectBatchesMatchReference(const HierarchyConfig& config)
{
    Hierarchy fast(config);
    cache::ReferenceHierarchy reference(config);
    u64 state = 0x2545F4914F6CDD1Dull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 11;
    };
    const Addr footprint = 3u << 19; // every level and DRAM take part
    std::vector<mem::MemRef> batch;
    for (int b = 0; b < 4000; ++b) {
        if (b == 2500) {
            fast.flushAll();
            reference.flushAll();
        }
        const u64 size = (b % 50 == 0) ? 0 : next() % 97;
        batch.clear();
        while (batch.size() < size) {
            const Addr addr = next() % footprint;
            batch.push_back({addr, (next() & 3) == 0});
            const Addr line = addr & ~Addr{63};
            for (u64 r = next() % 4; r > 0 && batch.size() < size; --r)
                batch.push_back({line | (next() & 63), true});
        }
        Cycles refCycles = 0;
        for (const mem::MemRef& ref : batch)
            refCycles += reference.latency(
                reference.access(ref.addr, ref.isWrite));
        ASSERT_EQ(fast.accessBatch(batch), refCycles) << "batch " << b;
        for (const HitLevel level :
             {HitLevel::L1, HitLevel::L2, HitLevel::L3,
              HitLevel::Memory}) {
            ASSERT_EQ(fast.servicedAt(level), reference.servicedAt(level))
                << "batch " << b;
        }
    }
    EXPECT_EQ(fast.dramWritebacks(), reference.dramWritebacks());
    EXPECT_GT(fast.dramWritebacks(), 0u);
    const std::array<const cache::SetAssociativeCache*, 3> fastLevels{
        &fast.l1(), &fast.l2(), &fast.l3()};
    const std::array<const cache::ReferenceCache*, 3> refLevels{
        &reference.l1(), &reference.l2(), &reference.l3()};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(fastLevels[i]->accesses(), refLevels[i]->accesses());
        EXPECT_EQ(fastLevels[i]->misses(), refLevels[i]->misses());
        EXPECT_EQ(fastLevels[i]->writebacksOut(),
                  refLevels[i]->writebacksOut());
        for (Addr addr = 0; addr < footprint; addr += 64)
            ASSERT_EQ(fastLevels[i]->probe(addr), refLevels[i]->probe(addr))
                << "level " << i << " addr " << addr;
    }
}

} // namespace

TEST(Hierarchy, AccessBatchMatchesReferenceModel)
{
    expectBatchesMatchReference(HierarchyConfig::paperTable1());
}

TEST(Hierarchy, AccessBatchMatchesReferenceModelAtExtremeWays)
{
    HierarchyConfig config;
    config.l1.associativity = 1;  // direct-mapped: one slot per set
    config.l3.associativity = 32; // four cache lines per set
    expectBatchesMatchReference(config);
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
