/**
 * @file
 * Unit tests for the set-associative LRU cache level and its set
 * scans (lowest matching way; first free way, else the minimum
 * metadata word with ties going to the lowest way).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "util/rng.hh"

using namespace xbsp;
using cache::LevelConfig;
using cache::SetAssociativeCache;

namespace
{

/** 2-way, 4-set toy cache: 8 lines of 64B. */
LevelConfig
toyConfig()
{
    return LevelConfig{"toy", 8 * 64, 2, 64, 3};
}

/** Address of set `set`, distinct tag `tag`. */
Addr
addrFor(u64 set, u64 tag)
{
    return (tag * 4 + set) * 64; // 4 sets
}

/** Associativities from direct-mapped up to wide L3 sets. */
const u32 kWays[] = {1, 2, 3, 4, 5, 7, 8, 11, 12, 15, 16, 20, 24};

/** A unique valid (odd) tag word for way w. */
u64
tagFor(u32 w, u64 salt)
{
    return ((salt + w + 1) << 1) | 1;
}

} // namespace

TEST(Cache, MissThenHit)
{
    SetAssociativeCache cache(toyConfig());
    EXPECT_FALSE(cache.lookup(0x1000, false));
    cache.fill(0x1000, false);
    EXPECT_TRUE(cache.lookup(0x1000, false));
    // Same line, different byte offset.
    EXPECT_TRUE(cache.lookup(0x103F, false));
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), c = addrFor(0, 3);
    cache.fill(a, false);
    cache.fill(b, false);
    // Touch a so b becomes LRU.
    EXPECT_TRUE(cache.lookup(a, false));
    const cache::Eviction ev = cache.fill(c, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, b);
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, DirtyEvictionReported)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(1, 1), b = addrFor(1, 2), c = addrFor(1, 3);
    cache.fill(a, false);
    EXPECT_TRUE(cache.lookup(a, true)); // make dirty
    cache.fill(b, false);
    cache.fill(c, false); // evicts a (LRU), which is dirty
    EXPECT_EQ(cache.writebacksOut(), 1u);
}

TEST(Cache, FillDirtyInstallsDirtyLine)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(2, 1);
    cache.fill(a, true);
    // Evict it with two clean fills; the dirty line writes back.
    cache.fill(addrFor(2, 2), false);
    cache.fill(addrFor(2, 3), false);
    EXPECT_EQ(cache.writebacksOut(), 1u);
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), c = addrFor(0, 3);
    cache.fill(a, false);
    cache.fill(b, false);
    // probe(a) must NOT refresh a; a stays LRU and gets evicted.
    EXPECT_TRUE(cache.probe(a));
    const cache::Eviction ev = cache.fill(c, false);
    EXPECT_EQ(ev.lineAddr, a);
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssociativeCache cache(toyConfig());
    cache.fill(0x0, true);
    cache.fill(0x40, false);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(0x40));
    // Flush drops dirty data without writeback accounting.
    cache.fill(addrFor(0, 7), false);
    EXPECT_EQ(cache.writebacksOut(), 0u);
}

TEST(Cache, MissRateAndResetStats)
{
    SetAssociativeCache cache(toyConfig());
    cache.lookup(0x0, false);
    cache.fill(0x0, false);
    cache.lookup(0x0, false);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
    cache.resetStats();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.0);
    EXPECT_TRUE(cache.probe(0x0)) << "contents survive resetStats";
}

TEST(Cache, AssociativityIsolation)
{
    // Filling every set's both ways keeps all lines resident.
    SetAssociativeCache cache(toyConfig());
    for (u64 set = 0; set < 4; ++set) {
        cache.fill(addrFor(set, 1), false);
        cache.fill(addrFor(set, 2), false);
    }
    for (u64 set = 0; set < 4; ++set) {
        EXPECT_TRUE(cache.probe(addrFor(set, 1)));
        EXPECT_TRUE(cache.probe(addrFor(set, 2)));
    }
}

TEST(Cache, BadGeometryFatal)
{
    LevelConfig bad = toyConfig();
    bad.lineSize = 48;
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), "power of two");
    bad = toyConfig();
    bad.associativity = 0;
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), "associativity");
    bad = toyConfig();
    bad.capacityBytes = 3 * 64; // not divisible into 2-way sets
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), "divisible");
}

TEST(Cache, TouchIfPresentMatchesLookupOnHit)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(0, 1);
    cache.fill(a, false);
    const u64 before = cache.accesses();
    EXPECT_TRUE(cache.touchIfPresent(a));
    // Counts one access (like the write lookup it replaces), no miss,
    // and the line is now dirty: evicting it produces a writeback.
    EXPECT_EQ(cache.accesses(), before + 1);
    EXPECT_EQ(cache.misses(), 0u);
    cache.fill(addrFor(0, 2), false);
    cache.fill(addrFor(0, 3), false);
    EXPECT_EQ(cache.writebacksOut(), 1u);
}

TEST(Cache, TouchIfPresentMissIsStateless)
{
    SetAssociativeCache cache(toyConfig());
    cache.fill(addrFor(0, 1), false);
    const u64 before = cache.accesses();
    EXPECT_FALSE(cache.touchIfPresent(addrFor(0, 9)));
    EXPECT_EQ(cache.accesses(), before);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.probe(addrFor(0, 9)));
}

TEST(Cache, TouchIfPresentRefreshesLru)
{
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(3, 1), b = addrFor(3, 2), c = addrFor(3, 3);
    cache.fill(a, false);
    cache.fill(b, false);
    // Touch a so b becomes LRU, exactly like a hitting lookup would.
    EXPECT_TRUE(cache.touchIfPresent(a));
    const cache::Eviction ev = cache.fill(c, false);
    EXPECT_EQ(ev.lineAddr, b);
}

TEST(Cache, MruHintPreservesLruOrder)
{
    // Alternate hits across both ways of one set (so the MRU-way
    // front check repeatedly misses its hint) and confirm LRU
    // eviction order is still exact.
    SetAssociativeCache cache(toyConfig());
    const Addr a = addrFor(2, 1), b = addrFor(2, 2);
    cache.fill(a, false);
    cache.fill(b, false);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(cache.lookup(a, false));
        EXPECT_TRUE(cache.lookup(b, false));
    }
    EXPECT_TRUE(cache.lookup(a, false)); // a is now MRU, b is LRU
    const cache::Eviction ev = cache.fill(addrFor(2, 3), false);
    EXPECT_EQ(ev.lineAddr, b);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, PaperGeometriesConstruct)
{
    (void)SetAssociativeCache(LevelConfig{"L1D", 32768, 2, 64, 3});
    (void)SetAssociativeCache(LevelConfig{"L2D", 524288, 8, 64, 14});
    (void)SetAssociativeCache(LevelConfig{"L3D", 1048576, 16, 64, 35});
    SUCCEED();
}

TEST(Cache, FindWayMatchesAtEveryPosition)
{
    for (u32 ways : kWays) {
        std::vector<u64> tags(ways);
        for (u32 w = 0; w < ways; ++w)
            tags[w] = tagFor(w, 0x1000);
        // Present at each way, including tag values with the high
        // bit set (addresses near the top of the space).
        for (u32 target = 0; target < ways; ++target) {
            EXPECT_EQ(cache::findWay(tags.data(), ways, tags[target]),
                      target)
                << "ways=" << ways;
            tags[target] |= 1ull << 63;
            EXPECT_EQ(cache::findWay(tags.data(), ways, tags[target]),
                      target);
            tags[target] = tagFor(target, 0x1000);
        }
        // Absent key, and a free way (0) never matching.
        tags[ways / 2] = 0;
        EXPECT_EQ(cache::findWay(tags.data(), ways, tagFor(77, 0x9999)),
                  cache::kWayNotFound)
            << "ways=" << ways;
    }
}

TEST(Cache, VictimWayPrefersLowestFreeWay)
{
    for (u32 ways : kWays) {
        std::vector<u64> tags(ways);
        std::vector<u64> metas(ways);
        for (u32 w = 0; w < ways; ++w) {
            tags[w] = tagFor(w, 0x2000);
            metas[w] = (static_cast<u64>(w + 10) << 1) | (w & 1);
        }
        for (u32 freeAt = 0; freeAt < ways; ++freeAt) {
            tags[freeAt] = 0;
            // A second free way above must lose to the lower one.
            if (freeAt + 2 < ways)
                tags[freeAt + 2] = 0;
            EXPECT_EQ(cache::victimWay(tags.data(), metas.data(), ways),
                      freeAt)
                << "ways=" << ways;
            for (u32 w = 0; w < ways; ++w)
                tags[w] = tagFor(w, 0x2000);
        }
    }
}

TEST(Cache, VictimWayPicksUnsignedMinimumMetaTiesLow)
{
    Rng rng(20260808);
    for (u32 ways : kWays) {
        std::vector<u64> tags(ways);
        for (u32 w = 0; w < ways; ++w)
            tags[w] = tagFor(w, 0x3000);
        std::vector<u64> metas(ways);
        for (int round = 0; round < 200; ++round) {
            // High-bit-heavy values exercise the unsigned ordering;
            // small ranges force ties.
            const u64 mask = (round % 3 == 0)   ? 0xfull
                             : (round % 3 == 1) ? ~0ull
                                                : (0xfull | (1ull << 63));
            for (u32 w = 0; w < ways; ++w)
                metas[w] = rng.next() & mask;
            u32 expect = 0;
            for (u32 w = 1; w < ways; ++w) {
                if (metas[w] < metas[expect])
                    expect = w;
            }
            EXPECT_EQ(cache::victimWay(tags.data(), metas.data(), ways),
                      expect)
                << "ways=" << ways << " round=" << round;
        }
    }
}
