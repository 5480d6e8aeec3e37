/**
 * @file
 * Unit tests for the set-associative LRU cache level and its
 * recency-ordered sets (a hit moves the line to the front, a fill
 * evicts the back).
 */

#include <gtest/gtest.h>

#include <algorithm>
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
const u32 kWays[] = {1, 2, 8, 16, 24};

/** A `ways`-way, 4-set cache of 64B lines (addrFor's layout). */
LevelConfig
waysConfig(u32 ways)
{
    return LevelConfig{"ways", u64{ways} * 4 * 64, ways, 64, 3};
}

/**
 * The valid lines of set 1, most recently used first.  Reads them
 * out as the evictions of `ways` fresh fills, so it empties the set.
 */
std::vector<Addr>
drainSet(SetAssociativeCache& cache, u32 ways)
{
    std::vector<Addr> order;
    for (u32 t = 0; t < ways; ++t) {
        const cache::Eviction ev = cache.fill(addrFor(1, 1000 + t), false);
        if (ev.valid)
            order.insert(order.begin(), ev.lineAddr);
    }
    return order;
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
    bad.lineSize = 2; // a power of two, but below the 4-byte minimum
    EXPECT_EXIT(SetAssociativeCache{bad},
                ::testing::ExitedWithCode(1), ">= 4");
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

TEST(Cache, AlternatingHitsKeepLruOrder)
{
    // Alternate hits across both ways of one set (so every hit is in
    // slot 1 and swaps the pair) and confirm LRU eviction order is
    // still exact.
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

TEST(Cache, TopOfAddressSpaceRoundTrips)
{
    // With the minimum 4-byte line the packed word has no spare bit:
    // the last line of the address space must still match and evict
    // as itself.  Two 1-way sets; both lines below map to set 1.
    SetAssociativeCache cache(LevelConfig{"tiny", 8, 1, 4, 1});
    const Addr top = ~Addr{3};
    cache.fill(top, true);
    EXPECT_TRUE(cache.lookup(top + 3, false));
    EXPECT_FALSE(cache.probe(top - 8));
    const cache::Eviction ev = cache.fill(top - 8, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, top);
}

TEST(Cache, HitAtEverySlotMovesLineToFront)
{
    for (u32 ways : kWays) {
        for (u32 slot = 0; slot < ways; ++slot) {
            SetAssociativeCache cache(waysConfig(ways));
            // Filled oldest first: slot s holds tag ways - s.
            std::vector<Addr> expect;
            for (u32 t = 1; t <= ways; ++t) {
                cache.fill(addrFor(1, t), false);
                expect.insert(expect.begin(), addrFor(1, t));
            }
            EXPECT_TRUE(cache.lookup(expect[slot], false));
            std::rotate(expect.begin(), expect.begin() + slot,
                        expect.begin() + slot + 1);
            EXPECT_EQ(drainSet(cache, ways), expect)
                << "ways=" << ways << " slot=" << slot;
            EXPECT_EQ(cache.misses(), 0u);
        }
    }
}

TEST(Cache, FillEvictsLruLine)
{
    // Random hits, writebacks and fills against a plain MRU-first
    // list: every fill of a full set evicts the list's last line.
    Rng rng(20261019);
    for (u32 ways : kWays) {
        SetAssociativeCache cache(waysConfig(ways));
        std::vector<Addr> model;
        for (int i = 0; i < 2000; ++i) {
            const Addr addr = addrFor(1, rng.nextBelow(2 * ways + 1));
            const auto it = std::find(model.begin(), model.end(), addr);
            const bool present = it != model.end();
            const bool hit = (i % 5 == 0) ? cache.touchIfPresent(addr)
                                          : cache.lookup(addr, false);
            ASSERT_EQ(hit, present) << "ways=" << ways << " i=" << i;
            if (present) {
                std::rotate(model.begin(), it, it + 1);
                continue;
            }
            const cache::Eviction ev = cache.fill(addr, false);
            ASSERT_EQ(ev.valid, model.size() == ways);
            if (ev.valid) {
                ASSERT_EQ(ev.lineAddr, model.back())
                    << "ways=" << ways << " i=" << i;
                model.pop_back();
            }
            model.insert(model.begin(), addr);
        }
        EXPECT_EQ(drainSet(cache, ways), model) << "ways=" << ways;
    }
}

TEST(Cache, FreeSlotsNeverEvictValidLine)
{
    for (u32 ways : kWays) {
        SetAssociativeCache cache(waysConfig(ways));
        for (int round = 0; round < 2; ++round) {
            // Fill all but one slot, re-touching the oldest line
            // between fills so the set is not in fill order.
            for (u32 t = 1; t < ways; ++t) {
                const cache::Eviction ev =
                    cache.fill(addrFor(1, t), t % 2 == 0);
                EXPECT_FALSE(ev.valid) << "ways=" << ways;
                EXPECT_TRUE(cache.lookup(addrFor(1, 1), false));
            }
            for (u32 t = 1; t < ways; ++t)
                EXPECT_TRUE(cache.probe(addrFor(1, t)));
            EXPECT_EQ(cache.writebacksOut(), 0u);
            // A flushed set is all free slots again.
            cache.flush();
        }
        EXPECT_TRUE(drainSet(cache, ways).empty());
    }
}

TEST(Cache, DirtyBitSurvivesMove)
{
    for (u32 ways : kWays) {
        SetAssociativeCache cache(waysConfig(ways));
        const Addr dirty = addrFor(1, 1);
        cache.fill(dirty, false);
        EXPECT_TRUE(cache.lookup(dirty, true)); // dirtied in slot 0
        // Push it to the last slot, then read-hit it back to slot 0.
        for (u32 t = 2; t <= ways; ++t)
            cache.fill(addrFor(1, t), false);
        EXPECT_TRUE(cache.lookup(dirty, false));
        // Push it down again with clean fills, which also evict the
        // clean lines behind it, and finally evict it.
        for (u32 t = 0; t < ways; ++t) {
            EXPECT_EQ(cache.writebacksOut(), 0u) << "ways=" << ways;
            const cache::Eviction ev =
                cache.fill(addrFor(1, 100 + t), false);
            EXPECT_EQ(ev.dirty, ev.lineAddr == dirty);
        }
        EXPECT_EQ(cache.writebacksOut(), 1u) << "ways=" << ways;
    }
}
