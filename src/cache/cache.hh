/**
 * @file
 * Set-associative cache with true-LRU replacement and write-back
 * dirty tracking — one level of the CMP$im-style hierarchy.
 *
 * The line state is stored set-blocked: each set owns one contiguous
 * block of `2 * ways` u64 words — first the packed tags (one word
 * per way: `(lineAddr << 1) | 1`, 0 = invalid), then the packed
 * replacement metadata (`(tick << 1) | dirty`).  A tag walk
 * therefore compares one word per way against a single precomputed
 * key and touches one cache line per 8 ways — which is what makes
 * the L2/L3 set scans on the miss path cheap — while the metadata a
 * fill needs sits in the lines directly after the tags it just
 * walked.  Because the per-cache tick is unique, the smallest packed
 * meta word still selects the true LRU victim without unpacking.
 *
 * lookup() is defined inline (and first probes the set's MRU way)
 * because it is the innermost operation of the simulation hot loop:
 * the hierarchy's batched access path inlines straight through it.
 * The MRU hint is purely an access-order accelerator — tags are
 * unique within a set, so probing the hinted way first finds the same
 * line a full scan would, and the LRU timestamp (`lastUse`) is bumped
 * exactly as before.  The test suite keeps the pre-fast-path
 * implementation (tests/reference.hh) as an equivalence oracle.
 */

#ifndef XBSP_CACHE_CACHE_HH
#define XBSP_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "util/types.hh"

namespace xbsp::cache
{

/** findWay result when no way of the set holds the key. */
inline constexpr u32 kWayNotFound = ~0u;

/**
 * Lowest way w in [0, ways) with tags[w] == key, else kWayNotFound.
 * `tags` are the packed tag words of one set; a valid tag has its
 * low bit set, so a key (always odd) never matches a free way.
 */
inline u32
findWay(const u64* tags, u32 ways, u64 key)
{
    for (u32 w = 0; w < ways; ++w) {
        if (tags[w] == key)
            return w;
    }
    return kWayNotFound;
}

/**
 * Replacement victim of one set: the lowest way whose tag word has
 * the valid bit clear, else the way with the unsigned-smallest
 * packed metadata word, ties going to the lowest way.
 */
inline u32
victimWay(const u64* tags, const u64* metas, u32 ways)
{
    u32 way = 0;
    u64 best = ~0ull;
    for (u32 w = 0; w < ways; ++w) {
        if ((tags[w] & 1) == 0)
            return w;
        // Selects rather than a branch: which way is older is data-
        // dependent, so a branch here mispredicts on every other way.
        const bool older = metas[w] < best;
        best = older ? metas[w] : best;
        way = older ? w : way;
    }
    return way;
}

/** Geometry and timing of one cache level. */
struct LevelConfig
{
    std::string name = "L1D";
    u64 capacityBytes = 32 * 1024;
    u32 associativity = 2;
    u32 lineSize = 64;
    Cycles hitLatency = 3;
};

/** Result of filling a line: what got evicted, if anything. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
};

/**
 * One set-associative, true-LRU, write-back cache level.  Addresses
 * are full byte addresses; the cache derives line/set indices itself.
 */
class SetAssociativeCache
{
  public:
    explicit SetAssociativeCache(const LevelConfig& config);

    /**
     * Look up an address.  On a hit the line's LRU state is updated
     * and, for writes, the line is marked dirty.
     * @return true on hit.
     */
    bool
    lookup(Addr addr, bool isWrite)
    {
        ++accessCount;
        ++tick;
        const Addr lineAddr = addr >> setShift;
        const u64 set = lineAddr & setMask;
        const u64 key = (lineAddr << 1) | 1;
        u64* tag = &state[set * ways * 2];
        u64* meta = tag + ways;
        const u32 mru = mruWay[set];
        if (tag[mru] == key) {
            meta[mru] = (tick << 1) |
                        ((meta[mru] | static_cast<u64>(isWrite)) & 1);
            return true;
        }
        // The hinted way already failed, so it cannot match again;
        // rescanning it keeps the scan oblivious to the hint.
        const u32 w = findWay(tag, ways, key);
        if (w != kWayNotFound) {
            meta[w] = (tick << 1) |
                      ((meta[w] | static_cast<u64>(isWrite)) & 1);
            mruWay[set] = w;
            return true;
        }
        ++missCount;
        return false;
    }

    /**
     * Touch the line containing `addr` if it is present: bump its LRU
     * state and mark it dirty, counting one access — exactly what the
     * old probe()-then-lookup(addr, true) pair did for a writeback
     * landing on a resident line, but with a single set scan.  A miss
     * changes nothing (the probe half of the old pair was stateless).
     * @return true when the line was present (and is now dirty).
     */
    bool
    touchIfPresent(Addr addr)
    {
        const Addr lineAddr = addr >> setShift;
        const u64 set = lineAddr & setMask;
        const u64 key = (lineAddr << 1) | 1;
        u64* tag = &state[set * ways * 2];
        u64* meta = tag + ways;
        const u32 w = findWay(tag, ways, key);
        if (w != kWayNotFound) {
            ++accessCount;
            ++tick;
            meta[w] = (tick << 1) | 1;
            mruWay[set] = w;
            return true;
        }
        return false;
    }

    /**
     * Install the line containing `addr` (allocate-on-miss), evicting
     * the LRU way if the set is full.
     * @param dirty install the line already dirty (writeback fills).
     * @return the eviction, with valid=false when a way was free.
     */
    Eviction fill(Addr addr, bool dirty);

    /** Invalidate everything (cold-start a sampling region). */
    void flush();

    /** True if the line containing `addr` is present (no LRU touch). */
    bool probe(Addr addr) const;

    /**
     * Hint the hardware to pull the set block of `addr` into the
     * real cache.  Purely a performance hint — no simulated state or
     * statistics change; the batched hierarchy walk issues these for
     * a whole reference batch before walking it, overlapping the
     * metadata fetches that dominate miss-heavy streams.
     */
    void
    prefetchSet(Addr addr) const
    {
        const u64 set = (addr >> setShift) & setMask;
        const u64* block = &state[set * ways * 2];
        __builtin_prefetch(block);
        if (ways > 8)
            __builtin_prefetch(block + 8);
    }

    const LevelConfig& config() const { return cfg; }
    u64 accesses() const { return accessCount; }
    u64 misses() const { return missCount; }
    u64 writebacksOut() const { return writebackCount; }
    double missRate() const;
    void resetStats();

  private:
    LevelConfig cfg;
    u32 ways = 0;       ///< cfg.associativity, hot copy
    u32 numSets = 0;
    u32 setShift = 0;   ///< log2(lineSize)
    u64 setMask = 0;    ///< numSets - 1
    /**
     * Per-set block of 2*ways words: packed tags
     * (`(lineAddr << 1) | valid`, 0 = free) then packed metadata
     * (`(LRU tick << 1) | dirty`).
     */
    std::vector<u64> state;
    std::vector<u32> mruWay;  ///< per-set most-recently-hit way hint
    u64 tick = 0;
    u64 accessCount = 0;
    u64 missCount = 0;
    u64 writebackCount = 0;
};

} // namespace xbsp::cache

#endif // XBSP_CACHE_CACHE_HH
