/**
 * @file
 * Set-associative cache with true-LRU replacement and write-back
 * dirty tracking — one level of the CMP$im-style hierarchy.
 *
 * Each set is `ways` contiguous u64 words kept in recency order: slot
 * 0 holds the most recently used line, slot `ways - 1` the least.  A
 * line is one packed word, `(lineAddr << 2) | 2 | dirty`; a free slot
 * holds 0.  Free slots only arise from a cold or flushed set, so they
 * always sit behind every valid line.  That order is the whole
 * replacement state:
 *  - a hit at slot p moves slots [0, p) down by one and puts the line
 *    in slot 0 (a hit in slot 0 only ORs in the dirty bit);
 *  - a fill evicts slot `ways - 1` (nothing, when it is free) and
 *    inserts the new line at slot 0.
 * This is the same true LRU as per-line timestamps, so hit levels,
 * evictions and writebacks are those of the timestamp model that
 * tests/reference.hh keeps as an equivalence oracle.
 *
 * lookup() is defined inline because it is the innermost operation of
 * the simulation hot loop; most references hit slot 0 of their L1
 * set, which its scan checks first.
 */

#ifndef XBSP_CACHE_CACHE_HH
#define XBSP_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "util/types.hh"

namespace xbsp::cache
{

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
     * Look up an address.  On a hit the line becomes the set's most
     * recently used and, for writes, is marked dirty.
     * @return true on hit.
     */
    bool
    lookup(Addr addr, bool isWrite)
    {
        ++accessCount;
        if (touch(addr, isWrite))
            return true;
        ++missCount;
        return false;
    }

    /**
     * Touch the line containing `addr` if it is present: make it the
     * most recently used and mark it dirty, counting one access — what
     * a write lookup does for a writeback landing on a resident line.
     * A miss changes nothing and counts nothing.
     * @return true when the line was present (and is now dirty).
     */
    bool
    touchIfPresent(Addr addr)
    {
        if (!touch(addr, true))
            return false;
        ++accessCount;
        return true;
    }

    /**
     * Install the line containing `addr` (allocate-on-miss) as the
     * most recently used, evicting the LRU line if the set is full.
     * The line must not already be present.
     * @param dirty install the line already dirty (writeback fills).
     * @return the eviction, with valid=false when a slot was free.
     */
    Eviction fill(Addr addr, bool dirty);

    /** Invalidate everything (cold-start a sampling region). */
    void flush();

    /** True if the line containing `addr` is present (no LRU touch). */
    bool probe(Addr addr) const;

    const LevelConfig& config() const { return cfg; }
    u64 accesses() const { return accessCount; }
    u64 misses() const { return missCount; }
    u64 writebacksOut() const { return writebackCount; }
    double missRate() const;
    void resetStats();

  private:
    LevelConfig cfg;
    u32 ways = 0;       ///< cfg.associativity, hot copy
    u32 setShift = 0;   ///< log2(lineSize), at least 2
    u64 setMask = 0;    ///< number of sets - 1
    /** Per set, `ways` packed lines in recency order (MRU first). */
    std::vector<u64> lines;
    u64 accessCount = 0;
    u64 missCount = 0;
    u64 writebackCount = 0;

    /** Index in `lines` of slot 0 of the set that `addr` maps to. */
    u64
    setBase(Addr addr) const
    {
        return ((addr >> setShift) & setMask) * ways;
    }

    /**
     * The packed line word of `addr` with its dirty bit set: a slot
     * holds that line when `(slot | 1) == key`.  A free slot (0)
     * never matches, since every key has bit 1 set.
     */
    u64 key(Addr addr) const { return ((addr >> setShift) << 2) | 3; }

    /**
     * Move the line containing `addr`, if present, to slot 0 and OR
     * `dirty` into it; a miss changes nothing.  No statistics.  The
     * scan starts at the MRU slot, where most L1 lookups hit.
     */
    bool
    touch(Addr addr, bool dirty)
    {
        const u64 k = key(addr);
        u64* set = &lines[setBase(addr)];
        for (u32 p = 0; p < ways; ++p) {
            if ((set[p] | 1) == k) {
                const u64 line = set[p] | static_cast<u64>(dirty);
                for (u32 i = p; i > 0; --i)
                    set[i] = set[i - 1];
                set[0] = line;
                return true;
            }
        }
        return false;
    }
};

} // namespace xbsp::cache

#endif // XBSP_CACHE_CACHE_HH
