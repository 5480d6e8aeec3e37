/**
 * @file
 * Three-level non-inclusive write-back cache hierarchy with the
 * paper's Table 1 configuration as default: L1D 32KB/2-way,
 * L2 512KB/8-way, L3 1MB/16-way, all 64-byte lines and LRU, with
 * 3/14/35-cycle hit latencies and 250-cycle DRAM.
 *
 * The access path is split into an inline L1-hit fast path (one
 * inlined lookup, whose first check is the set's MRU slot, and one
 * latency-table read) and an out-of-line miss slow path (L2/L3 walk,
 * fills, writeback cascade).  accessBatch() therefore keeps the
 * dominant case — an L1 hit — inside one branch-light inner loop;
 * statistics and LRU state are updated exactly as if access() had
 * been called per reference.
 */

#ifndef XBSP_CACHE_HIERARCHY_HH
#define XBSP_CACHE_HIERARCHY_HH

#include <array>
#include <span>

#include "cache/cache.hh"
#include "mem/pattern.hh"
#include "util/types.hh"

namespace xbsp::cache
{

/** Which level serviced a reference. */
enum class HitLevel { L1, L2, L3, Memory };

/** Display name, e.g. "L2". */
std::string hitLevelName(HitLevel level);

/** Full hierarchy configuration. */
struct HierarchyConfig
{
    LevelConfig l1{"L1D", 32 * 1024, 2, 64, 3};
    LevelConfig l2{"L2D", 512 * 1024, 8, 64, 14};
    LevelConfig l3{"L3D", 1024 * 1024, 16, 64, 35};
    Cycles dramLatency = 250;

    /** The configuration of the paper's Table 1 (also the default). */
    static HierarchyConfig paperTable1() { return HierarchyConfig{}; }
};

/**
 * The memory system: lookups walk L1 -> L2 -> L3 -> DRAM; misses fill
 * every level on the way back (allocate-on-miss); dirty evictions are
 * written back into the next level without back-invalidation
 * (non-inclusive).  Writeback traffic is counted but costs no cycles,
 * matching CMP$im's simple timing.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(
        const HierarchyConfig& config = HierarchyConfig::paperTable1());

    /** Service one reference; returns the level that hit. */
    HitLevel
    access(Addr addr, bool isWrite)
    {
        if (levels[0].lookup(addr, isWrite)) {
            ++serviced[0];
            return HitLevel::L1;
        }
        return accessMissFrom(addr, isWrite);
    }

    /**
     * Service a whole block's reference batch in issue order and
     * return the summed latency.  Statistics are updated exactly as
     * if access() had been called per reference; this entry point
     * exists so batch-aware timing observers pay one call per block
     * instead of two virtual dispatches per reference.
     */
    Cycles
    accessBatch(std::span<const mem::MemRef> refs)
    {
        Cycles total = 0;
        for (const mem::MemRef& ref : refs) {
            if (levels[0].lookup(ref.addr, ref.isWrite)) {
                ++serviced[0];
                total += latencyTable[0];
            } else {
                total += latencyTable[static_cast<std::size_t>(
                    accessMissFrom(ref.addr, ref.isWrite))];
            }
        }
        return total;
    }

    /** Total latency of a reference serviced at `level`. */
    Cycles
    latency(HitLevel level) const
    {
        return latencyTable[static_cast<std::size_t>(level)];
    }

    /** Invalidate all levels (cold-start sampling ablation). */
    void flushAll();

    /** Zero all per-level statistics (cache contents kept). */
    void resetStats();

    const SetAssociativeCache& l1() const { return levels[0]; }
    const SetAssociativeCache& l2() const { return levels[1]; }
    const SetAssociativeCache& l3() const { return levels[2]; }
    const HierarchyConfig& config() const { return cfg; }

    /** References serviced per level plus DRAM writebacks. */
    u64 servicedAt(HitLevel level) const;
    u64 dramWritebacks() const { return dramWbCount; }
    u64 totalAccesses() const;

  private:
    HierarchyConfig cfg;
    std::array<SetAssociativeCache, 3> levels;
    std::array<Cycles, 4> latencyTable{};  ///< per HitLevel
    std::array<u64, 4> serviced{};         ///< per HitLevel
    u64 dramWbCount = 0;

    /** Slow path: L1 already looked up and missed. */
    HitLevel accessMissFrom(Addr addr, bool isWrite);
    void writebackInto(std::size_t level, Addr lineAddr);
};

} // namespace xbsp::cache

#endif // XBSP_CACHE_HIERARCHY_HH
