#include "cache/cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace xbsp::cache
{

namespace
{

bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

u32
log2u(u64 v)
{
    u32 n = 0;
    while ((1ull << n) < v)
        ++n;
    return n;
}

} // namespace

SetAssociativeCache::SetAssociativeCache(const LevelConfig& config)
    : cfg(config)
{
    if (cfg.lineSize < 2 || !isPow2(cfg.lineSize))
        fatal("cache {}: line size {} is not a power of two >= 2",
              cfg.name, cfg.lineSize);
    if (cfg.associativity == 0)
        fatal("cache {}: associativity must be > 0", cfg.name);
    const u64 numLines = cfg.capacityBytes / cfg.lineSize;
    if (numLines == 0 || numLines % cfg.associativity != 0)
        fatal("cache {}: capacity {} not divisible into {}-way sets",
              cfg.name, cfg.capacityBytes, cfg.associativity);
    ways = cfg.associativity;
    numSets = static_cast<u32>(numLines / cfg.associativity);
    if (!isPow2(numSets))
        fatal("cache {}: set count {} is not a power of two",
              cfg.name, numSets);
    setShift = log2u(cfg.lineSize);
    setMask = numSets - 1;
    // setShift >= 1 keeps every line address inside 63 bits, so the
    // packed `(lineAddr << 1) | 1` tag key can never collide or wrap.
    state.assign(static_cast<std::size_t>(numLines) * 2, 0);
    mruWay.assign(numSets, 0);
}

Eviction
SetAssociativeCache::fill(Addr addr, bool dirty)
{
    const Addr lineAddr = addr >> setShift;
    const u64 set = lineAddr & setMask;
    u64* tag = &state[set * ways * 2];
    u64* meta = tag + ways;
    // Victim in one fused scan: the first free way, else the
    // true-LRU way.  Ticks are unique, so the smallest packed meta
    // word is the smallest LRU tick (the dirty bit only breaks exact
    // ties, which cannot occur); ties in way order go low, as always.
    const u32 way = victimWay(tag, meta, ways);
    Eviction ev;
    if ((tag[way] & 1) != 0) {
        ev.valid = true;
        ev.dirty = (meta[way] & 1) != 0;
        ev.lineAddr = (tag[way] >> 1) << setShift;
        if (ev.dirty)
            ++writebackCount;
    }
    tag[way] = (lineAddr << 1) | 1;
    meta[way] = (++tick << 1) | static_cast<u64>(dirty);
    mruWay[set] = way;
    return ev;
}

void
SetAssociativeCache::flush()
{
    std::fill(state.begin(), state.end(), 0);
    std::fill(mruWay.begin(), mruWay.end(), 0);
}

bool
SetAssociativeCache::probe(Addr addr) const
{
    const Addr lineAddr = addr >> setShift;
    const u64 set = lineAddr & setMask;
    const u64 key = (lineAddr << 1) | 1;
    const u64* tag = &state[set * ways * 2];
    return findWay(tag, ways, key) != kWayNotFound;
}

double
SetAssociativeCache::missRate() const
{
    return accessCount
               ? static_cast<double>(missCount) /
                     static_cast<double>(accessCount)
               : 0.0;
}

void
SetAssociativeCache::resetStats()
{
    accessCount = 0;
    missCount = 0;
    writebackCount = 0;
}

} // namespace xbsp::cache
