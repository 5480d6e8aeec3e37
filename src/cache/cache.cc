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
    if (cfg.lineSize < 4 || !isPow2(cfg.lineSize))
        fatal("cache {}: line size {} is not a power of two >= 4",
              cfg.name, cfg.lineSize);
    if (cfg.associativity == 0)
        fatal("cache {}: associativity must be > 0", cfg.name);
    const u64 numLines = cfg.capacityBytes / cfg.lineSize;
    if (numLines == 0 || numLines % cfg.associativity != 0)
        fatal("cache {}: capacity {} not divisible into {}-way sets",
              cfg.name, cfg.capacityBytes, cfg.associativity);
    ways = cfg.associativity;
    const u64 numSets = numLines / cfg.associativity;
    if (!isPow2(numSets))
        fatal("cache {}: set count {} is not a power of two",
              cfg.name, numSets);
    setShift = log2u(cfg.lineSize);
    setMask = numSets - 1;
    // setShift >= 2 keeps every line address inside 62 bits, so the
    // packed `(lineAddr << 2) | 2 | dirty` word can never wrap.
    lines.assign(numLines, 0);
}

Eviction
SetAssociativeCache::fill(Addr addr, bool dirty)
{
    u64* set = &lines[setBase(addr)];
    const u64 last = set[ways - 1];
    for (u32 i = ways - 1; i > 0; --i)
        set[i] = set[i - 1];
    set[0] = ((addr >> setShift) << 2) | 2 | static_cast<u64>(dirty);
    Eviction ev;
    if (last != 0) {
        ev.valid = true;
        ev.dirty = (last & 1) != 0;
        ev.lineAddr = (last >> 2) << setShift;
        if (ev.dirty)
            ++writebackCount;
    }
    return ev;
}

void
SetAssociativeCache::flush()
{
    std::fill(lines.begin(), lines.end(), 0);
}

bool
SetAssociativeCache::probe(Addr addr) const
{
    const u64 k = key(addr);
    const u64* set = &lines[setBase(addr)];
    return std::any_of(set, set + ways,
                       [k](u64 line) { return (line | 1) == k; });
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
