#include "reference.hh"

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

ReferenceCache::ReferenceCache(const LevelConfig& config)
    : cfg(config)
{
    if (cfg.lineSize == 0 || !isPow2(cfg.lineSize))
        fatal("cache {}: line size {} is not a power of two",
              cfg.name, cfg.lineSize);
    if (cfg.associativity == 0)
        fatal("cache {}: associativity must be > 0", cfg.name);
    const u64 numLines = cfg.capacityBytes / cfg.lineSize;
    if (numLines == 0 || numLines % cfg.associativity != 0)
        fatal("cache {}: capacity {} not divisible into {}-way sets",
              cfg.name, cfg.capacityBytes, cfg.associativity);
    numSets = static_cast<u32>(numLines / cfg.associativity);
    if (!isPow2(numSets))
        fatal("cache {}: set count {} is not a power of two",
              cfg.name, numSets);
    setShift = log2u(cfg.lineSize);
    setMask = numSets - 1;
    lines.resize(numLines);
}

ReferenceCache::Line*
ReferenceCache::findLine(Addr addr)
{
    const Addr lineAddr = addr >> setShift;
    const u64 set = lineAddr & setMask;
    Line* base = &lines[set * cfg.associativity];
    for (u32 w = 0; w < cfg.associativity; ++w) {
        if (base[w].valid && base[w].tag == lineAddr)
            return &base[w];
    }
    return nullptr;
}

const ReferenceCache::Line*
ReferenceCache::findLine(Addr addr) const
{
    return const_cast<ReferenceCache*>(this)->findLine(addr);
}

ReferenceCache::Line*
ReferenceCache::victimLine(Addr addr)
{
    const Addr lineAddr = addr >> setShift;
    const u64 set = lineAddr & setMask;
    Line* base = &lines[set * cfg.associativity];
    Line* victim = &base[0];
    for (u32 w = 0; w < cfg.associativity; ++w) {
        if (!base[w].valid)
            return &base[w];
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    return victim;
}

bool
ReferenceCache::lookup(Addr addr, bool isWrite)
{
    ++accessCount;
    ++tick;
    if (Line* line = findLine(addr)) {
        line->lastUse = tick;
        if (isWrite)
            line->dirty = true;
        return true;
    }
    ++missCount;
    return false;
}

Eviction
ReferenceCache::fill(Addr addr, bool dirty)
{
    Line* victim = victimLine(addr);
    Eviction ev;
    if (victim->valid) {
        ev.valid = true;
        ev.dirty = victim->dirty;
        ev.lineAddr = victim->tag << setShift;
        if (victim->dirty)
            ++writebackCount;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = addr >> setShift;
    victim->lastUse = ++tick;
    return ev;
}

void
ReferenceCache::flush()
{
    for (Line& line : lines)
        line = Line{};
}

bool
ReferenceCache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

void
ReferenceCache::resetStats()
{
    accessCount = 0;
    missCount = 0;
    writebackCount = 0;
}

ReferenceHierarchy::ReferenceHierarchy(const HierarchyConfig& config)
    : cfg(config),
      levels{ReferenceCache(config.l1), ReferenceCache(config.l2),
             ReferenceCache(config.l3)}
{
    if (cfg.l1.lineSize != cfg.l2.lineSize ||
        cfg.l2.lineSize != cfg.l3.lineSize) {
        fatal("hierarchy requires a uniform line size, got {}/{}/{}",
              cfg.l1.lineSize, cfg.l2.lineSize, cfg.l3.lineSize);
    }
}

void
ReferenceHierarchy::writebackInto(std::size_t level, Addr lineAddr)
{
    if (level >= levels.size()) {
        ++dramWbCount;
        return;
    }
    // Non-inclusive write-back: the dirty line is installed in the
    // next level down (allocating there), possibly cascading.
    if (levels[level].probe(lineAddr)) {
        // Already present: just mark it dirty via a write lookup.
        // This is not counted as a demand access.
        levels[level].lookup(lineAddr, true);
        return;
    }
    const Eviction ev = levels[level].fill(lineAddr, true);
    if (ev.valid && ev.dirty)
        writebackInto(level + 1, ev.lineAddr);
}

HitLevel
ReferenceHierarchy::access(Addr addr, bool isWrite)
{
    HitLevel result = HitLevel::Memory;
    std::size_t hitAt = levels.size();
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (levels[i].lookup(addr, isWrite && i == 0)) {
            result = static_cast<HitLevel>(i);
            hitAt = i;
            break;
        }
    }
    // Fill every level above the hit (or all levels on a DRAM access).
    for (std::size_t i = hitAt; i-- > 0;) {
        const Eviction ev = levels[i].fill(addr, isWrite && i == 0);
        if (ev.valid && ev.dirty)
            writebackInto(i + 1, ev.lineAddr);
    }
    ++serviced[static_cast<std::size_t>(result)];
    return result;
}

Cycles
ReferenceHierarchy::latency(HitLevel level) const
{
    switch (level) {
      case HitLevel::L1:
        return cfg.l1.hitLatency;
      case HitLevel::L2:
        return cfg.l2.hitLatency;
      case HitLevel::L3:
        return cfg.l3.hitLatency;
      case HitLevel::Memory:
        return cfg.dramLatency;
    }
    panic("unknown HitLevel {}", static_cast<int>(level));
}

void
ReferenceHierarchy::flushAll()
{
    for (auto& level : levels)
        level.flush();
}

void
ReferenceHierarchy::resetStats()
{
    for (auto& level : levels)
        level.resetStats();
    serviced.fill(0);
    dramWbCount = 0;
}

u64
ReferenceHierarchy::servicedAt(HitLevel level) const
{
    return serviced[static_cast<std::size_t>(level)];
}

u64
ReferenceHierarchy::totalAccesses() const
{
    u64 total = 0;
    for (u64 s : serviced)
        total += s;
    return total;
}

} // namespace xbsp::cache
