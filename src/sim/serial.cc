#include "sim/serial.hh"

#include "cpu/serial.hh"

namespace xbsp::sim
{

namespace
{

void
encodeIntervals(serial::Encoder& e,
                const std::vector<IntervalStats>& intervals)
{
    e.varint(intervals.size());
    for (const IntervalStats& stats : intervals) {
        e.varint(stats.instrs);
        e.varint(stats.cycles);
    }
}

std::vector<IntervalStats>
decodeIntervals(serial::Decoder& d)
{
    const u64 n = d.arrayCount(2);
    std::vector<IntervalStats> intervals;
    intervals.reserve(static_cast<std::size_t>(n));
    for (u64 i = 0; i < n; ++i) {
        IntervalStats stats;
        stats.instrs = d.varint();
        stats.cycles = d.varint();
        intervals.push_back(stats);
    }
    return intervals;
}

void
hashLevel(serial::Hasher& h, const cache::LevelConfig& level)
{
    h.str(level.name);
    h.u64v(level.capacityBytes);
    h.u32v(level.associativity);
    h.u32v(level.lineSize);
    h.u64v(level.hitLatency);
}

} // namespace

void
encodeDetailedRun(serial::Encoder& e, const DetailedRunResult& r)
{
    cpu::encodeCoreStats(e, r.totals);
    e.varint(r.memory.refs);
    e.varint(r.memory.l1Hits);
    e.varint(r.memory.l2Hits);
    e.varint(r.memory.l3Hits);
    e.varint(r.memory.dramAccesses);
    e.varint(r.memory.dramWritebacks);
    encodeIntervals(e, r.fliIntervals);
    e.varint(r.candidateIntervals.size());
    for (const auto& intervals : r.candidateIntervals)
        encodeIntervals(e, intervals);
}

DetailedRunResult
decodeDetailedRun(serial::Decoder& d)
{
    DetailedRunResult r;
    r.totals = cpu::decodeCoreStats(d);
    r.memory.refs = d.varint();
    r.memory.l1Hits = d.varint();
    r.memory.l2Hits = d.varint();
    r.memory.l3Hits = d.varint();
    r.memory.dramAccesses = d.varint();
    r.memory.dramWritebacks = d.varint();
    r.fliIntervals = decodeIntervals(d);
    const u64 candidates = d.arrayCount(1);
    r.candidateIntervals.reserve(static_cast<std::size_t>(candidates));
    for (u64 i = 0; i < candidates; ++i)
        r.candidateIntervals.push_back(decodeIntervals(d));
    return r;
}

void
hashHierarchy(serial::Hasher& h, const cache::HierarchyConfig& config)
{
    hashLevel(h, config.l1);
    hashLevel(h, config.l2);
    hashLevel(h, config.l3);
    h.u64v(config.dramLatency);
}

} // namespace xbsp::sim
