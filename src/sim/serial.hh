/**
 * @file
 * Artifact-store codec for detailed (timing) runs — the most
 * expensive stage in the pipeline — plus hashing of the memory
 * hierarchy configuration that parameterizes them.
 */

#ifndef XBSP_SIM_SERIAL_HH
#define XBSP_SIM_SERIAL_HH

#include "cache/hierarchy.hh"
#include "sim/detailed.hh"
#include "sim/study.hh"
#include "util/serial.hh"

namespace xbsp::sim
{

/**
 * The stored form of a detailed run: everything but `vliIntervals`,
 * which runDetailed selects from `candidateIntervals` per request.
 */
void encodeDetailedRun(serial::Encoder& e, const DetailedRunResult& r);
DetailedRunResult decodeDetailedRun(serial::Decoder& d);

/** Fold the full memory-hierarchy configuration into `h`. */
void hashHierarchy(serial::Hasher& h,
                   const cache::HierarchyConfig& config);

/**
 * Artifact-store codec for runDetailed results.  Version 2: the
 * CoreStats payload grew the frontend counters (branches,
 * mispredicts, flushes, fetch bubbles) of the pluggable CPU-backend
 * layer.  Version 3: one VLI interval list per candidate partition
 * replaces the single selected list.  Older artifacts are simply
 * recomputed.
 */
struct DetailedRunCodec
{
    using Value = DetailedRunResult;
    static constexpr u32 tag = serial::fourcc("DETR");
    static constexpr u32 version = 3;

    static void
    encode(serial::Encoder& e, const DetailedRunResult& r)
    {
        encodeDetailedRun(e, r);
    }

    static DetailedRunResult
    decode(serial::Decoder& d)
    {
        return decodeDetailedRun(d);
    }
};

} // namespace xbsp::sim

#endif // XBSP_SIM_SERIAL_HH
