/**
 * @file
 * One detailed (timing) simulation of a binary, with optional FLI and
 * VLI snapshot collection.  A single pass produces the full-program
 * truth *and* the per-interval statistics both sampling schemes need,
 * because warm sampled simulation of a region is statistically
 * identical to gating statistics over that region of the full run.
 *
 * The VLI side snapshots every *candidate* partition of the request
 * (in a study: the partition each binary would cut as primary), and
 * the run is stored and keyed on the candidates, not on the selected
 * partition.  Choosing another primary therefore selects another
 * interval list from the same stored run instead of simulating again.
 */

#ifndef XBSP_SIM_DETAILED_HH
#define XBSP_SIM_DETAILED_HH

#include <span>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/vli.hh"
#include "cpu/core.hh"
#include "sim/snapshots.hh"

namespace xbsp::sim
{

/** Memory-system summary of a detailed run. */
struct MemoryStats
{
    u64 refs = 0;
    u64 l1Hits = 0;
    u64 l2Hits = 0;
    u64 l3Hits = 0;
    u64 dramAccesses = 0;
    u64 dramWritebacks = 0;

    double
    l1MissRate() const
    {
        return refs ? 1.0 - static_cast<double>(l1Hits) /
                                static_cast<double>(refs)
                    : 0.0;
    }
};

/** Everything a detailed run produces. */
struct DetailedRunResult
{
    cpu::CoreStats totals;
    MemoryStats memory;
    std::vector<IntervalStats> fliIntervals;  ///< empty if not asked

    /** One interval list per candidate partition, in request order. */
    std::vector<std::vector<IntervalStats>> candidateIntervals;

    /** The list of the request's `partition`; empty if not asked. */
    std::vector<IntervalStats> vliIntervals;

    double trueCpi() const { return totals.cpi(); }
};

/** Inputs selecting which interval schemes to snapshot. */
struct DetailedRunRequest
{
    /** FLI boundary list (cumulative ends incl. final); empty = skip. */
    std::vector<InstrCount> fliBoundaries;

    /**
     * VLI partition mapped via `mappable`; null = skip.  It selects
     * DetailedRunResult::vliIntervals and must equal one of the
     * candidates by content.
     */
    const core::MappableSet* mappable = nullptr;
    std::size_t binaryIdx = 0;
    const core::VliPartition* partition = nullptr;

    /**
     * The partitions the run snapshots and is keyed on (a study
     * passes one per binary, in binary order); empty means
     * `{*partition}`.
     */
    std::span<const core::VliPartition> candidates;

    cache::HierarchyConfig memory;

    /** Timing backend (a model knob: part of the run's identity). */
    cpu::CoreConfig core;

    u64 seed = 0x5EEDull;
};

/** Run one binary to completion under the timing model. */
DetailedRunResult runDetailed(const bin::Binary& binary,
                              const DetailedRunRequest& request);

/**
 * Artifact-store key of one detailed run (binary + every request
 * knob, with the candidates standing in for `partition`) — the exact
 * key runDetailed memoizes under (artifact type DetailedRunCodec).
 * Exposed so the pipeline scheduler can probe whether a
 * detailed-simulation stage is already cached.
 */
serial::Hash128 detailedRunKey(const bin::Binary& binary,
                               const DetailedRunRequest& request);

} // namespace xbsp::sim

#endif // XBSP_SIM_DETAILED_HH
