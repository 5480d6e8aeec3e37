/**
 * @file
 * Interval snapshot collectors: observers that cut one detailed
 * simulation run into per-interval (instruction, cycle) statistics,
 * for both interval schemes:
 *
 *  - FliSnapshotter cuts at recorded cumulative instruction counts
 *    (the per-binary fixed-length-interval boundaries);
 *  - VliSnapshotter cuts at mapped (mappable point, firing count)
 *    boundary events replayed by a core::BoundaryTracker; a detailed
 *    run attaches one per candidate partition, each with its own
 *    tracker, so every partition is checked for semantic order.
 *
 * Because the cache hierarchy stays live across the whole run, the
 * per-interval statistics are exactly what warm (functionally-warmed)
 * sampled simulation of those regions would measure — the way
 * PinPoints drives CMP$im.
 */

#ifndef XBSP_SIM_SNAPSHOTS_HH
#define XBSP_SIM_SNAPSHOTS_HH

#include <vector>

#include "core/vli.hh"
#include "cpu/core.hh"
#include "exec/engine.hh"
#include "util/types.hh"

namespace xbsp::sim
{

/** Performance of one interval of execution. */
struct IntervalStats
{
    InstrCount instrs = 0;
    Cycles cycles = 0;

    double
    cpi() const
    {
        return instrs ? static_cast<double>(cycles) /
                            static_cast<double>(instrs)
                      : 0.0;
    }
    bool operator==(const IntervalStats&) const = default;
};

/** Absolute (instr, cycle) snapshots -> per-interval deltas. */
class SnapshotSeries
{
  public:
    /** Record an interior boundary snapshot. */
    void snapshot(InstrCount instrs, Cycles cycles);

    /** Record the end-of-run snapshot and seal the series. */
    void finish(InstrCount instrs, Cycles cycles);

    /** Per-interval deltas; valid after finish(). */
    const std::vector<IntervalStats>& intervals() const;

  private:
    std::vector<IntervalStats> cuts;  ///< absolute values
    std::vector<IntervalStats> deltas;
    bool finished = false;
};

/** Cuts at recorded cumulative instruction counts (FLI). */
class FliSnapshotter final : public exec::Observer
{
  public:
    /**
     * `boundaries` are the cumulative instruction counts at each
     * interval end, *including* the final one (as produced by
     * prof::FliBbvCollector::boundaries()).
     */
    FliSnapshotter(const exec::Engine& engine,
                   const cpu::Core& core,
                   std::vector<InstrCount> boundaries);

    exec::ObserverHooks
    hooks() const override
    {
        return {true, false, false};
    }

    void onBlock(u32 blockId, u32 instrs) override;
    void onRunEnd() override;

    const std::vector<IntervalStats>& intervals() const;

  private:
    const exec::Engine& engine;
    const cpu::Core& core;
    std::vector<InstrCount> bounds;
    std::size_t next = 0;
    SnapshotSeries series;
};

/** Cuts at mapped VLI boundary events in any binary of the set. */
class VliSnapshotter final : public exec::Observer
{
  public:
    VliSnapshotter(const exec::Engine& engine,
                   const cpu::Core& core,
                   const core::MappableSet& mappable,
                   std::size_t binaryIdx,
                   const core::VliPartition& partition);

    exec::ObserverHooks
    hooks() const override
    {
        return {false, false, true};
    }

    void onMarker(u32 markerId) override;
    void onRunEnd() override;

    const std::vector<IntervalStats>& intervals() const;

  private:
    const exec::Engine& engine;
    const cpu::Core& core;
    core::BoundaryTracker tracker;
    SnapshotSeries series;
};

} // namespace xbsp::sim

#endif // XBSP_SIM_SNAPSHOTS_HH
