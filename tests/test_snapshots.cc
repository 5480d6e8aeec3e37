/**
 * @file
 * Unit tests for the snapshot collectors and the detailed-run driver.
 */

#include <gtest/gtest.h>

#include "core/vli.hh"
#include "cpu/core.hh"
#include "sim/detailed.hh"
#include "test_support.hh"

using namespace xbsp;

namespace
{

/** tinyProgram's four binaries, their mappable set and candidates. */
struct CandidateFixture
{
    std::vector<bin::Binary> binaries;
    core::MappableSet set;
    std::vector<core::VliPartition> candidates;

    CandidateFixture()
        : binaries(test::compileFour(test::tinyProgram())),
          set(test::matchBinaries(binaries))
    {
        for (std::size_t b = 0; b < binaries.size(); ++b)
            candidates.push_back(
                core::mappedPartition(binaries[b], set, b, 5000));
    }

    /** A VLI request on binary `b` selecting candidate `selected`. */
    sim::DetailedRunRequest
    request(std::size_t b, std::size_t selected) const
    {
        sim::DetailedRunRequest request;
        request.mappable = &set;
        request.binaryIdx = b;
        request.partition = &candidates[selected];
        return request;
    }
};

} // namespace

TEST(SnapshotSeries, DeltasFromAbsoluteCuts)
{
    sim::SnapshotSeries series;
    series.snapshot(100, 300);
    series.snapshot(250, 900);
    series.finish(400, 1000);
    const auto& intervals = series.intervals();
    ASSERT_EQ(intervals.size(), 3u);
    EXPECT_EQ(intervals[0].instrs, 100u);
    EXPECT_EQ(intervals[0].cycles, 300u);
    EXPECT_EQ(intervals[1].instrs, 150u);
    EXPECT_EQ(intervals[1].cycles, 600u);
    EXPECT_EQ(intervals[2].instrs, 150u);
    EXPECT_EQ(intervals[2].cycles, 100u);
    EXPECT_DOUBLE_EQ(intervals[0].cpi(), 3.0);
}

TEST(SnapshotSeries, ZeroInstructionIntervalsPassThrough)
{
    // Consecutive cuts at the same instruction count are legal (two
    // interval boundaries with no committed work between them, e.g.
    // back-to-back markers) and must yield explicit zero-length
    // intervals rather than panic or merge.
    sim::SnapshotSeries series;
    series.snapshot(100, 300);
    series.snapshot(100, 300);
    series.snapshot(200, 500);
    series.finish(250, 600);
    const auto& intervals = series.intervals();
    ASSERT_EQ(intervals.size(), 4u);
    EXPECT_EQ(intervals[1].instrs, 0u);
    EXPECT_EQ(intervals[1].cycles, 0u);
    EXPECT_DOUBLE_EQ(intervals[1].cpi(), 0.0);
    EXPECT_EQ(intervals[2].instrs, 100u);
    EXPECT_EQ(intervals[3].instrs, 50u);
}

TEST(SnapshotSeries, TrailingCutKeepsLateCycles)
{
    // A final cut at the end-of-run instruction count is dropped,
    // but cycles charged after it (e.g. a mispredict penalty on the
    // last block) must land in the merged final interval, keeping
    // interval sums equal to run totals.
    sim::SnapshotSeries series;
    series.snapshot(100, 300);
    series.snapshot(200, 700);
    series.finish(200, 750);
    const auto& intervals = series.intervals();
    ASSERT_EQ(intervals.size(), 2u);
    EXPECT_EQ(intervals[1].instrs, 100u);
    EXPECT_EQ(intervals[1].cycles, 450u);
}

TEST(SnapshotSeries, TrailingCutAtEndIsMerged)
{
    sim::SnapshotSeries series;
    series.snapshot(100, 300);
    series.snapshot(400, 1000);
    series.finish(400, 1000); // coincides with last snapshot
    EXPECT_EQ(series.intervals().size(), 2u);
}

TEST(SnapshotSeries, MisusePanics)
{
    sim::SnapshotSeries series;
    series.finish(10, 10);
    EXPECT_DEATH(series.snapshot(20, 20), "after finish");
    sim::SnapshotSeries unfinished;
    EXPECT_DEATH((void)unfinished.intervals(), "before finish");
    sim::SnapshotSeries backwards;
    backwards.snapshot(100, 100);
    EXPECT_DEATH(backwards.finish(50, 200), "monotonic");
}

TEST(DetailedRun, FullTotalsMatchPlainSimulation)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    sim::DetailedRunRequest request;
    const sim::DetailedRunResult result =
        sim::runDetailed(binary, request);
    EXPECT_EQ(result.totals.instructions,
              bin::staticDynamicInstrCount(binary));
    EXPECT_GT(result.totals.cycles, result.totals.instructions);
    EXPECT_GT(result.memory.refs, 0u);
    EXPECT_EQ(result.memory.refs,
              result.memory.l1Hits + result.memory.l2Hits +
                  result.memory.l3Hits + result.memory.dramAccesses);
    EXPECT_TRUE(result.fliIntervals.empty());
    EXPECT_TRUE(result.vliIntervals.empty());
}

TEST(DetailedRun, FliIntervalsMatchProfileBoundaries)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 5000);

    sim::DetailedRunRequest request;
    request.fliBoundaries = pass.fliBoundaries;
    const sim::DetailedRunResult result =
        sim::runDetailed(binary, request);

    ASSERT_EQ(result.fliIntervals.size(), pass.fliIntervals.size());
    Cycles totalCycles = 0;
    for (std::size_t i = 0; i < result.fliIntervals.size(); ++i) {
        EXPECT_EQ(result.fliIntervals[i].instrs,
                  pass.fliIntervals.lengths[i]);
        totalCycles += result.fliIntervals[i].cycles;
    }
    EXPECT_EQ(totalCycles, result.totals.cycles);
}

TEST(DetailedRun, FinalPartialIntervalUnderBothCores)
{
    // Drop the last FLI boundary: the run now ends mid-interval and
    // the snapshotter must emit a final partial interval whose sums
    // still equal the run totals — under both timing backends.
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 5000);
    ASSERT_GT(pass.fliBoundaries.size(), 1u);

    for (const cpu::CoreKind kind :
         {cpu::CoreKind::InOrder, cpu::CoreKind::Decoupled}) {
        sim::DetailedRunRequest request;
        request.fliBoundaries = pass.fliBoundaries;
        request.fliBoundaries.pop_back();
        request.core = cpu::coreConfigFor(kind);
        const sim::DetailedRunResult result =
            sim::runDetailed(binary, request);

        // One fewer interval: the last profile interval has no
        // closing cut, so its work lands in the final (merged)
        // partial interval emitted at run end.
        ASSERT_EQ(result.fliIntervals.size(),
                  pass.fliIntervals.size() - 1)
            << "core " << cpu::coreKindName(kind);
        InstrCount instrs = 0;
        Cycles cycles = 0;
        for (const sim::IntervalStats& interval :
             result.fliIntervals) {
            instrs += interval.instrs;
            cycles += interval.cycles;
        }
        EXPECT_EQ(instrs, result.totals.instructions)
            << "core " << cpu::coreKindName(kind);
        EXPECT_EQ(cycles, result.totals.cycles)
            << "core " << cpu::coreKindName(kind);
    }
}

TEST(DetailedRun, DecoupledIntervalSumsMatchTotals)
{
    // The decoupled frontend charges bubbles and penalties between
    // block events; the snapshot gating must still partition every
    // cycle into exactly one interval.
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    const prof::ProfilePass pass = prof::runProfilePass(binary, 5000);

    sim::DetailedRunRequest request;
    request.fliBoundaries = pass.fliBoundaries;
    request.core = cpu::coreConfigFor(cpu::CoreKind::Decoupled);
    const sim::DetailedRunResult result =
        sim::runDetailed(binary, request);

    EXPECT_GT(result.totals.mispredicts, 0u);
    Cycles cycles = 0;
    for (const sim::IntervalStats& interval : result.fliIntervals)
        cycles += interval.cycles;
    EXPECT_EQ(cycles, result.totals.cycles);
}

TEST(DetailedRun, WrongBoundariesPanic)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    sim::DetailedRunRequest request;
    request.fliBoundaries = {1234}; // not a real block boundary
    EXPECT_DEATH((void)sim::runDetailed(binary, request), "missed");
}

TEST(DetailedRun, CyclesDeterministic)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target64o);
    sim::DetailedRunRequest request;
    const auto a = sim::runDetailed(binary, request);
    const auto b = sim::runDetailed(binary, request);
    EXPECT_EQ(a.totals.cycles, b.totals.cycles);
    EXPECT_EQ(a.memory.l1Hits, b.memory.l1Hits);
}

TEST(DetailedRun, UnoptimizedFasterPerInstructionButSlowerOverall)
{
    // Optimized binaries drop cheap instructions, so their CPI rises
    // while total cycles fall — the pattern the speedup studies need.
    const auto bins = test::compileFour(test::tinyProgram());
    sim::DetailedRunRequest request;
    const auto unopt = sim::runDetailed(bins[0], request);
    const auto opt = sim::runDetailed(bins[1], request);
    EXPECT_GT(unopt.totals.cycles, opt.totals.cycles);
    EXPECT_LT(unopt.totals.cpi(), opt.totals.cpi());
}

TEST(DetailedRun, CandidatePartitionsMatchSingleRuns)
{
    // One run snapshotting all four candidates returns, for each
    // selected partition, exactly the intervals of a run over that
    // partition alone — under the in-order core and under the
    // decoupled core, which consumes markers before the trackers.
    const CandidateFixture f;
    ASSERT_NE(f.candidates[0], f.candidates[1]);
    const std::size_t b = 1;
    for (const cpu::CoreKind kind :
         {cpu::CoreKind::InOrder, cpu::CoreKind::Decoupled}) {
        for (std::size_t p = 0; p < f.candidates.size(); ++p) {
            sim::DetailedRunRequest single = f.request(b, p);
            single.core = cpu::coreConfigFor(kind);
            sim::DetailedRunRequest all = single;
            all.candidates = f.candidates;
            const sim::DetailedRunResult one =
                sim::runDetailed(f.binaries[b], single);
            const sim::DetailedRunResult many =
                sim::runDetailed(f.binaries[b], all);
            ASSERT_EQ(many.candidateIntervals.size(), 4u);
            EXPECT_EQ(many.vliIntervals, one.vliIntervals)
                << cpu::coreKindName(kind) << " partition " << p;
            EXPECT_EQ(many.candidateIntervals[p], one.vliIntervals);
            EXPECT_EQ(many.vliIntervals.size(),
                      f.candidates[p].intervalCount());
            EXPECT_EQ(many.totals.cycles, one.totals.cycles);
        }
    }
}

TEST(DetailedRun, PartitionOutsideCandidatesPanics)
{
    const CandidateFixture f;
    for (std::size_t p = 1; p < f.candidates.size(); ++p)
        ASSERT_NE(f.candidates[0], f.candidates[p]);
    sim::DetailedRunRequest request = f.request(0, 0);
    request.candidates = std::span(f.candidates).subspan(1);
    EXPECT_DEATH((void)sim::runDetailed(f.binaries[0], request),
                 "not among the 3 candidates");
}
