/**
 * @file
 * Tests for execution-trace capture and replay, including the
 * live-vs-replay equivalence property.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "exec/trace.hh"
#include "profile/profile.hh"
#include "test_support.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

struct Totals : exec::Observer
{
    u64 blocks = 0;
    InstrCount instrs = 0;
    u64 markers = 0;
    u64 refs = 0;
    u64 writes = 0;
    bool ended = false;

    void
    onBlock(u32, u32 n) override
    {
        ++blocks;
        instrs += n;
    }

    void onMarker(u32) override { ++markers; }

    void
    onMemRef(Addr, bool w) override
    {
        ++refs;
        writes += w ? 1 : 0;
    }

    void onRunEnd() override { ended = true; }
};

} // namespace

TEST(Trace, CaptureReplayEquivalence)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);

    // Live run totals.
    Totals live;
    exec::Engine engine(binary);
    engine.addObserver(&live, {true, true, true});
    engine.run();

    // Capture (with memrefs) and replay into a fresh observer.
    std::stringstream trace;
    exec::TraceOptions options;
    options.memRefs = true;
    const InstrCount captured =
        exec::captureTrace(binary, trace, options);
    EXPECT_EQ(captured, live.instrs);

    Totals replayed;
    const u64 events = exec::replayTrace(trace, {&replayed});
    EXPECT_EQ(events, live.blocks + live.markers + live.refs);
    EXPECT_EQ(replayed.blocks, live.blocks);
    EXPECT_EQ(replayed.instrs, live.instrs);
    EXPECT_EQ(replayed.markers, live.markers);
    EXPECT_EQ(replayed.refs, live.refs);
    EXPECT_EQ(replayed.writes, live.writes);
    EXPECT_TRUE(replayed.ended);
}

TEST(Trace, ReplayReproducesCaptureByteForByte)
{
    // Real workloads on two targets: replaying a captured stream
    // (memory references included) through a fresh writer must
    // serialize to the same bytes.
    exec::TraceOptions options;
    options.memRefs = true;
    for (const char* name : {"gzip", "mcf", "equake"}) {
        const ir::Program program =
            workloads::makeWorkload(name, 0.05);
        for (const bin::Target target :
             {bin::target32u, bin::target64o}) {
            const bin::Binary binary =
                compile::compileProgram(program, target);
            std::stringstream captured;
            exec::captureTrace(binary, captured, options);
            const std::string bytes = captured.str();

            std::stringstream in(bytes), out;
            exec::TraceWriter writer(out, options);
            exec::replayTrace(in, {&writer});
            ASSERT_EQ(out.str(), bytes)
                << name << "/" << bin::targetName(target);
        }
    }
}

TEST(Trace, ReplayDrivesMarkerProfilerIdentically)
{
    const bin::Binary binary =
        compile::compileProgram(test::trickyProgram(), bin::target32o);
    const prof::MarkerProfile live = test::profileMarkers(binary);

    std::stringstream trace;
    exec::captureTrace(binary, trace);
    prof::MarkerProfiler offline(binary);
    exec::replayTrace(trace, {&offline});
    EXPECT_EQ(offline.result().counts, live.counts);
}

TEST(Trace, MemRefsOffByDefault)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    std::stringstream withRefs, withoutRefs;
    exec::TraceOptions refs;
    refs.memRefs = true;
    exec::captureTrace(binary, withRefs, refs);
    exec::captureTrace(binary, withoutRefs);
    EXPECT_GT(withRefs.str().size(), 2 * withoutRefs.str().size());
}

TEST(Trace, BadMagicFatal)
{
    std::stringstream bogus("nope");
    EXPECT_EXIT((void)exec::replayTrace(bogus, {}),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(Trace, TruncatedTraceFatal)
{
    const bin::Binary binary =
        compile::compileProgram(test::tinyProgram(), bin::target32u);
    std::stringstream trace;
    exec::captureTrace(binary, trace);
    std::string bytes = trace.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    EXPECT_EXIT((void)exec::replayTrace(truncated, {}),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(Trace, UnsupportedVersionFatal)
{
    std::string bytes = "XBTR";
    bytes.push_back('\x7F');
    std::stringstream stream(bytes);
    EXPECT_EXIT((void)exec::replayTrace(stream, {}),
                ::testing::ExitedWithCode(1), "version");
}
