/**
 * @file
 * Unit tests for the SimPoint file-format interoperability layer.
 */

#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "simpoint/io.hh"
#include "util/format.hh"
#include "util/rng.hh"

using namespace xbsp;
using namespace xbsp::sp;

namespace
{

FrequencyVectorSet
sampleFvs()
{
    FrequencyVectorSet fvs;
    fvs.dimension = 20;
    fvs.addInterval(SparseVec{{0, 10.0}, {5, 2.5}}, 1000);
    fvs.addInterval(SparseVec{{3, 7.0}}, 2000);
    fvs.addInterval(SparseVec{{0, 1.0}, {19, 4.0}}, 1500);
    return fvs;
}

} // namespace

TEST(SimPointIo, BbvRoundTrip)
{
    const FrequencyVectorSet original = sampleFvs();
    std::stringstream ss;
    writeBbvFile(ss, original);
    const FrequencyVectorSet parsed = readBbvFile(ss, 20);
    ASSERT_EQ(parsed.size(), original.size());
    EXPECT_EQ(parsed.dimension, 20u);
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(parsed.vectors[i].size(), original.vectors[i].size());
        for (std::size_t j = 0; j < original.vectors[i].size(); ++j) {
            EXPECT_EQ(parsed.vectors[i][j].first,
                      original.vectors[i][j].first);
            EXPECT_DOUBLE_EQ(parsed.vectors[i][j].second,
                             original.vectors[i][j].second);
        }
    }
}

TEST(SimPointIo, BbvFormatIsOneBased)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 3;
    fvs.addInterval(SparseVec{{0, 2.0}}, 1);
    std::stringstream ss;
    writeBbvFile(ss, fvs);
    EXPECT_EQ(ss.str(), "T:1:2 \n");
}

TEST(SimPointIo, LengthsRoundTrip)
{
    const FrequencyVectorSet original = sampleFvs();
    std::stringstream ss;
    writeLengthsFile(ss, original);
    FrequencyVectorSet parsed = sampleFvs();
    parsed.lengths = {1, 1, 1};
    readLengthsFile(ss, parsed);
    EXPECT_EQ(parsed.lengths, original.lengths);
}

TEST(SimPointIo, LengthsCountMismatchFatal)
{
    FrequencyVectorSet fvs = sampleFvs();
    std::stringstream ss("5 6"); // two lengths, three intervals
    EXPECT_EXIT(readLengthsFile(ss, fvs),
                ::testing::ExitedWithCode(1), "entries");
}

TEST(SimPointIo, MalformedLengthsFatal)
{
    // A sign or a word is not a length ("-5" would otherwise wrap to
    // 2^64 - 5), nor is a value past u64.
    for (const auto& [text, message] :
         {std::pair{"100\n-5\n300\n", "line 2: bad length '-5'"},
          std::pair{"100\n+5\n300\n", "line 2: bad length '\\+5'"},
          std::pair{"100 200 300 foo bar\n",
                    "line 1: bad length 'foo'"},
          std::pair{"1\n2\n18446744073709551616\n",
                    "line 3: bad length '18446744073709551616'"}}) {
        FrequencyVectorSet fvs = sampleFvs();
        std::stringstream ss(text);
        EXPECT_EXIT(readLengthsFile(ss, fvs),
                    ::testing::ExitedWithCode(1), message)
            << text;
    }
    // Lengths that each fit but whose total does not would turn the
    // phase weights into garbage.
    FrequencyVectorSet fvs = sampleFvs();
    std::stringstream big("9223372036854775807\n9223372036854775807\n"
                          "9223372036854775807\n");
    EXPECT_EXIT(readLengthsFile(big, fvs), ::testing::ExitedWithCode(1),
                "line 3: total length overflows");
    // The largest total that fits is accepted.
    std::stringstream max("18446744073709551615\n0\n0\n");
    readLengthsFile(max, fvs);
    EXPECT_EQ(fvs.totalInstructions(),
              std::numeric_limits<InstrCount>::max());
}

TEST(SimPointIo, BadBbvLinesFatal)
{
    std::stringstream noPrefix("X:1:2\n");
    EXPECT_EXIT((void)readBbvFile(noPrefix),
                ::testing::ExitedWithCode(1), "expected 'T'");
    std::stringstream zeroIdx("T:0:2\n");
    EXPECT_EXIT((void)readBbvFile(zeroIdx),
                ::testing::ExitedWithCode(1), "dimension index");
    // Signed and out-of-u32 indices are rejected, not wrapped.
    for (const char* text : {"T:-1:1\n", "T:+1:1\n", "T: 1:1\n",
                             "T:4294967296:1\n",
                             "T:4294967297:1\n",
                             "T:99999999999999999999999:1\n"}) {
        std::stringstream bad(text);
        EXPECT_EXIT((void)readBbvFile(bad), ::testing::ExitedWithCode(1),
                    "line 1: bad dimension index")
            << text;
    }
    for (const char* text : {"T:1:nan\n", "T:1:inf\n", "T:1:-inf\n",
                             "T:1:1e999\n"}) {
        std::stringstream bad(text);
        EXPECT_EXIT((void)readBbvFile(bad), ::testing::ExitedWithCode(1),
                    "line 1: non-finite value")
            << text;
    }
    // A valid u32 index above the cap would size a dense projection
    // matrix of 2^32 rows; the cap itself is accepted.
    std::stringstream huge("T:1:1\nT:4294967295:1\n");
    EXPECT_EXIT((void)readBbvFile(huge), ::testing::ExitedWithCode(1),
                "line 2: dimension index 4294967295 is above the cap");
    std::stringstream atCap(format("T:{}:1\n", maxBbvDimension));
    EXPECT_EQ(readBbvFile(atCap).dimension, maxBbvDimension);
    // Finite entries whose sum overflows, merged or not.
    for (const char* text : {"T:1:1e308 :1:1e308\n",
                             "T:1:1e308 :2:1e308\n"}) {
        std::stringstream bad(text);
        EXPECT_EXIT((void)readBbvFile(bad), ::testing::ExitedWithCode(1),
                    "line 1: line total is not finite")
            << text;
    }
    // A BBV entry is an execution count.
    std::stringstream negative("T:1:-5\n");
    EXPECT_EXIT((void)readBbvFile(negative), ::testing::ExitedWithCode(1),
                "line 1: negative count");
}

TEST(SimPointIo, SimpointFilesText)
{
    // The three clustering files, line by line: "representative id",
    // "weight id" and one label per interval.
    SimPointResult result;
    result.k = 2;
    result.labels = {0, 1, 1, 0, 1};
    result.phases = {Phase{0, 3, 0.4, {0, 3}},
                     Phase{1, 2, 0.6, {1, 2, 4}}};
    std::stringstream sims, weights, labels;
    writeSimpointsFile(sims, result);
    writeWeightsFile(weights, result);
    writeLabelsFile(labels, result);
    EXPECT_EQ(sims.str(), "3 0\n2 1\n");
    EXPECT_EQ(weights.str(), "0.4 0\n0.6 1\n");
    EXPECT_EQ(labels.str(), "0\n1\n1\n0\n1\n");
}

// ---------------------------------------------------------------------
// Round-trip property tests for the text BBV format: randomized sets
// with extreme weights, empty vectors and duplicate block ids must
// all survive write -> read bit-exactly (the writer emits %.17g,
// which strtod recovers exactly).

namespace
{

FrequencyVectorSet
randomFvs(u64 seed)
{
    Rng rng(seed);
    FrequencyVectorSet fvs;
    fvs.dimension = 64;
    const std::size_t intervals = 1 + rng.nextBelow(12);
    for (std::size_t i = 0; i < intervals; ++i) {
        SparseVec vec;
        const std::size_t entries = rng.nextBelow(8);  // 0 = empty
        u32 idx = 0;
        for (std::size_t j = 0; j < entries; ++j) {
            idx += 1 + static_cast<u32>(rng.nextBelow(8));
            double value = 0;
            switch (rng.nextBelow(5)) {
              case 0:
                value = rng.nextDouble() * 1e300;  // huge
                break;
              case 1:
                value = rng.nextDouble() * 1e-300;  // tiny
                break;
              case 2:
                value = 5e-324;  // smallest denormal
                break;
              case 3:
                value = static_cast<double>(rng.next());  // integral
                break;
              default:
                value = rng.nextDouble();  // ordinary fraction
            }
            vec.emplace_back(idx, value);
        }
        fvs.addInterval(std::move(vec),
                        rng.nextBelow(1u << 20));
    }
    return fvs;
}

} // namespace

TEST(SimPointIoProperty, RandomizedBbvRoundTripsBitExactly)
{
    for (u64 seed = 1; seed <= 25; ++seed) {
        const FrequencyVectorSet original = randomFvs(seed);
        std::stringstream ss;
        writeBbvFile(ss, original);
        const FrequencyVectorSet parsed =
            readBbvFile(ss, original.dimension);
        ASSERT_EQ(parsed.size(), original.size()) << "seed " << seed;
        // Bitwise equality: pair<u32,double> compares doubles with
        // ==, which is exactly the contract (%.17g is lossless).
        EXPECT_EQ(parsed.vectors, original.vectors)
            << "seed " << seed;
    }
}

TEST(SimPointIoProperty, EmptyVectorsSurvive)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 4;
    fvs.addInterval(SparseVec{}, 10);
    fvs.addInterval(SparseVec{{2, 1.5}}, 20);
    fvs.addInterval(SparseVec{}, 30);
    std::stringstream ss;
    writeBbvFile(ss, fvs);
    const FrequencyVectorSet parsed = readBbvFile(ss, 4);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_TRUE(parsed.vectors[0].empty());
    EXPECT_EQ(parsed.vectors[1], fvs.vectors[1]);
    EXPECT_TRUE(parsed.vectors[2].empty());
}

TEST(SimPointIoProperty, DuplicateBlockIdsAccumulateOnRead)
{
    // A hand-written line with the same (one-based) id three times:
    // frequency semantics say the values add up.
    std::stringstream ss("T:5:1.5 :2:10 :5:2.25 :5:0.25 \n");
    const FrequencyVectorSet parsed = readBbvFile(ss, 8);
    ASSERT_EQ(parsed.size(), 1u);
    const SparseVec expected{{1, 10.0}, {4, 4.0}};
    EXPECT_EQ(parsed.vectors[0], expected);
}

TEST(SimPointIoProperty, ExtremeWeightsRoundTrip)
{
    FrequencyVectorSet fvs;
    fvs.dimension = 3;
    fvs.addInterval(
        SparseVec{{0, std::numeric_limits<double>::max()},
                  {1, std::numeric_limits<double>::denorm_min()},
                  {2, 1.0 / 3.0}},
        1);
    std::stringstream ss;
    writeBbvFile(ss, fvs);
    const FrequencyVectorSet parsed = readBbvFile(ss, 3);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.vectors[0], fvs.vectors[0]);
}
