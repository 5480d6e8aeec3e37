/**
 * @file
 * Tests for the experiment harness: table shapes, caching, the
 * default configuration and the ablation report names.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiments.hh"

using namespace xbsp;

namespace
{

harness::ExperimentConfig
quickConfig(std::vector<std::string> workloads)
{
    harness::ExperimentConfig config;
    config.workloads = std::move(workloads);
    config.workScale = 0.15;
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = 100000;
    config.verbose = false;
    return config;
}

} // namespace

TEST(Harness, DefaultConfigMatchesPaper)
{
    const sim::StudyConfig config = harness::defaultStudyConfig();
    EXPECT_EQ(config.simpoint.maxK, 10u);
    EXPECT_EQ(config.simpoint.projectedDims, 15u);
    EXPECT_DOUBLE_EQ(config.simpoint.bicThreshold, 0.9);
    EXPECT_EQ(config.primaryIdx, 0u);
    EXPECT_EQ(config.memory.l1.capacityBytes, 32u * 1024);
    EXPECT_EQ(config.memory.l3.hitLatency, 35u);
}

TEST(Harness, UnknownWorkloadFatal)
{
    EXPECT_EXIT(harness::ExperimentSuite(quickConfig({"nope"})),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Harness, EmptyListMeansFullSuite)
{
    harness::ExperimentSuite suite(quickConfig({}));
    EXPECT_EQ(suite.workloads().size(), 21u);
}

TEST(Harness, Table1Shape)
{
    const Table table = harness::ExperimentSuite::table1(
        cache::HierarchyConfig::paperTable1());
    EXPECT_EQ(table.rowCount(), 4u); // L1, L2, L3, DRAM
    EXPECT_EQ(table.columnCount(), 6u);
    EXPECT_EQ(table.cell(0, 0), "L1D");
    EXPECT_EQ(table.cell(0, 1), "32KB");
    EXPECT_EQ(table.cell(1, 2), "8-way");
    EXPECT_EQ(table.cell(2, 4), "35 cycles");
    EXPECT_EQ(table.cell(3, 0), "DRAM");
}

TEST(Harness, FigureTablesHaveWorkloadRowsPlusAverage)
{
    harness::ExperimentSuite suite(quickConfig({"gzip", "eon"}));
    for (Table table : {suite.figure1(), suite.figure2(),
                        suite.figure3(), suite.figure4(),
                        suite.figure5()}) {
        EXPECT_EQ(table.rowCount(), 3u) << table.caption();
        EXPECT_EQ(table.cell(0, 0), "gzip");
        EXPECT_EQ(table.cell(1, 0), "eon");
        EXPECT_EQ(table.cell(2, 0), "Avg");
    }
}

TEST(Harness, SpeedupTablesHavePairColumns)
{
    harness::ExperimentSuite suite(quickConfig({"gzip"}));
    const Table fig4 = suite.figure4();
    EXPECT_EQ(fig4.columnCount(), 5u); // benchmark + 2 pairs x 2
    const Table fig5 = suite.figure5();
    EXPECT_EQ(fig5.columnCount(), 5u);
}

TEST(Harness, PhaseTablesShapeAndMethods)
{
    harness::ExperimentConfig config = quickConfig({"gcc", "apsi"});
    harness::ExperimentSuite suite(config);
    const Table t2 = suite.table2();
    EXPECT_EQ(t2.columnCount(), 10u);
    EXPECT_GE(t2.rowCount(), 2u);
    EXPECT_LE(t2.rowCount(), 6u); // up to 3 phases x 2 methods
    EXPECT_EQ(t2.cell(0, 0), "VLI");
    const Table t3 = suite.table3();
    EXPECT_GE(t3.rowCount(), 2u);
}

TEST(Harness, StudyCaching)
{
    harness::ExperimentSuite suite(quickConfig({"gzip"}));
    const sim::CrossBinaryStudy& first = suite.study("gzip");
    const sim::CrossBinaryStudy& second = suite.study("gzip");
    EXPECT_EQ(&first, &second);
}

TEST(Harness, MappabilityReportShape)
{
    harness::ExperimentSuite suite(quickConfig({"gzip", "eon"}));
    const Table report = suite.mappabilityReport();
    EXPECT_EQ(report.rowCount(), 2u);
    EXPECT_EQ(report.columnCount(), 5u);
}

TEST(Harness, RenderReportPrintsNamedTablesInOrder)
{
    const harness::ExperimentConfig config = quickConfig({"gzip"});
    harness::ExperimentSuite suite(config);
    std::ostringstream table1, figure3;
    harness::ExperimentSuite::table1(config.study.memory).print(table1);
    table1 << "\n";
    suite.figure3().print(figure3);
    figure3 << "\n";

    EXPECT_EQ(harness::renderReport(config, {"table1", "figure3"}),
              table1.str() + figure3.str());
    // No names means figure3 alone.
    EXPECT_EQ(harness::renderReport(config, {}), figure3.str());
}

TEST(Harness, PrimaryAblationRowsPerBinary)
{
    const harness::ExperimentConfig config = quickConfig({"gzip"});
    const Table table = harness::primaryAblation(config);
    ASSERT_EQ(table.rowCount(), 4u);
    EXPECT_EQ(table.cell(0, 0), "32u");
    EXPECT_EQ(table.cell(1, 0), "32o");
    EXPECT_EQ(table.cell(2, 0), "64u");
    EXPECT_EQ(table.cell(3, 0), "64o");
    // 32u is the default primary: its row is Figure 3's VLI average.
    harness::ExperimentSuite suite(config);
    const Table fig3 = suite.figure3();
    EXPECT_EQ(table.cell(0, 2), fig3.cell(fig3.rowCount() - 1, 2));
}

TEST(Harness, SimpointAblationCentralRowIsTheDefault)
{
    const harness::ExperimentConfig config = quickConfig({"gzip"});
    const std::vector<Table> tables = harness::simpointAblation(config);
    ASSERT_EQ(tables.size(), 5u);
    const Table& early = tables.back();
    ASSERT_EQ(early.rowCount(), 2u);
    EXPECT_EQ(early.cell(0, 0), "central (default)");
    harness::ExperimentSuite suite(config);
    const Table fig3 = suite.figure3();
    const std::size_t avg = fig3.rowCount() - 1;
    EXPECT_EQ(early.cell(0, 1), fig3.cell(avg, 1));  // FLI CPI error
    EXPECT_EQ(early.cell(0, 2), fig3.cell(avg, 2));  // VLI CPI error
}

TEST(Harness, WarmingAblationRowsPerBinary)
{
    const Table table =
        harness::warmingAblation(quickConfig({"gzip", "eon"}));
    ASSERT_EQ(table.rowCount(), 8u);  // 4 binaries per workload
    EXPECT_EQ(table.cell(0, 0), "gzip");
    EXPECT_EQ(table.cell(3, 1), "64o");
    EXPECT_EQ(table.cell(4, 0), "eon");
}

TEST(Harness, AgreementHasWorkloadRowsPlusAverage)
{
    const harness::ExperimentConfig config = quickConfig({"gzip", "eon"});
    harness::ExperimentSuite suite(config);
    const Table table = harness::phaseAgreement(suite);
    ASSERT_EQ(table.rowCount(), 3u);
    EXPECT_EQ(table.cell(0, 0), "gzip");
    EXPECT_EQ(table.cell(1, 0), "eon");
    EXPECT_EQ(table.cell(2, 0), "Avg");

    // `xbsp report agreement` prints the same table.
    std::ostringstream os;
    table.print(os);
    os << "\n";
    EXPECT_EQ(harness::renderReport(config, {"agreement"}), os.str());
}

TEST(Harness, RenderReportUnknownFigureFatal)
{
    EXPECT_EXIT((void)harness::renderReport(quickConfig({"gzip"}),
                                            {"table1", "figure9"}),
                ::testing::ExitedWithCode(1), "unknown figure 'figure9'");
}
