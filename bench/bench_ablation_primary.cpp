/**
 * @file
 * Ablation: choice of the primary binary (§3.2.4 notes it can be
 * picked arbitrarily but affects mapped interval sizes).  Runs the
 * VLI pipeline with each of the four binaries as primary and reports
 * the resulting average interval size and estimation errors.
 */

#include "bench_common.hh"
#include "obs/setup.hh"

using namespace xbsp;

int
main(int argc, char** argv)
{
    Options options = bench::makeOptions(
        "bench_ablation_primary: effect of the primary-binary choice "
        "on mappable SimPoint");
    if (!options.parse(argc, argv))
        return 0;
    // Env-only observability (XBSP_STATS / XBSP_MANIFEST / ...).
    obs::ObsSession obsSession;
    harness::ExperimentConfig base = bench::makeConfig(options);
    if (base.workloads.empty())
        base.workloads = {"gcc", "apsi", "swim", "mcf", "crafty"};

    Table table("Ablation: primary binary choice (averages over the "
                "workload subset)",
                {"primary", "vli interval (M)", "vli CPI err",
                 "vli speedup err"});
    const char* primaryNames[] = {"32u", "32o", "64u", "64o"};
    for (std::size_t primary = 0; primary < 4; ++primary) {
        harness::ExperimentConfig config = base;
        config.study.primaryIdx = primary;
        harness::ExperimentSuite suite(config);

        RunningStat size, cpi, spd;
        auto pairs = sim::samePlatformPairs();
        for (const auto& pair : sim::crossPlatformPairs())
            pairs.push_back(pair);
        for (const std::string& name : suite.workloads()) {
            const sim::CrossBinaryStudy& s = suite.study(name);
            size.add(s.avgIntervalSize(sim::Method::MappableVli) / 1e6);
            cpi.add(s.avgCpiError(sim::Method::MappableVli));
            for (const auto& pair : pairs) {
                spd.add(s.speedupError(sim::Method::MappableVli,
                                       pair.a, pair.b));
            }
        }
        table.startRow();
        table.addCell(primaryNames[primary]);
        table.addNumber(size.mean(), 3);
        table.addPercent(cpi.mean(), 2);
        table.addPercent(spd.mean(), 2);
    }
    bench::emit(table, options);
    return 0;
}
