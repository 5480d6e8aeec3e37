/**
 * @file
 * The report names beyond the paper: the SimPoint-configuration,
 * primary-binary and warm-vs-cold ablations, and the cross-binary
 * phase-agreement analysis.  Each ablation runs its own suites over
 * the configured workloads, or over a representative subset when the
 * configuration names none.
 */

#include <utility>

#include "compile/compiler.hh"
#include "core/agreement.hh"
#include "harness/experiments.hh"
#include "sim/region.hh"
#include "util/format.hh"
#include "util/stats.hh"

namespace xbsp::harness
{

namespace
{

/** `config`, with `subset` as its workloads when it names none. */
ExperimentConfig
withDefaultWorkloads(ExperimentConfig config,
                     std::vector<std::string> subset)
{
    if (config.workloads.empty())
        config.workloads = std::move(subset);
    return config;
}

/** The workload subset the SimPoint and primary ablations sweep. */
const std::vector<std::string> kSweepSubset = {"gcc", "apsi", "swim",
                                               "mcf", "crafty"};

/** Suite-wide averages of one configuration's errors. */
struct SuiteAverages
{
    double vliIntervalM;  ///< VLI interval size, millions of instrs
    double fliCpi, vliCpi;
    double fliSpeedup, vliSpeedup;  ///< over Figures 4 and 5's pairs
};

SuiteAverages
suiteAverages(const ExperimentConfig& config)
{
    ExperimentSuite suite(config);
    suite.precompute();
    auto pairs = sim::samePlatformPairs();
    for (const auto& pair : sim::crossPlatformPairs())
        pairs.push_back(pair);

    RunningStat size, fliCpi, vliCpi, fliSpd, vliSpd;
    for (const std::string& name : suite.workloads()) {
        const sim::CrossBinaryStudy& s = suite.study(name);
        size.add(s.avgIntervalSize(sim::Method::MappableVli) / 1e6);
        fliCpi.add(s.avgCpiError(sim::Method::PerBinaryFli));
        vliCpi.add(s.avgCpiError(sim::Method::MappableVli));
        for (const auto& pair : pairs) {
            fliSpd.add(s.speedupError(sim::Method::PerBinaryFli,
                                      pair.a, pair.b));
            vliSpd.add(s.speedupError(sim::Method::MappableVli,
                                      pair.a, pair.b));
        }
    }
    return {size.mean(), fliCpi.mean(), vliCpi.mean(), fliSpd.mean(),
            vliSpd.mean()};
}

/** One row of a SimPoint sweep: a label and the study it runs. */
struct SweepRow
{
    std::string label;
    sim::StudyConfig study;
};

Table
sweepTable(const std::string& caption, const std::vector<SweepRow>& rows,
           const ExperimentConfig& base)
{
    Table table(caption, {"config", "fli CPI err", "vli CPI err",
                          "fli speedup err", "vli speedup err"});
    for (const SweepRow& row : rows) {
        ExperimentConfig config = base;
        config.study = row.study;
        const SuiteAverages avg = suiteAverages(config);
        table.startRow();
        table.addCell(row.label);
        table.addPercent(avg.fliCpi, 2);
        table.addPercent(avg.vliCpi, 2);
        table.addPercent(avg.fliSpeedup, 2);
        table.addPercent(avg.vliSpeedup, 2);
    }
    return table;
}

/** One binary's FLI phase labels on the mapped-interval frame. */
std::vector<u32>
frameLabels(const sim::CrossBinaryStudy& study, std::size_t binaryIdx)
{
    const sim::BinaryStudy& bs = study.perBinary()[binaryIdx];
    std::vector<InstrCount> frames;
    for (const auto& iv : bs.detailedRun.vliIntervals)
        frames.push_back(iv.instrs);
    return core::projectLabelsOntoFrame(
        bs.fliBoundaries, bs.fliClustering.labels, frames);
}

} // namespace

std::vector<Table>
simpointAblation(const ExperimentConfig& config)
{
    const ExperimentConfig base =
        withDefaultWorkloads(config, kSweepSubset);
    const sim::StudyConfig& study = base.study;

    std::vector<SweepRow> dims;
    for (u32 d : {2u, 4u, 8u, 15u, 30u}) {
        SweepRow row{format("dims={}", d), study};
        row.study.simpoint.projectedDims = d;
        dims.push_back(row);
    }
    std::vector<SweepRow> maxk;
    for (u32 k : {3u, 5u, 10u, 20u, 30u}) {
        SweepRow row{format("maxK={}", k), study};
        row.study.simpoint.maxK = k;
        maxk.push_back(row);
    }
    SweepRow plus{"kmeans++", study};
    plus.study.simpoint.init = sp::InitMethod::KMeansPlusPlus;
    SweepRow random{"random-partition", study};
    random.study.simpoint.init = sp::InitMethod::RandomPartition;
    std::vector<SweepRow> intervals;
    for (u64 target : {100'000ull, 250'000ull, 500'000ull,
                       1'000'000ull}) {
        SweepRow row{format("interval={}K", target / 1000), study};
        row.study.intervalTarget = target;
        intervals.push_back(row);
    }
    SweepRow early{"early points (tol 0.3)", study};
    early.study.simpoint.earlyPoints = true;

    return {
        sweepTable("Ablation: random-projection dimensionality", dims,
                   base),
        sweepTable("Ablation: maxK cluster cap", maxk, base),
        sweepTable("Ablation: k-means seeding", {plus, random}, base),
        sweepTable("Ablation: interval target size", intervals, base),
        sweepTable("Ablation: early simulation points",
                   {{"central (default)", study}, early}, base),
    };
}

Table
primaryAblation(const ExperimentConfig& config)
{
    const ExperimentConfig base =
        withDefaultWorkloads(config, kSweepSubset);
    Table table("Ablation: primary binary choice (averages over the "
                "workload subset)",
                {"primary", "vli interval (M)", "vli CPI err",
                 "vli speedup err"});
    const auto targets = compile::standardTargets();
    for (std::size_t primary = 0; primary < targets.size(); ++primary) {
        ExperimentConfig c = base;
        c.study.primaryIdx = primary;
        const SuiteAverages avg = suiteAverages(c);
        table.startRow();
        table.addCell(bin::targetName(targets[primary]));
        table.addNumber(avg.vliIntervalM, 3);
        table.addPercent(avg.vliCpi, 2);
        table.addPercent(avg.vliSpeedup, 2);
    }
    return table;
}

Table
warmingAblation(const ExperimentConfig& config)
{
    const ExperimentConfig base = withDefaultWorkloads(
        config, {"swim", "mcf", "gzip", "eon"});
    ExperimentSuite suite(base);
    suite.precompute();

    Table table("Ablation: warm vs cold sampling (per binary, VLI "
                "simulation points)",
                {"benchmark", "binary", "true CPI", "warm est",
                 "warm err", "cold est", "cold err"});
    for (const std::string& name : suite.workloads()) {
        const sim::CrossBinaryStudy& s = suite.study(name);
        for (std::size_t b = 0; b < s.binaries().size(); ++b) {
            const sim::BinaryStudy& bs = s.perBinary()[b];
            // Rebuild the estimate with cold region replays, through
            // the same request a full detailed run uses.
            sim::DetailedRunRequest request =
                sim::makeRunRequest(base.study);
            request.mappable = &s.mappable();
            request.binaryIdx = b;
            request.partition = &s.partition();
            double coldCpi = 0.0;
            for (const auto& phase : bs.vliEstimate.phases) {
                const sim::IntervalStats cold = sim::simulateVliRegion(
                    s.binaries()[b], request, phase.representative,
                    sim::RegionWarming::Cold);
                coldCpi += phase.weight * cold.cpi();
            }
            table.startRow();
            table.addCell(name);
            table.addCell(bin::targetName(bs.target));
            table.addNumber(bs.vliEstimate.trueCpi, 3);
            table.addNumber(bs.vliEstimate.estCpi, 3);
            table.addPercent(bs.vliEstimate.cpiError, 2);
            table.addNumber(coldCpi, 3);
            table.addPercent(relativeError(bs.vliEstimate.trueCpi,
                                           coldCpi), 2);
        }
    }
    return table;
}

Table
phaseAgreement(ExperimentSuite& suite)
{
    suite.precompute();
    Table table("Phase agreement between per-binary FLI clusterings "
                "(adjusted Rand index on the mapped frame)",
                {"benchmark", "32u/32o", "64u/64o", "32u/64u",
                 "32o/64o", "mean"});
    const std::pair<std::size_t, std::size_t> pairs[] = {
        {0, 1}, {2, 3}, {0, 2}, {1, 3}};
    std::vector<double> means;
    for (const std::string& name : suite.workloads()) {
        const sim::CrossBinaryStudy& study = suite.study(name);
        std::vector<std::vector<u32>> labels;
        for (std::size_t b = 0; b < study.perBinary().size(); ++b)
            labels.push_back(frameLabels(study, b));

        table.startRow();
        table.addCell(name);
        RunningStat stat;
        for (const auto& [a, b] : pairs) {
            const double ari =
                core::adjustedRandIndex(labels[a], labels[b]);
            stat.add(ari);
            table.addNumber(ari, 3);
        }
        table.addNumber(stat.mean(), 3);
        means.push_back(stat.mean());
    }
    table.startRow();
    table.addCell("Avg");
    for (std::size_t c = 0; c < std::size(pairs); ++c)
        table.addCell("");
    table.addNumber(mean(means), 3);
    return table;
}

} // namespace xbsp::harness
