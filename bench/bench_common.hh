/**
 * @file
 * Shared scaffolding for the per-figure/table bench binaries: common
 * command-line options and table emission (text + optional CSV).
 */

#ifndef XBSP_BENCH_COMMON_HH
#define XBSP_BENCH_COMMON_HH

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "harness/experiments.hh"
#include "util/format.hh"
#include "util/options.hh"
#include "util/stats.hh"

namespace xbsp::bench
{

/** Options every experiment bench accepts. */
inline Options
makeOptions(const std::string& description)
{
    Options options(description);
    options.addString("workloads",
                      "comma-separated workload subset (empty = all)",
                      "");
    options.addDouble("scale", "work scale factor", 1.0);
    options.addUint("interval", "interval target in instructions",
                    250000);
    options.addUint("maxk", "SimPoint cluster cap", 10);
    options.addUint("seed", "SimPoint seed", 42);
    options.addBool("csv", "also emit CSV after the table", false);
    options.addBool("verbose", "per-study progress on stderr", true);
    options.addString("core",
                      "timing core: inorder|decoupled (default: "
                      "XBSP_CORE, else inorder; a model knob — "
                      "changes results and store keys)", "");
    options.addJobs();
    options.addString("json",
                      "write a machine-readable timing summary to "
                      "this path (empty = binary's default, if any)",
                      "");
    return options;
}

/** Split a comma-separated list. */
inline std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Build the experiment configuration from parsed options. */
inline harness::ExperimentConfig
makeConfig(const Options& options)
{
    harness::ExperimentConfig config;
    options.applyJobs();
    // A model knob: defaultStudyConfig() below reads the selection.
    if (const std::string mode = options.getString("core");
        !mode.empty())
        cpu::selectCore(mode);
    config.workloads = splitList(options.getString("workloads"));
    config.workScale = options.getDouble("scale");
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = options.getUint("interval");
    config.study.simpoint.maxK =
        static_cast<u32>(options.getUint("maxk"));
    config.study.simpoint.seed = options.getUint("seed");
    config.verbose = options.getBool("verbose");
    return config;
}

/** Print the table (and CSV when asked). */
inline void
emit(const Table& table, const Options& options)
{
    table.print(std::cout);
    if (options.getBool("csv")) {
        std::cout << "\n";
        table.printCsv(std::cout);
    }
    std::cout << "\n";
}

} // namespace xbsp::bench

#endif // XBSP_BENCH_COMMON_HH
