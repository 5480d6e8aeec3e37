/**
 * @file
 * `xbsp` — command-line driver for the library.
 *
 *   xbsp list                         workloads and descriptions
 *   xbsp describe  --workload W --target 32o
 *                                     dump the compiled binary
 *   xbsp bbv       --workload W --target 32u --interval 250000
 *                  --out prefix       collect BBVs -> prefix.bb
 *                                     (+ prefix.lens VLI lengths)
 *   xbsp simpoints --bb file [--lengths file] --maxk 10
 *                  --out prefix       cluster a .bb file (stock
 *                                     SimPoint replacement) ->
 *                                     prefix.simpoints/.weights/.labels
 *   xbsp study     --workload W [--stats] [--regions prefix]
 *                                     full cross-binary pipeline; with
 *                                     --regions, write per-binary
 *                                     region-spec files
 *   xbsp graph     [W...] [--dot] [--run] [--out file]
 *                                     dump the stage task graph the
 *                                     scheduler would execute for the
 *                                     workloads (default --workload)
 *                                     as JSON (or DOT); with --run,
 *                                     execute it first so every node
 *                                     carries its final status
 *   xbsp cache stats|gc|clear         inspect / collect / wipe the
 *                                     artifact cache (--cache-dir or
 *                                     XBSP_CACHE_DIR)
 *   xbsp manifest  [file] [--json]    pretty-print a provenance
 *                                     manifest.json written by
 *                                     --manifest-out / --stats-out
 *   xbsp cores     [--workloads W,...] [--scale S]
 *                                     cross-microarchitecture
 *                                     experiment: the same binaries
 *                                     studied under every timing
 *                                     core (inorder and decoupled),
 *                                     reporting per-binary CPI error
 *                                     and per-pair speedup error
 *                                     under each
 *   xbsp report    [figures...] [--workloads W,...]
 *                                     run the suite (default: all 21
 *                                     workloads) and print the named
 *                                     paper figures and tables
 *                                     (default figure3)
 *
 * Every command that runs pipeline stages honours --cache-dir (or the
 * XBSP_CACHE_DIR environment variable) to memoize compile, profile,
 * clustering, VLI and detailed-simulation artifacts on disk, and
 * --no-cache to force full recomputation.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "binary/binary.hh"
#include "core/regionspec.hh"
#include "cpu/core.hh"
#include "harness/experiments.hh"
#include "obs/setup.hh"
#include "pipeline/taskgraph.hh"
#include "profile/profile.hh"
#include "sim/report.hh"
#include "sim/study.hh"
#include "simpoint/io.hh"
#include "store/store.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

bin::Target
parseTarget(const std::string& name)
{
    for (const auto& target : compile::standardTargets()) {
        if (bin::targetName(target) == name)
            return target;
    }
    fatal("unknown target '{}' (expected 32u/32o/64u/64o)", name);
}

/**
 * Write `path` through `write(std::ostream&)`; fatal (exit 1) if the
 * file cannot be opened or any write to it, the final flush included,
 * fails.
 */
template <typename Write>
void
writeFile(const std::string& path, Write&& write)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '{}'", path);
    write(os);
    os.close();
    if (!os)
        fatal("cannot write '{}'", path);
}

int
cmdList()
{
    for (const auto& info : workloads::suite())
        std::printf("%-10s %s\n", info.name.c_str(),
                    info.description.c_str());
    return 0;
}

int
cmdDescribe(const Options& options)
{
    const bin::Binary binary = compile::compileProgram(
        workloads::makeWorkload(options.getString("workload"),
                                options.getDouble("scale")),
        parseTarget(options.getString("target")));
    std::cout << bin::describe(binary);
    return 0;
}

int
cmdBbv(const Options& options)
{
    const std::string prefix = options.getString("out");
    if (prefix.empty())
        fatal("bbv requires --out <prefix>");
    const bin::Binary binary = compile::compileProgram(
        workloads::makeWorkload(options.getString("workload"),
                                options.getDouble("scale")),
        parseTarget(options.getString("target")));
    const prof::ProfilePass pass = prof::runProfilePass(
        binary, options.getUint("interval"));

    writeFile(prefix + ".bb", [&](std::ostream& os) {
        sp::writeBbvFile(os, pass.fliIntervals);
    });
    writeFile(prefix + ".lens", [&](std::ostream& os) {
        sp::writeLengthsFile(os, pass.fliIntervals);
    });
    inform("wrote {} intervals to {}.bb / {}.lens",
           pass.fliIntervals.size(), prefix, prefix);
    return 0;
}

int
cmdSimpoints(const Options& options)
{
    const std::string bbPath = options.getString("bb");
    if (bbPath.empty())
        fatal("simpoints requires --bb <file>");
    const std::string prefix = options.getString("out");
    if (prefix.empty())
        fatal("simpoints requires --out <prefix>");
    std::ifstream bb(bbPath);
    if (!bb)
        fatal("cannot open '{}'", bbPath);
    sp::FrequencyVectorSet fvs = sp::readBbvFile(bb);
    if (const std::string lens = options.getString("lengths");
        !lens.empty()) {
        std::ifstream ls(lens);
        if (!ls)
            fatal("cannot open '{}'", lens);
        sp::readLengthsFile(ls, fvs);
    }

    sp::SimPointOptions spOptions;
    spOptions.maxK = static_cast<u32>(options.getUint("maxk"));
    spOptions.seed = options.getUint("seed");
    const sp::SimPointResult result =
        sp::pickSimulationPoints(fvs, spOptions);

    writeFile(prefix + ".simpoints", [&](std::ostream& os) {
        sp::writeSimpointsFile(os, result);
    });
    writeFile(prefix + ".weights", [&](std::ostream& os) {
        sp::writeWeightsFile(os, result);
    });
    writeFile(prefix + ".labels", [&](std::ostream& os) {
        sp::writeLabelsFile(os, result);
    });
    inform("{} intervals -> {} phases; wrote {}.simpoints/.weights/"
           ".labels", fvs.size(), result.phases.size(), prefix);
    return 0;
}

int
cmdStudy(const Options& options)
{
    sim::StudyConfig config = harness::defaultStudyConfig();
    config.intervalTarget = options.getUint("interval");
    config.simpoint.maxK = static_cast<u32>(options.getUint("maxk"));
    config.simpoint.seed = options.getUint("seed");
    const sim::CrossBinaryStudy study = sim::CrossBinaryStudy::run(
        workloads::makeWorkload(options.getString("workload"),
                                options.getDouble("scale")),
        config);

    if (options.getBool("stats")) {
        sim::dumpStudyStats(std::cout, study);
    } else {
        std::printf("%s: %zu mappable points, %zu VLI intervals, "
                    "%zu phases\n", study.programName().c_str(),
                    study.mappable().points.size(),
                    study.partition().intervalCount(),
                    study.vliClustering().phases.size());
        for (const auto& bs : study.perBinary()) {
            std::printf("  %-4s true CPI %7.3f  fli err %6.2f%%  "
                        "vli err %6.2f%%\n",
                        bin::targetName(bs.target).c_str(),
                        bs.vliEstimate.trueCpi,
                        bs.fliEstimate.cpiError * 100.0,
                        bs.vliEstimate.cpiError * 100.0);
        }
    }

    if (const std::string prefix = options.getString("regions");
        !prefix.empty()) {
        for (std::size_t b = 0; b < study.perBinary().size(); ++b) {
            const auto& bs = study.perBinary()[b];
            std::vector<double> weights;
            for (const auto& phase : bs.vliEstimate.phases)
                weights.push_back(phase.weight);
            const auto specs = core::buildRegionSpecs(
                study.mappable(), study.partition(),
                study.vliClustering(), b, weights);
            const std::string path =
                prefix + "." + bin::targetName(bs.target) + ".regions";
            writeFile(path, [&](std::ostream& os) {
                core::writeRegionSpecs(os, specs);
            });
            inform("wrote {}", path);
        }
    }
    return 0;
}

/** Suite configuration from the shared study flags (no workloads). */
harness::ExperimentConfig
experimentConfig(const Options& options)
{
    harness::ExperimentConfig config;
    config.workScale = options.getDouble("scale");
    config.study = harness::defaultStudyConfig();
    config.study.intervalTarget = options.getUint("interval");
    config.study.simpoint.maxK =
        static_cast<u32>(options.getUint("maxk"));
    config.study.simpoint.seed = options.getUint("seed");
    return config;
}

int
cmdGraph(const Options& options)
{
    const harness::ExperimentConfig config = experimentConfig(options);

    // Workloads come as positionals after the command; default to
    // the --workload option like the other single-study commands.
    std::vector<std::string> names(options.positional().begin() + 1,
                                   options.positional().end());
    if (names.empty())
        names.push_back(options.getString("workload"));

    harness::SuiteGraph suite;
    harness::buildSuiteGraph(suite, config, names);
    if (options.getBool("run"))
        suite.graph.run(globalPool());

    auto write = [&](std::ostream& os) {
        if (options.getBool("dot")) {
            suite.graph.writeDot(os);
        } else {
            JsonWriter w(os);
            suite.graph.writeJson(w);
            os << '\n';
        }
    };
    if (const std::string path = options.getString("out");
        !path.empty()) {
        writeFile(path, write);
    } else {
        write(std::cout);
    }
    return 0;
}

int
cmdCache(const Options& options)
{
    store::ArtifactStore& store = store::ArtifactStore::global();
    if (store.directory().empty())
        fatal("cache commands need --cache-dir or XBSP_CACHE_DIR");
    if (options.positional().size() < 2)
        fatal("usage: xbsp cache stats|gc|clear");
    const std::string& action = options.positional()[1];

    if (action == "stats") {
        const store::CacheScan scan = store.scan();
        if (options.getBool("json")) {
            JsonWriter w(std::cout);
            w.beginObject();
            w.member("dir", store.directory());
            w.member("entries", scan.entries);
            w.member("bytes", scan.bytes);
            w.member("tempFiles", scan.tempFiles);
            w.endObject();
            std::cout << '\n';
            return 0;
        }
        std::printf("cache %s: %llu entries, %llu bytes"
                    " (%.1f MiB), %llu stray temp files\n",
                    store.directory().c_str(),
                    static_cast<unsigned long long>(scan.entries),
                    static_cast<unsigned long long>(scan.bytes),
                    static_cast<double>(scan.bytes) / (1024.0 * 1024.0),
                    static_cast<unsigned long long>(scan.tempFiles));
        return 0;
    }
    if (action == "gc") {
        const u64 budget =
            options.getUint("budget-mb") * 1024ull * 1024ull;
        const store::GcResult result = store.gc(budget);
        std::printf("cache gc: kept %llu entries (%llu bytes), "
                    "removed %llu entries (%llu bytes)\n",
                    static_cast<unsigned long long>(result.keptEntries),
                    static_cast<unsigned long long>(result.keptBytes),
                    static_cast<unsigned long long>(
                        result.removedEntries),
                    static_cast<unsigned long long>(
                        result.removedBytes));
        return 0;
    }
    if (action == "clear") {
        const u64 removed = store.clear();
        std::printf("cache clear: removed %llu files\n",
                    static_cast<unsigned long long>(removed));
        return 0;
    }
    fatal("unknown cache action '{}' (expected stats, gc or clear)",
          action);
}

int
cmdManifest(const Options& options)
{
    const std::string path = options.positional().size() > 1
                                 ? options.positional()[1]
                                 : std::string("manifest.json");
    JsonValue doc;
    try {
        doc = parseJsonFile(path);
    } catch (const std::exception& e) {
        fatal("cannot read manifest '{}': {}", path, e.what());
    }

    const JsonValue* runs = doc.find("runs");
    if (!runs || !runs->isArray())
        fatal("'{}' is not a manifest (no \"runs\" array)", path);

    if (options.getBool("json")) {
        // Machine-readable mode: round-trip the parsed document
        // through the one canonical emitter (normalized whitespace,
        // member order preserved).
        JsonWriter w(std::cout);
        writeJsonValue(w, doc);
        std::cout << '\n';
        return 0;
    }

    for (std::size_t r = 0; r < runs->size(); ++r) {
        const JsonValue& run = runs->at(r);
        std::printf("run %zu: %s  (config %s, %llu workers, "
                    "%.1f ms)\n",
                    r, run.at("label").asString().c_str(),
                    run.at("configDigest").asString().empty()
                        ? "-"
                        : run.at("configDigest").asString().c_str(),
                    static_cast<unsigned long long>(
                        run.at("workers").asU64()),
                    static_cast<double>(run.at("wallNanos").asU64()) /
                        1e6);
        std::printf("  %4s  %-9s %-8s %-5s %10s %10s %3s  %s\n",
                    "node", "stage", "status", "probe", "wall-ms",
                    "busy-ms", "w", "label");
        const JsonValue& nodes = run.at("nodes");
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const JsonValue& node = nodes.at(i);
            const std::string& key = node.at("storeKey").asString();
            std::printf(
                "  %4llu  %-9s %-8s %-5s %10.2f %10.2f %3llu  "
                "%s%s%s\n",
                static_cast<unsigned long long>(
                    node.at("node").asU64()),
                node.at("stage").asString().c_str(),
                node.at("status").asString().c_str(),
                node.at("probe").asString().c_str(),
                static_cast<double>(node.at("wallNanos").asU64()) /
                    1e6,
                static_cast<double>(node.at("busyNanos").asU64()) /
                    1e6,
                static_cast<unsigned long long>(
                    node.at("worker").asU64()),
                node.at("label").asString().c_str(),
                key.empty() ? "" : "  key=",
                key.empty() ? "" : key.substr(0, 12).c_str());
        }
    }
    return 0;
}

/** Split a comma-separated list, skipping empty segments. */
std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(text);
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
cmdCores(const Options& options)
{
    harness::ExperimentConfig config = experimentConfig(options);
    config.workloads = splitList(options.getString("workloads"));
    if (config.workloads.empty())
        config.workloads.push_back(options.getString("workload"));

    const harness::CrossCoreReport report =
        harness::crossCoreComparison(config);
    report.cpi.print(std::cout);
    std::cout << "\n";
    report.speedup.print(std::cout);
    return 0;
}

int
cmdReport(const Options& options)
{
    harness::ExperimentConfig config = experimentConfig(options);
    config.workloads = splitList(options.getString("workloads"));
    // The report is the deliverable; stderr stays free of progress
    // lines.
    config.verbose = false;
    std::cout << harness::renderReport(
        config, {options.positional().begin() + 1,
                 options.positional().end()});
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options options(
        "xbsp <command> [options] — commands: list, describe, bbv, "
        "simpoints, study, graph, cache, manifest, cores, report");
    options.addString("workload", "workload name", "swim");
    options.addString("target", "binary target (32u/32o/64u/64o)",
                      "32u");
    options.addDouble("scale", "work scale", 1.0);
    options.addUint("interval", "interval target (instructions)",
                    250000);
    options.addUint("maxk", "SimPoint cluster cap", 10);
    options.addUint("seed", "SimPoint seed", 42);
    options.addString("bb", "input .bb file (simpoints command)", "");
    options.addString("lengths", "input lengths file", "");
    options.addString("out", "output path prefix", "");
    options.addString("regions", "region-spec output prefix", "");
    options.addBool("stats", "dump gem5-style stats (study)", false);
    options.addBool("dot", "emit Graphviz DOT instead of JSON (graph)",
                    false);
    options.addBool("run",
                    "execute the graph before dumping it, so nodes "
                    "carry final statuses (graph)", false);
    options.addString("cache-dir",
                      "artifact cache directory (default: "
                      "XBSP_CACHE_DIR)", "");
    options.addBool("cache",
                    "consult the artifact cache (--no-cache forces "
                    "recomputation)", true);
    options.addUint("budget-mb", "byte budget for `cache gc`, in MiB",
                    1024);
    options.addBool("json",
                    "machine-readable output (`cache stats`, "
                    "`manifest`)", false);
    options.addString("workloads",
                      "comma-separated workload subset for `report` "
                      "(empty = full suite) and `cores`", "");
    options.addString("core",
                      "timing core: inorder|decoupled (default: "
                      "XBSP_CORE, else inorder; a model knob — "
                      "changes results and store keys)", "");
    options.addJobs();
    obs::addCliOptions(options);
    if (!options.parse(argc, argv))
        return 0;

    // `manifest` reads another run's output and must not start an
    // ObsSession of its own (it would overwrite that output).
    if (!options.positional().empty() &&
        options.positional()[0] == "manifest")
        return cmdManifest(options);

    options.applyJobs();

    // --core wins over the XBSP_CORE environment variable; it
    // changes results, so it must land before any stage runs.
    if (const std::string mode = options.getString("core");
        !mode.empty() && !cpu::selectCore(mode))
        fatal("unknown --core '{}' (want inorder|decoupled)", mode);

    // Resolve the artifact store before any stage can run: an
    // explicit --cache-dir wins over XBSP_CACHE_DIR (which global()
    // otherwise picks up lazily); --no-cache wins over both.
    if (!options.getBool("cache"))
        store::ArtifactStore::configureGlobal({});
    else if (const std::string dir = options.getString("cache-dir");
             !dir.empty())
        store::ArtifactStore::configureGlobal({dir, true});
    // Writes --stats-out / --trace-out files when main returns.
    obs::ObsSession obsSession(options);

    if (options.positional().empty()) {
        options.printHelp();
        return 1;
    }
    const std::string& command = options.positional()[0];
    if (command == "list")
        return cmdList();
    if (command == "describe")
        return cmdDescribe(options);
    if (command == "bbv")
        return cmdBbv(options);
    if (command == "simpoints")
        return cmdSimpoints(options);
    if (command == "study")
        return cmdStudy(options);
    if (command == "graph")
        return cmdGraph(options);
    if (command == "cache")
        return cmdCache(options);
    if (command == "cores")
        return cmdCores(options);
    if (command == "report")
        return cmdReport(options);
    fatal("unknown command '{}'", command);
}
