/**
 * @file
 * Runs every paper experiment in one process (studies are cached, so
 * each workload simulates once): Table 1, Figures 1–5, Tables 2–3,
 * plus the mappability diagnostic.  This is the one-shot
 * "reproduce the evaluation section" binary.
 *
 * Besides the tables, it writes a machine-readable timing summary
 * (default BENCH_pipeline.json, override with --json): wall-clock
 * seconds of the suite's studies ("precompute") and of rendering each
 * figure/table, the job count, and the aggregate
 * instructions-simulated-per-second rate of the study pipeline.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>

#include "bench_common.hh"
#include "obs/manifest/manifest.hh"
#include "obs/setup.hh"
#include "obs/stats.hh"
#include "store/store.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

struct FigureTiming
{
    std::string name;
    double seconds = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    Options options = bench::makeOptions(
        "bench_all: reproduce every table and figure of the paper");
    if (!options.parse(argc, argv))
        return 0;
    // Env-only observability: XBSP_STATS/XBSP_MANIFEST dump stats and
    // the provenance manifest at exit (see obs/setup.hh).
    obs::ObsSession obsSession;
    harness::ExperimentConfig config = bench::makeConfig(options);
    harness::ExperimentSuite suite(config);

    using clock = std::chrono::steady_clock;
    std::vector<FigureTiming> timings;
    const auto suiteStart = clock::now();
    auto record = [&](const std::string& name,
                      const std::function<void()>& work) {
        const auto start = clock::now();
        work();
        timings.push_back(
            {name, std::chrono::duration<double>(clock::now() - start)
                       .count()});
    };
    auto timed = [&](const std::string& name,
                     const std::function<Table()>& make) {
        record(name, [&] { bench::emit(make(), options); });
    };

    timed("table1", [&] {
        return harness::ExperimentSuite::table1(config.study.memory);
    });
    // Every study runs here, so each figure entry below times its
    // rendering only (figure1 would otherwise absorb the whole suite).
    record("precompute", [&] { suite.precompute(); });
    timed("figure1", [&] { return suite.figure1(); });
    timed("figure2", [&] { return suite.figure2(); });
    timed("figure3", [&] { return suite.figure3(); });
    timed("figure4", [&] { return suite.figure4(); });
    timed("figure5", [&] { return suite.figure5(); });

    const auto& names = suite.workloads();
    auto has = [&names](const std::string& workload) {
        for (const auto& name : names) {
            if (name == workload)
                return true;
        }
        return false;
    };
    if (has("gcc"))
        timed("table2", [&] { return suite.table2(); });
    if (has("apsi"))
        timed("table3", [&] { return suite.table3(); });
    timed("mappability", [&] { return suite.mappabilityReport(); });

    const double totalSeconds =
        std::chrono::duration<double>(clock::now() - suiteStart)
            .count();
    // Instructions the pipeline simulated: each binary's full
    // instruction stream (the detailed timing run; profiling and the
    // sampled replays are secondary passes over the same stream).
    u64 instructions = 0;
    for (const std::string& name : names) {
        for (const auto& bs : suite.study(name).perBinary())
            instructions += bs.totalInstrs;
    }

    std::string jsonPath = options.getString("json");
    if (jsonPath.empty())
        jsonPath = "BENCH_pipeline.json";
    std::ofstream json(jsonPath);
    if (!json)
        fatal("cannot write '{}'", jsonPath);
    {
        JsonWriter w(json);
        w.beginObject();
        w.member("jobs", configuredJobs());
        w.member("workloads", names.size());
        w.member("total_seconds", totalSeconds, 3);
        w.member("instructions_simulated", instructions);
        w.member("instructions_per_second",
                 static_cast<double>(instructions) / totalSeconds, 0);
        w.key("figures").beginArray();
        for (const FigureTiming& t : timings) {
            w.beginObject();
            w.member("name", t.name);
            w.member("seconds", t.seconds, 3);
            w.endObject();
        }
        w.endArray();
        // Pipeline-wide observability counters (engine event totals,
        // dedup class structure, E-step distances) for run-over-run
        // comparison; exact at any job count.
        w.key("stats");
        obs::StatRegistry::global().writeJson(w, false);
        // Provenance: which nodes each pipeline run computed versus
        // replayed from the store, so a regression in a benchmark
        // number can be traced to a cold cache or a config change.
        w.key("manifest");
        obs::RunManifest::global().writeJson(w);
        w.endObject();
        json << '\n';
    }
    inform("wrote timing summary to {}", jsonPath);

    // Artifact-store cold/warm benchmark: each workload's full study
    // runs twice against a scratch cache directory — the cold run
    // populates it, the warm run reassembles the study from cached
    // artifacts.  The timing pairs land in BENCH_store.json.
    {
        namespace fs = std::filesystem;
        const fs::path cacheDir = "BENCH_store.cache";
        std::error_code ec;
        fs::remove_all(cacheDir, ec);
        store::ArtifactStore::configureGlobal(
            {cacheDir.string(), true});

        struct StoreTiming
        {
            std::string workload;
            double coldSeconds = 0.0;
            double warmSeconds = 0.0;
            u64 warmHits = 0;
        };
        std::vector<StoreTiming> storeTimings;
        obs::StatRegistry& registry = obs::StatRegistry::global();
        for (const std::string& name : names) {
            const ir::Program program =
                workloads::makeWorkload(name, config.workScale);
            StoreTiming t;
            t.workload = name;
            auto start = clock::now();
            sim::CrossBinaryStudy::run(program, config.study);
            t.coldSeconds =
                std::chrono::duration<double>(clock::now() - start)
                    .count();
            const u64 hits0 = registry.counterValue("store.hits");
            start = clock::now();
            sim::CrossBinaryStudy::run(program, config.study);
            t.warmSeconds =
                std::chrono::duration<double>(clock::now() - start)
                    .count();
            t.warmHits = registry.counterValue("store.hits") - hits0;
            storeTimings.push_back(std::move(t));
        }
        store::ArtifactStore::configureGlobal({});
        fs::remove_all(cacheDir, ec);

        std::ofstream storeJson("BENCH_store.json");
        if (!storeJson)
            fatal("cannot write 'BENCH_store.json'");
        JsonWriter w(storeJson);
        w.beginObject();
        w.member("jobs", configuredJobs());
        w.key("workloads").beginArray();
        for (const StoreTiming& t : storeTimings) {
            w.beginObject();
            w.member("workload", t.workload);
            w.member("cold_seconds", t.coldSeconds, 3);
            w.member("warm_seconds", t.warmSeconds, 3);
            w.member("speedup",
                     t.coldSeconds / std::max(t.warmSeconds, 1e-9),
                     1);
            w.member("warm_store_hits", t.warmHits);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        storeJson << '\n';
        inform("wrote store cold/warm summary to BENCH_store.json");
    }

    // Task-graph scheduling benchmark: a set of studies run cold
    // (store disabled above) as one global task graph across all
    // workloads, so BENCH_graph.json records the graph's wall time
    // and worker utilization on this machine.  Capped at a handful
    // of workloads to bound the extra cold recomputation.
    {
        std::vector<std::string> abNames(
            names.begin(),
            names.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min<std::size_t>(names.size(), 6)));
        obs::StatRegistry& registry = obs::StatRegistry::global();

        const u64 busy0 = registry.timerNanos("scheduler.nodeBusy");
        const u64 run0 =
            registry.counterValue("scheduler.nodes.run");
        const auto start = clock::now();
        harness::SuiteGraph suite;
        harness::buildSuiteGraph(suite, config, abNames);
        suite.graph.run(globalPool());
        const double graphSeconds =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        const u64 busyNanos =
            registry.timerNanos("scheduler.nodeBusy") - busy0;
        const unsigned workers = std::max(1u, configuredJobs());
        const double utilization =
            static_cast<double>(busyNanos) /
            (graphSeconds * 1e9 * static_cast<double>(workers));

        std::ofstream graphJson("BENCH_graph.json");
        if (!graphJson)
            fatal("cannot write 'BENCH_graph.json'");
        JsonWriter w(graphJson);
        w.beginObject();
        w.member("jobs", configuredJobs());
        w.key("workloads").beginArray();
        for (const std::string& name : abNames)
            w.value(name);
        w.endArray();
        w.member("graph_seconds", graphSeconds, 3);
        w.key("scheduler").beginObject();
        w.member("nodes", suite.graph.nodeCount());
        w.member("edges", suite.graph.edgeCount());
        w.member("critical_path", suite.graph.criticalPathLength());
        w.member("nodes_run",
                 registry.counterValue("scheduler.nodes.run") - run0);
        w.member("utilization", utilization, 3);
        w.endObject();
        w.endObject();
        graphJson << '\n';
        inform("wrote task-graph summary to BENCH_graph.json ({:.2f}s "
               "over {} workloads)", graphSeconds, abNames.size());
    }

    // Cross-microarchitecture benchmark: the same binaries studied
    // under every timing core (in-order and decoupled-frontend),
    // reporting per-binary CPI error and per-pair speedup error for
    // FLI vs VLI under each.  The timing-independent artifacts
    // (compiles, profiles, clusterings) are shared through the
    // store, so the second core re-runs only the detailed stages.
    {
        using clock = std::chrono::steady_clock;
        const auto start = clock::now();
        const harness::CrossCoreReport cores =
            harness::crossCoreComparison(config);
        const double coresSeconds =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        bench::emit(cores.cpi, options);
        bench::emit(cores.speedup, options);

        std::ofstream coresJson("BENCH_cores.json");
        if (!coresJson)
            fatal("cannot write 'BENCH_cores.json'");
        JsonWriter w(coresJson);
        w.beginObject();
        w.member("jobs", configuredJobs());
        w.member("seconds", coresSeconds, 3);
        const auto writeTable = [&w](const char* key,
                                     const Table& table) {
            w.key(key).beginArray();
            for (std::size_t r = 0; r < table.rowCount(); ++r) {
                w.beginObject();
                for (std::size_t c = 0; c < table.columnCount(); ++c)
                    w.member(table.header(c), table.cell(r, c));
                w.endObject();
            }
            w.endArray();
        };
        writeTable("cpi_error", cores.cpi);
        writeTable("speedup_error", cores.speedup);
        w.endObject();
        coresJson << '\n';
        inform("wrote cross-core summary to BENCH_cores.json "
               "({} CPI rows, {} speedup rows, {:.1f}s)",
               cores.cpi.rowCount(), cores.speedup.rowCount(),
               coresSeconds);
    }
    return 0;
}
