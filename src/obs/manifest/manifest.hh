/**
 * @file
 * Per-run provenance manifests.  Every TaskGraph::run() appends one
 * ManifestRun to the process-global RunManifest: one entry per node,
 * in node-id order (the graph's topological/commit order), recording
 * what the run actually did — which stage, whether the artifact
 * store served it (probe "hit") or it computed ("miss"; "none" for
 * unprobed nodes), how long it ran on the wall and on a worker,
 * which worker executed it, and the content-address (stage key) of
 * what it produced.  ObsSession::flush() writes the collected runs
 * as `manifest.json` next to --stats-out, so a timing can always be
 * traced back to exactly which artifacts were rebuilt versus
 * replayed.
 *
 * Store keys are captured through lazy provenance callbacks
 * (TaskGraph::setProvenance) evaluated only for nodes that actually
 * completed — some stage keys (a binary's detailed-run key) only
 * exist after upstream matching has resolved.
 *
 * Entry order is load-bearing: tests assert it equals node-id order,
 * and that per-run probe tallies agree with the scheduler's
 * store-probe counters.  Timing/worker fields are genuinely
 * nondeterministic; everything else is bit-stable across --jobs.
 */

#ifndef XBSP_OBS_MANIFEST_MANIFEST_HH
#define XBSP_OBS_MANIFEST_MANIFEST_HH

#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"

namespace xbsp
{
class JsonWriter;
}

namespace xbsp::obs
{

/** Provenance of one pipeline node. */
struct ManifestEntry
{
    u64 node = 0;             ///< NodeId == position in the run
    std::string label;        ///< display name ("profile gzip/a")
    std::string stage;        ///< stage kind ("compile", "profile")
    std::string status;       ///< nodeStatusName: "done", "cache", ...
    std::string probe;        ///< "hit", "miss", or "none"
    u64 wallNanos = 0;        ///< ready -> settled, wall clock
    u64 busyNanos = 0;        ///< work-function execution time
    u64 worker = 0;           ///< pool worker id (0 = scheduler)
    std::string storeKey;     ///< stage key hex ("" when none)
};

/** One TaskGraph execution's worth of entries. */
struct ManifestRun
{
    std::string label;         ///< graph label ("study gzip")
    std::string configDigest;  ///< study config hash ("" when unset)
    u64 startWallMillis = 0;   ///< system clock at run() entry
    u64 wallNanos = 0;         ///< run() entry -> exit
    u64 workers = 0;           ///< configured pool size
    std::vector<ManifestEntry> entries;  ///< node-id order
};

/** Process-global accumulator; see the file comment. */
class RunManifest
{
  public:
    RunManifest() = default;

    RunManifest(const RunManifest&) = delete;
    RunManifest& operator=(const RunManifest&) = delete;

    /** The manifest every TaskGraph::run() reports into. */
    static RunManifest& global();

    void addRun(ManifestRun run);

    /** Snapshot of the collected runs. */
    std::vector<ManifestRun> runs() const;

    bool empty() const;
    std::size_t runCount() const;

    /** Drop everything (tests, repeated in-process runs). */
    void clear();

    /**
     * Emit the manifest as one JSON object value: {"runs": [...]}
     * with entries in recorded (node-id) order.
     */
    void writeJson(JsonWriter& w) const;

    /**
     * Write a standalone manifest.json.  Returns false (no throw) on
     * I/O failure — provenance must never kill a finished run.
     */
    bool writeJsonFile(const std::string& path) const;

  private:
    mutable std::mutex mutex;
    std::vector<ManifestRun> collected;
};

} // namespace xbsp::obs

#endif // XBSP_OBS_MANIFEST_MANIFEST_HH
