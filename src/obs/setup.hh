/**
 * @file
 * Command-line and environment plumbing for the observability
 * subsystem.  Tools declare the shared flags with addCliOptions(),
 * then construct one ObsSession after parsing; the session enables
 * tracing/progress/log level for the run and writes the stats, trace
 * and manifest files when flushed (or destroyed).
 *
 * Flags (the paths and log level with an environment fallback, so
 * wrapped invocations can opt in without touching argv):
 *
 *   --stats-out=FILE    / XBSP_STATS=FILE    stats registry JSON
 *   --trace-out=FILE    / XBSP_TRACE=FILE    Chrome trace JSON
 *   --manifest-out=FILE / XBSP_MANIFEST=FILE provenance manifest JSON
 *                                            (defaults to
 *                                            manifest.json next to
 *                                            --stats-out)
 *   --log-level=LEVEL   / XBSP_LOG_LEVEL=    quiet|warn|inform|debug
 *   --progress                               per-step ETA lines
 *   --stats-timers                           include wall-clock
 *                                            timers in --stats-out
 *                                            (breaks cross-jobs
 *                                            byte-identity, off by
 *                                            default)
 */

#ifndef XBSP_OBS_SETUP_HH
#define XBSP_OBS_SETUP_HH

#include <string>

namespace xbsp
{
class Options;
}

namespace xbsp::obs
{

/** Declare the shared observability options on `opts`. */
void addCliOptions(Options& opts);

/**
 * Applies parsed observability options for the lifetime of a tool
 * run; the destructor flushes any requested output files.
 */
class ObsSession
{
  public:
    /** Read the flags declared by addCliOptions() (+ env). */
    explicit ObsSession(const Options& opts);

    /** Flushes output files when requested; warns on failure. */
    ~ObsSession();

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /**
     * Write the requested output files now instead of at
     * destruction.  Unwritable paths warn and continue
     * — a finished run's results must never be lost to a bad output
     * flag — and every file is error-checked after the write, not
     * just at open.  Idempotent.
     */
    void flush();

  private:
    std::string statsPath;
    std::string tracePath;
    std::string manifestPath;
    bool includeTimers = false;
    bool flushed = false;
};

} // namespace xbsp::obs

#endif // XBSP_OBS_SETUP_HH
