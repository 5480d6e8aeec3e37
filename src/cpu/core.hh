/**
 * @file
 * The pluggable CPU-backend layer: an abstract timing core behind
 * which any microarchitecture model can sit.
 *
 * A core is an execution observer (exec::Observer) in front of the
 * shared cache::Hierarchy.  The contract every backend must obey:
 *
 *  - **Counters are monotonic.**  cycles() and instructions() only
 *    ever grow during a run; snapshot collectors read them at
 *    interval boundaries (block/marker events) and difference them,
 *    so a backend may never retro-charge cycles to an earlier
 *    interval.
 *  - **Timing is a pure function of the event stream.**  The engine
 *    delivers the identical stream at any --jobs count, so a
 *    conforming core is bit-identical across worker counts by
 *    construction.  No wall-clock, no unseeded randomness, no
 *    iteration over unordered containers.
 *  - **The configuration is part of the result's identity.**  Every
 *    CoreConfig field is hashed into detailedRunKey and the study
 *    config digest (see sim/serial) — unlike --jobs, a core is a
 *    *model* knob, not a speed knob.
 *
 * Backends:
 *  - InOrderCore (cpu/inorder.hh): one cycle per instruction plus
 *    full blocking memory latency — the CMP$im-style seed model.
 *  - DecoupledCore (cpu/decoupled.hh): a staged pipeline with a
 *    decoupled branch-predictor front end (BTB + history predictor,
 *    fetch-target queue, mispredict flush penalty) in front of the
 *    same hierarchy.
 */

#ifndef XBSP_CPU_CORE_HH
#define XBSP_CPU_CORE_HH

#include <memory>
#include <optional>
#include <string_view>

#include "cache/hierarchy.hh"
#include "exec/engine.hh"
#include "util/types.hh"

namespace xbsp::cpu
{

/** Aggregate performance counters of one (partial) execution. */
struct CoreStats
{
    InstrCount instructions = 0;
    Cycles cycles = 0;
    u64 memRefs = 0;

    /** Frontend counters; the in-order model leaves them zero. */
    u64 branches = 0;      ///< block transitions seen by the predictor
    u64 mispredicts = 0;   ///< wrong next-block predictions
    u64 flushes = 0;       ///< mispredicts that discarded FTQ contents
    u64 fetchBubbles = 0;  ///< cycles the backend starved for fetch

    bool operator==(const CoreStats&) const = default;

    /** Cycles per instruction; 0 when nothing executed. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** Which timing backend models the machine. */
enum class CoreKind : u32
{
    InOrder = 0,
    Decoupled = 1
};

/**
 * Full parameterization of a core.  Every field is hashed into store
 * keys; the default value (an in-order core) keeps all pre-existing
 * reports byte-identical.
 * The frontend knobs only apply to CoreKind::Decoupled.
 */
struct CoreConfig
{
    CoreKind kind = CoreKind::InOrder;

    /** Instructions the frontend can fetch per cycle. */
    u32 fetchWidth = 4;

    /** Fetch-target-queue depth, in fetch groups (of fetchWidth). */
    u32 ftqDepth = 16;

    /** log2 of the BTB/direction-predictor table size. */
    u32 predictorBits = 12;

    /** Cycles lost redirecting the frontend on a mispredict. */
    u32 mispredictPenalty = 12;

    bool operator==(const CoreConfig&) const = default;
};

/**
 * Abstract timing core: an execution observer owning the performance
 * counters, attached to a shared (not owned) memory hierarchy.
 * Derived classes implement the event handlers; the counter accessors
 * are non-virtual so snapshot collectors pay no dispatch to read
 * them at interval boundaries.
 */
class Core : public exec::Observer
{
  public:
    explicit Core(cache::Hierarchy& hierarchy) : hier(hierarchy) {}

    /** Running counters (monotonic over the whole run). */
    Cycles cycles() const { return stats.cycles; }
    InstrCount instructions() const { return stats.instructions; }
    const CoreStats& totals() const { return stats; }

    /** The memory system this core is attached to. */
    cache::Hierarchy& hierarchy() { return hier; }

    /**
     * Zero the performance counters.  Microarchitectural state
     * (predictor tables, queues) is deliberately kept: resetting
     * counters mid-run must not change subsequent timing.
     */
    virtual void resetCounters() { stats = CoreStats{}; }

    /**
     * Fold this run's counters into the cpu.* registry series (one
     * atomic add per stat, the Engine::flushStats pattern), so
     * --stats-out shows fetch bubbles, mispredicts and flushes.  Call
     * once, after the run.
     */
    void flushStats() const;

  protected:
    cache::Hierarchy& hier;
    CoreStats stats;
};

/** Display name: "inorder" / "decoupled". */
std::string_view coreKindName(CoreKind kind);

/** Parse a kind name; nullopt (not fatal) on unknown input. */
std::optional<CoreKind> parseCoreKind(std::string_view name);

/**
 * The process-default core kind.  First call resolves the
 * `XBSP_CORE` environment variable ("inorder"/"decoupled"); unset or
 * unknown values select the in-order core.  Thread-safe.
 */
CoreKind activeCoreKind();

/**
 * Force the default kind (the `--core` option).  Returns false
 * (state unchanged, with a warning) on an unknown name.  This is a
 * *model* knob: it changes results and store keys.
 */
bool selectCore(std::string_view name);

/** A CoreConfig with default knobs and the given kind. */
CoreConfig coreConfigFor(CoreKind kind);

/** A CoreConfig with default knobs and the process-default kind. */
CoreConfig defaultCoreConfig();

/**
 * Construct the backend `config` describes over `hierarchy` (not
 * owned; must outlive the core).  Fatal on out-of-range knobs.
 */
std::unique_ptr<Core> makeCore(const CoreConfig& config,
                               cache::Hierarchy& hierarchy);

} // namespace xbsp::cpu

#endif // XBSP_CPU_CORE_HH
