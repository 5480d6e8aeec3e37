/**
 * @file
 * Variable-length-interval construction over mappable points (paper
 * §3.2.3) and cross-binary boundary tracking (§3.2.5).
 *
 * Execution of the *primary* binary is split into intervals of at
 * least the target size: once the target is reached, the interval
 * closes at the next mappable-point firing, recorded as a
 * (point index, cumulative firing count) pair.  Because mappable
 * points fire the same number of times in the same semantic order in
 * every binary, the same boundary list identifies the same partition
 * of execution in all of them — that is the whole trick.
 *
 * Any binary of the set can be the primary.  mappedPartition() cuts
 * the partition a binary would produce as primary with a marker-only
 * pass (its *candidate* partition), so detailed runs can snapshot
 * every candidate once and serve any primary from the same run.
 */

#ifndef XBSP_CORE_VLI_HH
#define XBSP_CORE_VLI_HH

#include <functional>
#include <vector>

#include "core/mappable.hh"
#include "exec/engine.hh"
#include "simpoint/fvec.hh"
#include "util/serial.hh"

namespace xbsp::core
{

/** One interval boundary: the fireCount-th firing of a point. */
struct Boundary
{
    u32 pointIdx = invalidId;
    u64 fireCount = 0;  ///< cumulative, 1-based

    bool operator==(const Boundary&) const = default;
};

/** An ordered list of interior boundaries (n-1 for n intervals). */
struct VliPartition
{
    std::vector<Boundary> boundaries;

    std::size_t
    intervalCount() const
    {
        return boundaries.size() + 1;
    }

    bool operator==(const VliPartition&) const = default;
};

/**
 * The interval-closing rule, the one place it is written: count every
 * mappable-point firing of one binary, and close the open interval at
 * the first firing at least `target` instructions after it opened.
 * Every VLI pass (the BBV build and the marker-only candidate pass)
 * drives one of these.
 */
class VliCutter
{
  public:
    VliCutter(const MappableSet& mappable, std::size_t binaryIdx,
              InstrCount targetSize);

    /**
     * One firing of `markerId` with `now` instructions executed; true
     * when it closes an interval (a boundary was appended).
     */
    bool onMarker(u32 markerId, InstrCount now);

    /**
     * The run ended at `now` instructions: a boundary that fell
     * exactly on the end would leave an empty final interval, so it
     * is dropped.
     */
    void finish(InstrCount now);

    const VliPartition& partition() const { return part; }

  private:
    const MappableSet& mappable;
    const std::size_t binaryIdx;
    const InstrCount target;
    std::vector<u64> fireCounts;  ///< per mappable point
    VliPartition part;
    InstrCount intervalStart = 0;
};

/**
 * Observer that builds the VLI partition and per-interval BBVs while
 * the primary binary runs (subscribe: blocks + markers).
 */
class VliBbvCollector : public exec::Observer
{
  public:
    VliBbvCollector(const exec::Engine& engine,
                    const MappableSet& mappable, std::size_t binaryIdx,
                    InstrCount targetSize);

    void onBlock(u32 blockId, u32 instrs) override;
    void onMarker(u32 markerId) override;
    void onRunEnd() override;

    /** Per-interval BBVs (with true VLI lengths). */
    const sp::FrequencyVectorSet& intervals() const { return fvs; }

    /** The boundary list, mappable to every other binary. */
    const VliPartition& partition() const { return cutter.partition(); }

  private:
    const exec::Engine& engine;
    VliCutter cutter;
    std::vector<double> bbvDense;
    std::vector<u32> bbvTouched;
    sp::FrequencyVectorSet fvs;
    InstrCount intervalStart = 0;

    void closeInterval(InstrCount now);
};

/** Result of building VLIs on the primary binary. */
struct VliBuild
{
    VliPartition partition;
    sp::FrequencyVectorSet intervals;
    InstrCount totalInstructions = 0;
};

/** Run the primary binary once and build its VLI partition + BBVs. */
VliBuild buildVliPartition(const bin::Binary& primary,
                           const MappableSet& mappable,
                           std::size_t primaryIdx,
                           InstrCount targetSize,
                           u64 seed = 0x5EEDull);

/**
 * Artifact-store key of one VLI build — the exact key
 * buildVliPartition memoizes under (artifact type VliBuildCodec).
 * Exposed so the pipeline scheduler can probe whether a VLI stage is
 * already cached.
 */
serial::Hash128 vliBuildKey(const bin::Binary& primary,
                            const MappableSet& mappable,
                            std::size_t primaryIdx,
                            InstrCount targetSize,
                            u64 seed = 0x5EEDull);

/**
 * The partition `binary` (index `binaryIdx` of the set) would produce
 * as primary, cut by a marker-only pass — equal to
 * buildVliPartition(...).partition without the BBVs.  Memoized in the
 * artifact store under its own stage ("partition"), keyed like
 * vliBuildKey.
 */
VliPartition mappedPartition(const bin::Binary& binary,
                             const MappableSet& mappable,
                             std::size_t binaryIdx,
                             InstrCount targetSize,
                             u64 seed = 0x5EEDull);

/**
 * Observer that replays a boundary list in *any* binary of the set
 * (subscribe: markers).  It fires `onBoundary(i)` exactly when the
 * i-th boundary's (point, count) event occurs, and panics if the
 * semantic-order invariant is violated (a point fires past its
 * expected count) — which would mean the binaries do not actually
 * execute the mappable points in the same order.
 */
class BoundaryTracker : public exec::Observer
{
  public:
    using Callback = std::function<void(std::size_t boundaryIdx)>;

    BoundaryTracker(const MappableSet& mappable, std::size_t binaryIdx,
                    const VliPartition& partition, Callback onBoundary);

    void onMarker(u32 markerId) override;

    /** True when every boundary has been crossed. */
    bool finished() const { return next == part.boundaries.size(); }

    /** Boundaries crossed so far. */
    std::size_t crossed() const { return next; }

  private:
    const MappableSet& mappable;
    const std::size_t binaryIdx;
    const VliPartition& part;
    Callback callback;
    std::vector<u64> fireCounts;
    std::size_t next = 0;
};

} // namespace xbsp::core

#endif // XBSP_CORE_VLI_HH
