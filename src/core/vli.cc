#include "core/vli.hh"

#include <algorithm>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "store/store.hh"
#include "util/logging.hh"

namespace xbsp::core
{

VliCutter::VliCutter(const MappableSet& set, std::size_t bIdx,
                     InstrCount targetSize)
    : mappable(set), binaryIdx(bIdx), target(targetSize)
{
    if (target == 0)
        fatal("VLI interval target must be > 0");
    if (binaryIdx >= mappable.binaryCount)
        fatal("binary index {} out of range ({} binaries)",
              binaryIdx, mappable.binaryCount);
    fireCounts.assign(mappable.points.size(), 0);
}

bool
VliCutter::onMarker(u32 markerId, InstrCount now)
{
    const u32 pointIdx = mappable.pointFor(binaryIdx, markerId);
    if (pointIdx == invalidId)
        return false;
    const u64 count = ++fireCounts[pointIdx];
    if (now - intervalStart < target)
        return false;
    part.boundaries.push_back(Boundary{pointIdx, count});
    intervalStart = now;
    return true;
}

void
VliCutter::finish(InstrCount now)
{
    if (now == intervalStart && !part.boundaries.empty())
        part.boundaries.pop_back();
}

VliBbvCollector::VliBbvCollector(const exec::Engine& eng,
                                 const MappableSet& set,
                                 std::size_t bIdx,
                                 InstrCount targetSize)
    : engine(eng), cutter(set, bIdx, targetSize)
{
    bbvDense.assign(eng.binary().blockCount(), 0.0);
    fvs.dimension = eng.binary().blockCount();
}

void
VliBbvCollector::onBlock(u32 blockId, u32 instrs)
{
    if (bbvDense[blockId] == 0.0)
        bbvTouched.push_back(blockId);
    bbvDense[blockId] += static_cast<double>(instrs);
}

void
VliBbvCollector::closeInterval(InstrCount now)
{
    std::sort(bbvTouched.begin(), bbvTouched.end());
    sp::SparseVec vec;
    vec.reserve(bbvTouched.size());
    for (u32 block : bbvTouched) {
        vec.emplace_back(block, bbvDense[block]);
        bbvDense[block] = 0.0;
    }
    bbvTouched.clear();
    fvs.addInterval(std::move(vec), now - intervalStart);
    intervalStart = now;
}

void
VliBbvCollector::onMarker(u32 markerId)
{
    const InstrCount now = engine.instructionsExecuted();
    if (cutter.onMarker(markerId, now))
        closeInterval(now);
}

void
VliBbvCollector::onRunEnd()
{
    const InstrCount now = engine.instructionsExecuted();
    if (now > intervalStart)
        closeInterval(now);
    cutter.finish(now);
    if (fvs.size() != partition().intervalCount())
        panic("VLI collector inconsistency: {} intervals vs {} "
              "boundaries", fvs.size(), partition().boundaries.size());
}

namespace
{

VliBuild buildVliPartitionUncached(const bin::Binary& primary,
                                   const MappableSet& mappable,
                                   std::size_t primaryIdx,
                                   InstrCount targetSize, u64 seed);

VliPartition mappedPartitionUncached(const bin::Binary& binary,
                                     const MappableSet& mappable,
                                     std::size_t binaryIdx,
                                     InstrCount targetSize, u64 seed);

/** The key of one VLI pass; `kind` tells the artifact types apart. */
serial::Hash128
vliPassKey(const char* kind, const bin::Binary& binary,
           const MappableSet& mappable, std::size_t binaryIdx,
           InstrCount targetSize, u64 seed)
{
    serial::Hasher h;
    h.str(kind);
    bin::hashBinary(h, binary);
    hashMappable(h, mappable);
    h.u64v(binaryIdx);
    h.u64v(targetSize);
    h.u64v(seed);
    return h.finish();
}

} // namespace

serial::Hash128
vliBuildKey(const bin::Binary& primary, const MappableSet& mappable,
            std::size_t primaryIdx, InstrCount targetSize, u64 seed)
{
    return vliPassKey("vli", primary, mappable, primaryIdx, targetSize,
                      seed);
}

VliBuild
buildVliPartition(const bin::Binary& primary,
                  const MappableSet& mappable, std::size_t primaryIdx,
                  InstrCount targetSize, u64 seed)
{
    return store::ArtifactStore::global().getOrCompute<VliBuildCodec>(
        vliBuildKey(primary, mappable, primaryIdx, targetSize, seed),
        "vli", [&] {
            return buildVliPartitionUncached(primary, mappable,
                                             primaryIdx, targetSize,
                                             seed);
        });
}

VliPartition
mappedPartition(const bin::Binary& binary, const MappableSet& mappable,
                std::size_t binaryIdx, InstrCount targetSize, u64 seed)
{
    return store::ArtifactStore::global()
        .getOrCompute<VliPartitionCodec>(
            vliPassKey("vli.partition", binary, mappable, binaryIdx,
                       targetSize, seed),
            "partition", [&] {
                return mappedPartitionUncached(binary, mappable,
                                               binaryIdx, targetSize,
                                               seed);
            });
}

namespace
{

VliBuild
buildVliPartitionUncached(const bin::Binary& primary,
                          const MappableSet& mappable,
                          std::size_t primaryIdx,
                          InstrCount targetSize, u64 seed)
{
    exec::Engine engine(primary, seed);
    VliBbvCollector collector(engine, mappable, primaryIdx,
                              targetSize);
    engine.addObserver(&collector, {true, false, true});
    engine.run();

    VliBuild build;
    build.partition = collector.partition();
    build.intervals = collector.intervals();
    build.totalInstructions = engine.instructionsExecuted();
    return build;
}

/** Engine sink of the candidate pass: markers only, into a cutter. */
struct CutterSink
{
    const exec::Engine& engine;
    VliCutter& cutter;

    bool wantsBlocks() const { return false; }
    bool wantsMems() const { return false; }
    bool wantsMarkers() const { return true; }
    void onBlock(u32, u32) {}
    void onMemRefs(std::span<const mem::MemRef>) {}
    void onRunEnd() {}

    void
    onMarker(u32 markerId)
    {
        cutter.onMarker(markerId, engine.instructionsExecuted());
    }
};

VliPartition
mappedPartitionUncached(const bin::Binary& binary,
                        const MappableSet& mappable,
                        std::size_t binaryIdx, InstrCount targetSize,
                        u64 seed)
{
    exec::Engine engine(binary, seed);
    VliCutter cutter(mappable, binaryIdx, targetSize);
    CutterSink sink{engine, cutter};
    engine.runWith(sink);
    cutter.finish(engine.instructionsExecuted());
    return cutter.partition();
}

} // namespace

BoundaryTracker::BoundaryTracker(const MappableSet& set,
                                 std::size_t bIdx,
                                 const VliPartition& partition,
                                 Callback onBoundary)
    : mappable(set), binaryIdx(bIdx), part(partition),
      callback(std::move(onBoundary))
{
    fireCounts.assign(mappable.points.size(), 0);
    // Sanity: boundary counts never exceed the points' total counts.
    for (const Boundary& b : part.boundaries) {
        if (b.pointIdx >= mappable.points.size())
            panic("boundary references point {} out of range",
                  b.pointIdx);
        if (b.fireCount == 0 ||
            b.fireCount > mappable.points[b.pointIdx].execCount) {
            panic("boundary fire count {} outside point '{}' total {}",
                  b.fireCount,
                  mappable.points[b.pointIdx].key.describe(),
                  mappable.points[b.pointIdx].execCount);
        }
    }
}

void
BoundaryTracker::onMarker(u32 markerId)
{
    const u32 pointIdx = mappable.pointFor(binaryIdx, markerId);
    if (pointIdx == invalidId)
        return;
    const u64 count = ++fireCounts[pointIdx];
    if (next >= part.boundaries.size())
        return;
    const Boundary& expected = part.boundaries[next];
    if (expected.pointIdx == pointIdx) {
        if (count == expected.fireCount) {
            callback(next);
            ++next;
        } else if (count > expected.fireCount) {
            panic("boundary {} ('{}' firing {}) was missed: point is "
                  "now at firing {} — mappable points did not execute "
                  "in the same semantic order",
                  next,
                  mappable.points[pointIdx].key.describe(),
                  expected.fireCount, count);
        }
    }
}

} // namespace xbsp::core
