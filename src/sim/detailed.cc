#include "sim/detailed.hh"

#include <memory>

#include "binary/serial.hh"
#include "core/serial.hh"
#include "cpu/decoupled.hh"
#include "cpu/inorder.hh"
#include "cpu/serial.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/serial.hh"
#include "store/store.hh"
#include "util/format.hh"

namespace xbsp::sim
{

namespace
{

DetailedRunResult runDetailedUncached(const bin::Binary& binary,
                                      const DetailedRunRequest& req);

/** The partitions `req` snapshots: its candidates, or its partition. */
std::span<const core::VliPartition>
candidatesOf(const DetailedRunRequest& req)
{
    if (!req.candidates.empty())
        return req.candidates;
    if (req.partition)
        return {req.partition, 1};
    return {};
}

/** Position of `req.partition` among the candidates; panics if absent. */
std::size_t
selectedCandidate(const DetailedRunRequest& req)
{
    const std::span<const core::VliPartition> candidates =
        candidatesOf(req);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i] == *req.partition)
            return i;
    }
    panic("detailed run: the VLI partition ({} intervals) is not among "
          "the {} candidates", req.partition->intervalCount(),
          candidates.size());
}

} // namespace

serial::Hash128
detailedRunKey(const bin::Binary& binary,
               const DetailedRunRequest& req)
{
    serial::Hasher h;
    h.str("detailed");
    bin::hashBinary(h, binary);
    h.u64v(req.fliBoundaries.size());
    for (InstrCount boundary : req.fliBoundaries)
        h.u64v(boundary);
    h.boolean(req.partition != nullptr);
    if (req.partition) {
        core::hashMappable(h, *req.mappable);
        h.u64v(req.binaryIdx);
        const std::span<const core::VliPartition> candidates =
            candidatesOf(req);
        h.u64v(candidates.size());
        for (const core::VliPartition& candidate : candidates)
            core::hashPartition(h, candidate);
    }
    hashHierarchy(h, req.memory);
    cpu::hashCoreConfig(h, req.core);
    h.u64v(req.seed);
    return h.finish();
}

DetailedRunResult
runDetailed(const bin::Binary& binary, const DetailedRunRequest& req)
{
    if (!req.partition && !req.candidates.empty())
        panic("detailed run: VLI candidates without a partition");
    const std::size_t selected =
        req.partition ? selectedCandidate(req) : 0;
    DetailedRunResult result =
        store::ArtifactStore::global().getOrCompute<DetailedRunCodec>(
            detailedRunKey(binary, req), "detailed",
            [&] { return runDetailedUncached(binary, req); });
    if (req.partition) {
        if (selected >= result.candidateIntervals.size())
            panic("detailed run holds {} candidate interval lists, "
                  "expected {}", result.candidateIntervals.size(),
                  candidatesOf(req).size());
        result.vliIntervals = result.candidateIntervals[selected];
    }
    return result;
}

namespace
{

/**
 * Concrete sink for the detailed run, specialized over the timing
 * backend and over which snapshot collectors are attached.  Memory
 * references and block events hit the core first, then the FLI
 * snapshotter (the "core is registered first" contract: snapshotters
 * read fully updated counters); markers go to the core (when its
 * model consumes them) before the VLI snapshotters, one per candidate
 * partition; run-end order matches the legacy registration (core has
 * no run-end hook, then fli, then the vli ones).  Core and observer
 * classes are final, so the whole hot path devirtualizes per backend.
 */
template <typename CoreT, bool HasFli, bool HasVli>
struct DetailedSink
{
    CoreT& core;
    FliSnapshotter* fli;
    std::span<const std::unique_ptr<VliSnapshotter>> vlis;

    bool wantsBlocks() const { return true; }
    bool wantsMems() const { return true; }
    bool wantsMarkers() const { return HasVli || CoreT::usesMarkers; }

    void
    onBlock(u32 blockId, u32 instrs)
    {
        core.onBlock(blockId, instrs);
        if constexpr (HasFli)
            fli->onBlock(blockId, instrs);
    }

    void
    onMemRefs(std::span<const mem::MemRef> refs)
    {
        core.onMemRefs(refs);
    }

    void
    onMarker(u32 markerId)
    {
        if constexpr (CoreT::usesMarkers)
            core.onMarker(markerId);
        if constexpr (HasVli) {
            for (const std::unique_ptr<VliSnapshotter>& vli : vlis)
                vli->onMarker(markerId);
        } else if constexpr (!CoreT::usesMarkers) {
            (void)markerId;
        }
    }

    void
    onRunEnd()
    {
        if constexpr (HasFli)
            fli->onRunEnd();
        if constexpr (HasVli) {
            for (const std::unique_ptr<VliSnapshotter>& vli : vlis)
                vli->onRunEnd();
        }
    }
};

template <typename CoreT, bool HasFli, bool HasVli>
void
runDetailedWith(exec::Engine& engine, CoreT& core, FliSnapshotter* fli,
                std::span<const std::unique_ptr<VliSnapshotter>> vlis)
{
    DetailedSink<CoreT, HasFli, HasVli> sink{core, fli, vlis};
    engine.runWith(sink);
}

/** One full run over a concrete (devirtualized) backend. */
template <typename CoreT>
DetailedRunResult
runDetailedOn(const bin::Binary& binary,
              const DetailedRunRequest& req, CoreT& core,
              cache::Hierarchy& hierarchy)
{
    exec::Engine engine(binary, req.seed);

    std::unique_ptr<FliSnapshotter> fli;
    if (!req.fliBoundaries.empty()) {
        fli = std::make_unique<FliSnapshotter>(engine, core,
                                               req.fliBoundaries);
    }

    // Snapshotters capture `this`, so they live behind pointers.
    std::vector<std::unique_ptr<VliSnapshotter>> vlis;
    for (const core::VliPartition& candidate : candidatesOf(req)) {
        vlis.push_back(std::make_unique<VliSnapshotter>(
            engine, core, *req.mappable, req.binaryIdx, candidate));
    }

    if (fli && !vlis.empty())
        runDetailedWith<CoreT, true, true>(engine, core, fli.get(), vlis);
    else if (fli)
        runDetailedWith<CoreT, true, false>(engine, core, fli.get(), {});
    else if (!vlis.empty())
        runDetailedWith<CoreT, false, true>(engine, core, nullptr, vlis);
    else
        runDetailedWith<CoreT, false, false>(engine, core, nullptr, {});
    core.flushStats();

    DetailedRunResult result;
    result.totals = core.totals();
    result.memory.refs = hierarchy.totalAccesses();
    result.memory.l1Hits = hierarchy.servicedAt(cache::HitLevel::L1);
    result.memory.l2Hits = hierarchy.servicedAt(cache::HitLevel::L2);
    result.memory.l3Hits = hierarchy.servicedAt(cache::HitLevel::L3);
    result.memory.dramAccesses =
        hierarchy.servicedAt(cache::HitLevel::Memory);
    result.memory.dramWritebacks = hierarchy.dramWritebacks();
    if (fli)
        result.fliIntervals = fli->intervals();
    for (const std::unique_ptr<VliSnapshotter>& vli : vlis)
        result.candidateIntervals.push_back(vli->intervals());
    return result;
}

DetailedRunResult
runDetailedUncached(const bin::Binary& binary,
                    const DetailedRunRequest& req)
{
    obs::TraceSpan span(
        format("detailed {}", binary.displayName()), "sim");
    obs::StatRegistry::global().counter("sim.detailedRuns").add();
    cache::Hierarchy hierarchy(req.memory);
    // Dispatch on the backend once, here, so every event of the run
    // flows through a concrete core type.
    if (req.core.kind == cpu::CoreKind::Decoupled) {
        cpu::DecoupledCore core(hierarchy, req.core);
        return runDetailedOn(binary, req, core, hierarchy);
    }
    cpu::InOrderCore core(hierarchy);
    return runDetailedOn(binary, req, core, hierarchy);
}

} // namespace

} // namespace xbsp::sim
