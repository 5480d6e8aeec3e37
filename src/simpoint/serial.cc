#include "simpoint/serial.hh"

namespace xbsp::sp
{

void
encodeFvs(serial::Encoder& e, const FrequencyVectorSet& fvs)
{
    e.varint(fvs.dimension);
    e.varint(fvs.vectors.size());
    for (const SparseVec& vec : fvs.vectors) {
        e.varint(vec.size());
        for (const auto& [dim, value] : vec) {
            e.varint(dim);
            e.f64(value);
        }
    }
    e.varint(fvs.lengths.size());
    for (InstrCount length : fvs.lengths)
        e.varint(length);
}

FrequencyVectorSet
decodeFvs(serial::Decoder& d)
{
    FrequencyVectorSet fvs;
    fvs.dimension = static_cast<u32>(d.varint());
    const u64 vectors = d.arrayCount();
    fvs.vectors.reserve(static_cast<std::size_t>(vectors));
    for (u64 i = 0; i < vectors; ++i) {
        const u64 entries = d.arrayCount(9);
        SparseVec vec;
        vec.reserve(static_cast<std::size_t>(entries));
        for (u64 j = 0; j < entries; ++j) {
            const u32 dim = static_cast<u32>(d.varint());
            const double value = d.f64();
            vec.emplace_back(dim, value);
        }
        fvs.vectors.push_back(std::move(vec));
    }
    const u64 lengths = d.arrayCount();
    fvs.lengths.reserve(static_cast<std::size_t>(lengths));
    for (u64 i = 0; i < lengths; ++i)
        fvs.lengths.push_back(d.varint());
    return fvs;
}

void
encodeSimPointResult(serial::Encoder& e, const SimPointResult& r)
{
    e.varint(r.k);
    e.varint(r.labels.size());
    for (u32 label : r.labels)
        e.varint(label);
    e.varint(r.phases.size());
    for (const Phase& phase : r.phases) {
        e.varint(phase.id);
        e.varint(phase.representative);
        e.f64(phase.weight);
        e.varint(phase.members.size());
        for (u32 member : phase.members)
            e.varint(member);
    }
    e.f64(r.chosenBic);
    e.varint(r.bicByK.size());
    for (double bic : r.bicByK)
        e.f64(bic);
}

SimPointResult
decodeSimPointResult(serial::Decoder& d)
{
    SimPointResult r;
    r.k = static_cast<u32>(d.varint());
    const u64 labels = d.arrayCount();
    r.labels.reserve(static_cast<std::size_t>(labels));
    for (u64 i = 0; i < labels; ++i)
        r.labels.push_back(static_cast<u32>(d.varint()));
    const u64 phases = d.arrayCount(11);
    r.phases.reserve(static_cast<std::size_t>(phases));
    for (u64 i = 0; i < phases; ++i) {
        Phase phase;
        phase.id = static_cast<u32>(d.varint());
        phase.representative = static_cast<u32>(d.varint());
        phase.weight = d.f64();
        const u64 members = d.arrayCount();
        phase.members.reserve(static_cast<std::size_t>(members));
        for (u64 j = 0; j < members; ++j)
            phase.members.push_back(static_cast<u32>(d.varint()));
        r.phases.push_back(std::move(phase));
    }
    r.chosenBic = d.f64();
    const u64 bics = d.arrayCount(8);
    r.bicByK.reserve(static_cast<std::size_t>(bics));
    for (u64 i = 0; i < bics; ++i)
        r.bicByK.push_back(d.f64());
    return r;
}

void
hashFvs(serial::Hasher& h, const FrequencyVectorSet& fvs)
{
    h.u32v(fvs.dimension);
    h.u64v(fvs.vectors.size());
    for (const SparseVec& vec : fvs.vectors) {
        h.u64v(vec.size());
        for (const auto& [dim, value] : vec) {
            h.u32v(dim);
            h.f64(value);
        }
    }
    h.u64v(fvs.lengths.size());
    for (InstrCount length : fvs.lengths)
        h.u64v(length);
}

void
hashSimPointOptions(serial::Hasher& h, const SimPointOptions& options)
{
    h.u32v(options.maxK);
    h.u32v(options.projectedDims);
    h.u32v(options.seedsPerK);
    h.f64(options.bicThreshold);
    h.u64v(options.seed);
    h.u64v(static_cast<u64>(options.init));
    h.u32v(options.maxIterations);
    h.boolean(options.earlyPoints);
    h.f64(options.earlyTolerance);
}

} // namespace xbsp::sp
