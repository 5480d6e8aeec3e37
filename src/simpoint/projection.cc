#include "simpoint/projection.hh"

#include <algorithm>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

double
sqDist(std::span<const double> a, std::span<const double> b)
{
    return kernels::sqDist(a.data(), b.data(), a.size());
}

ProjectedData
project(const FrequencyVectorSet& fvs, u32 dims, u64 seed)
{
    if (dims == 0)
        fatal("projection dimension must be > 0");
    ProjectedData out;
    out.allocate(fvs.size(), dims);

    // Dense projection matrix, one row per original dimension, with
    // rows padded to the same stride as the output so the axpy kernel
    // runs tail-free (padded entries are +0.0 and contribute exact
    // +0.0 to padded output lanes).  Entries are drawn in the same
    // flat row-major order as ever, so the matrix values — and hence
    // the projection — are independent of the padded layout.
    Rng rng(hashMix(seed ^ 0x9e3779b97f4a7c15ull));
    const std::size_t stride = out.rowStride();
    std::vector<double> matrix(
        static_cast<std::size_t>(fvs.dimension) * stride, 0.0);
    for (std::size_t r = 0; r < fvs.dimension; ++r) {
        double* mrow = matrix.data() + r * stride;
        for (u32 d = 0; d < dims; ++d)
            mrow[d] = rng.nextDouble(-1.0, 1.0);
    }

    // One multiply-add per (sparse entry x output dim): the dot-op
    // count of a row is nnz * dims regardless of layout or padding,
    // so the counter merges exactly at any --jobs.
    auto& reg = obs::StatRegistry::global();
    obs::Counter dotOps = reg.counter("projection.dotOps");

    // Only one vector per duplicate class goes through the matrix;
    // members copy its row, which is bit-identical to projecting them
    // (equal sparse vectors feed identical arithmetic).
    DedupMap dedup = fvs.dedup();
    ThreadPool& pool = globalPool();
    parallelChunks(
        pool, dedup.classes(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
            obs::ShardCounter ops(dotOps);
            for (std::size_t c = begin; c < end; ++c) {
                const u32 i = dedup.firstOf[c];
                double* row = out.row(i);
                for (const auto& [idx, val] : fvs.vectors[i]) {
                    const double* mrow =
                        matrix.data() +
                        static_cast<std::size_t>(idx) * stride;
                    kernels::axpy(row, mrow, val, stride);
                }
                ops.add(static_cast<u64>(fvs.vectors[i].size()) * dims);
            }
        });
    parallelFor(pool, fvs.size(), [&](std::size_t i) {
        const u32 first = dedup.firstOf[dedup.classOf[i]];
        if (static_cast<std::size_t>(first) != i)
            std::copy_n(out.row(first), stride, out.row(i));
    });
    reg.counter("projection.rows.projected").add(dedup.classes());
    reg.counter("projection.rows.copied")
        .add(fvs.size() - dedup.classes());
    out.classOf = std::move(dedup.classOf);
    out.classFirst = std::move(dedup.firstOf);

    // Instruction-length weights rescaled to sum to the point count.
    const InstrCount total = fvs.totalInstructions();
    if (total > 0 && out.count > 0) {
        const double scale = static_cast<double>(out.count) /
                             static_cast<double>(total);
        for (std::size_t i = 0; i < out.count; ++i) {
            out.weights[i] =
                static_cast<double>(fvs.lengths[i]) * scale;
        }
    }
    return out;
}

} // namespace xbsp::sp
