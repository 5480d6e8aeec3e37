#include "simpoint/kmeans.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "obs/stats.hh"
#include "simpoint/kernels.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

namespace
{

/**
 * Registry handles for the k-means hot path, resolved once.  All are
 * exact u64 event counts (never wall-clock), so totals are identical
 * at any worker count.
 */
struct KMeansStats
{
    obs::Counter fits;
    obs::Counter distances;  ///< sqDist evaluations in E-steps
    obs::Distribution iterations;
};

KMeansStats&
kmeansStats()
{
    auto& reg = obs::StatRegistry::global();
    static KMeansStats stats{
        reg.counter("kmeans.fits"),
        reg.counter("kmeans.estep.distances"),
        reg.distribution("kmeans.iterations"),
    };
    return stats;
}

/**
 * The duplicate classes of the data (identity maps when it carries
 * none): `of[i]` is the class of point i, `first[u]` the lowest point
 * index of class u.  Rows of one class are bit-identical, so any
 * computation that depends only on the row — distances, the nearest
 * centroid — is done once per class and broadcast to the members
 * without changing a bit of the result.
 */
struct Classes
{
    std::vector<u32> identity;
    std::span<const u32> of;
    std::span<const u32> first;

    explicit Classes(const ProjectedData& data)
    {
        if (data.hasClasses()) {
            of = data.classOf;
            first = data.classFirst;
            return;
        }
        identity.resize(data.count);
        std::iota(identity.begin(), identity.end(), 0u);
        of = identity;
        first = identity;
    }

    Classes(const Classes&) = delete;
    Classes& operator=(const Classes&) = delete;
};

/**
 * Assign every point to its nearest centroid; returns weighted SSE.
 *
 * The E-step is the k-means hot loop (O(classes * k * dims) per
 * iteration).  Pass 1 scans all k centroids for each class
 * representative; pass 2 broadcasts the owner to the class members
 * and reduces the SSE over the *original* points.  Both passes run in
 * parallel over fixed chunks; the SSE partials are summed in chunk
 * order, and since the chunking depends only on the point count, the
 * float summation order — and therefore the whole clustering — is
 * bit-identical at any worker count and with or without classes.
 */
double
assignLabels(const ProjectedData& data, const Classes& classes,
             const KMeansResult& res, std::vector<u32>& labels)
{
    const std::size_t stride = data.rowStride();
    std::vector<u32> owner(classes.first.size());
    std::vector<double> ownerDist(classes.first.size());
    parallelChunks(
        globalPool(), classes.first.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
            obs::ShardCounter distances(kmeansStats().distances);
            std::vector<double> dist(res.k);
            for (std::size_t u = begin; u < end; ++u) {
                // All k distances in one batched call: the point row
                // stays hot while the centroid matrix streams.  Each
                // dist[c] is bit-for-bit sqDist(point, centroid c).
                kernels::sqDistBatch(data.row(classes.first[u]),
                                     res.centroids.data(), res.k,
                                     stride, res.rowStride(data.dims),
                                     dist.data());
                double best = std::numeric_limits<double>::max();
                u32 bestC = 0;
                for (u32 c = 0; c < res.k; ++c) {
                    if (dist[c] < best) {
                        best = dist[c];
                        bestC = c;
                    }
                }
                owner[u] = bestC;
                ownerDist[u] = best;
            }
            distances.add((end - begin) * static_cast<u64>(res.k));
        });

    std::vector<double> partialSse(parallelChunkCount(data.count), 0.0);
    parallelChunks(
        globalPool(), data.count,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            double sse = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const u32 u = classes.of[i];
                labels[i] = owner[u];
                sse += data.weights[i] * ownerDist[u];
            }
            partialSse[chunk] = sse;
        });
    double sse = 0.0;
    for (double partial : partialSse)
        sse += partial;
    return sse;
}

/** Recompute weighted centroids; returns ids of empty clusters. */
std::vector<u32>
updateCentroids(const ProjectedData& data, KMeansResult& res)
{
    const std::size_t cstride = res.rowStride(data.dims);
    std::fill(res.centroids.begin(), res.centroids.end(), 0.0);
    std::fill(res.clusterWeight.begin(), res.clusterWeight.end(), 0.0);
    // Accumulation stays serial in point order: the reduction order
    // into each centroid is part of the pinned semantics (elementwise
    // axpy per point, points in increasing index order).
    for (std::size_t i = 0; i < data.count; ++i) {
        const u32 c = res.labels[i];
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const double w = data.weights[i];
        kernels::axpy(crow, data.row(i), w, data.rowStride());
        res.clusterWeight[c] += w;
    }
    std::vector<u32> empty;
    for (u32 c = 0; c < res.k; ++c) {
        if (res.clusterWeight[c] <= 0.0) {
            empty.push_back(c);
            continue;
        }
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        for (u32 d = 0; d < data.dims; ++d)
            crow[d] /= res.clusterWeight[c];
    }
    return empty;
}

/** Re-seed an empty cluster with the worst-fitting point. */
void
reseedEmpty(const ProjectedData& data, KMeansResult& res,
            const std::vector<u32>& empty)
{
    const std::size_t cstride = res.rowStride(data.dims);
    for (u32 c : empty) {
        double worst = -1.0;
        std::size_t worstIdx = 0;
        for (std::size_t i = 0; i < data.count; ++i) {
            const u32 owner = res.labels[i];
            if (res.clusterWeight[owner] <= 0.0)
                continue;
            const double d =
                kernels::sqDist(data.row(i),
                                res.centroidRow(owner, data.dims),
                                data.rowStride());
            if (d > worst) {
                worst = d;
                worstIdx = i;
            }
        }
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const auto p = data.point(worstIdx);
        std::copy(p.begin(), p.end(), crow);
        res.labels[worstIdx] = c;
    }
}

/**
 * D^2 seeding.  The distance-to-nearest-centroid table is kept per
 * duplicate class and expanded to per-point sampling probabilities; a
 * member's distance IS its representative's distance (identical
 * rows), so the probabilities, the RNG consumption and every pick are
 * those of a per-point table.
 */
void
initPlusPlus(const ProjectedData& data, const Classes& classes,
             KMeansResult& res, Rng& rng)
{
    // First centroid: weighted-uniform draw.
    auto pickWeighted = [&](const std::vector<double>& probs) {
        double total = 0.0;
        for (double p : probs)
            total += p;
        double r = rng.nextDouble() * total;
        for (std::size_t i = 0; i < probs.size(); ++i) {
            r -= probs[i];
            if (r <= 0.0)
                return i;
        }
        return probs.size() - 1;
    };

    const std::size_t cstride = res.rowStride(data.dims);
    std::size_t first = pickWeighted(data.weights);
    auto setCentroid = [&](u32 c, std::size_t i) {
        double* crow = res.centroids.data() +
                       static_cast<std::size_t>(c) * cstride;
        const auto p = data.point(i);
        std::copy(p.begin(), p.end(), crow);
    };
    setCentroid(0, first);

    std::vector<double> minDist(classes.first.size(),
                                std::numeric_limits<double>::max());
    std::vector<double> probs(data.count);
    for (u32 c = 1; c < res.k; ++c) {
        for (std::size_t u = 0; u < minDist.size(); ++u) {
            const double d =
                kernels::sqDist(data.row(classes.first[u]),
                                res.centroidRow(c - 1, data.dims),
                                data.rowStride());
            minDist[u] = std::min(minDist[u], d);
        }
        for (std::size_t i = 0; i < data.count; ++i)
            probs[i] = data.weights[i] * minDist[classes.of[i]];
        setCentroid(c, pickWeighted(probs));
    }
}

void
initRandomPartition(const ProjectedData& data, KMeansResult& res,
                    Rng& rng)
{
    for (std::size_t i = 0; i < data.count; ++i)
        res.labels[i] = static_cast<u32>(rng.nextBelow(res.k));
    // Guarantee every cluster owns at least one point.
    for (u32 c = 0; c < res.k && c < data.count; ++c)
        res.labels[c] = c;
    const auto empty = updateCentroids(data, res);
    reseedEmpty(data, res, empty);
    // Re-seeding relabels the stolen points, leaving the donor
    // clusters' centroids and weights stale; recompute once so the
    // first E-step sees centroids consistent with the labels.
    if (!empty.empty())
        updateCentroids(data, res);
}

} // namespace

KMeansResult
runKMeans(const ProjectedData& data, u32 k, Rng& rng,
          const KMeansOptions& options)
{
    if (data.count == 0)
        fatal("k-means called with no data points");
    KMeansResult res;
    res.k = std::max<u32>(1, std::min<u32>(
                                 k, static_cast<u32>(data.count)));
    res.labels.assign(data.count, 0);
    // Centroid rows share the data's padded stride so the batched
    // kernels can stream both matrices tail-free.
    res.stride = data.rowStride();
    res.centroids.assign(
        static_cast<std::size_t>(res.k) * res.stride, 0.0);
    res.clusterWeight.assign(res.k, 0.0);

    const Classes classes(data);
    if (options.init == InitMethod::KMeansPlusPlus)
        initPlusPlus(data, classes, res, rng);
    else
        initRandomPartition(data, res, rng);

    std::vector<u32> newLabels(data.count, 0);
    for (u32 iter = 0; iter < options.maxIterations; ++iter) {
        res.iterations = iter + 1;
        res.weightedSse = assignLabels(data, classes, res, newLabels);
        const bool stable = newLabels == res.labels && iter > 0;
        res.labels = newLabels;
        const auto empty = updateCentroids(data, res);
        if (!empty.empty()) {
            reseedEmpty(data, res, empty);
            updateCentroids(data, res);
            continue;
        }
        if (stable) {
            res.converged = true;
            break;
        }
    }
    // Final consistent assignment and SSE against the final
    // centroids; recompute member weights to match the final labels
    // without moving the centroids again.
    res.weightedSse = assignLabels(data, classes, res, res.labels);
    std::fill(res.clusterWeight.begin(), res.clusterWeight.end(), 0.0);
    for (std::size_t i = 0; i < data.count; ++i)
        res.clusterWeight[res.labels[i]] += data.weights[i];
    kmeansStats().fits.add();
    kmeansStats().iterations.sample(res.iterations);
    return res;
}

} // namespace xbsp::sp
