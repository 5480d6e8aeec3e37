/**
 * @file
 * The clustering kernels: squared distance, batched point-vs-
 * centroids distance, axpy and a pinned sum over dense double rows.
 *
 * **The reduction order defines the bits.**  Every reduction uses a
 * pinned 4-lane order: element i is accumulated into lane `i % 4`
 * (elements in increasing i order within each lane) and the four
 * lane partials are combined as `(l0 + l1) + (l2 + l3)`.  axpy has
 * no reduction and is defined elementwise.  All arithmetic is plain
 * IEEE-754 multiply then add; the build pins `-ffp-contract=off` so
 * the compiler can never fuse `a*b+c` into an FMA, which rounds once
 * and would change the bits.  The lane shape lets compilers vectorize
 * without reassociating, so labels, SSE, BIC, phases, reports and
 * artifact-store keys do not depend on the compiler or the host.
 *
 * **Padding.**  Rows padded with +0.0 to a multiple of the lane
 * count are transparent: a zero element contributes `(0-0)^2 = +0.0`
 * to a lane (sqDist/sum accumulators are never -0.0, so adding +0.0
 * is an exact no-op) and `w * 0.0 = +0.0` to an axpy destination that
 * holds +0.0.  Hence a kernel over a padded row of length
 * `padded(dims)` returns the same bits as over the unpadded `dims`
 * prefix — callers pad once (ProjectedData/KMeansResult rows) and
 * kernels then run tail-free.
 */

#ifndef XBSP_SIMPOINT_KERNELS_HH
#define XBSP_SIMPOINT_KERNELS_HH

#include <cstddef>

namespace xbsp::sp::kernels
{

/** Reduction lanes of the pinned kernel semantics. */
inline constexpr std::size_t kLanes = 4;

/** `n` rounded up to a multiple of the lane count. */
constexpr std::size_t
padded(std::size_t n)
{
    return (n + kLanes - 1) / kLanes * kLanes;
}

/** Squared Euclidean distance over n doubles (pinned reduction). */
inline double
sqDist(const double* a, const double* b, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            const double d = a[i + l] - b[i + l];
            acc[l] = acc[l] + d * d;
        }
    }
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        acc[i % kLanes] = acc[i % kLanes] + d * d;
    }
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/**
 * Distances from one point row to k matrix rows spaced `stride`
 * doubles apart, each over the first n doubles; out[c] is exactly
 * sqDist(point, rows + c * stride, n).
 */
inline void
sqDistBatch(const double* point, const double* rows, std::size_t k,
            std::size_t n, std::size_t stride, double* out)
{
    for (std::size_t c = 0; c < k; ++c)
        out[c] = sqDist(point, rows + c * stride, n);
}

/** dst[i] = dst[i] + a * src[i] for i in [0, n) — elementwise. */
inline void
axpy(double* dst, const double* src, double a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = dst[i] + a * src[i];
}

/** Sum of n doubles under the pinned reduction order. */
inline double
sum(const double* a, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] = acc[l] + a[i + l];
    }
    for (; i < n; ++i)
        acc[i % kLanes] = acc[i % kLanes] + a[i];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

} // namespace xbsp::sp::kernels

#endif // XBSP_SIMPOINT_KERNELS_HH
