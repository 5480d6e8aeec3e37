/**
 * @file
 * The clustering kernels' bit-level contract: every reduction follows
 * the pinned 4-lane order (checked against an independent strided
 * reference and on an input where summation order changes the
 * result), axpy is elementwise, the batched distance equals the
 * single-row kernel, and padding rows with +0.0 is exactly
 * transparent — across odd lengths, ±0.0, denormals, empty and
 * single-element inputs.  The end-to-end equivalence suite
 * (test_clustering_equiv) builds on this.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "simpoint/kernels.hh"
#include "util/rng.hh"

using namespace xbsp;
namespace kernels = xbsp::sp::kernels;

namespace
{

u64
bits(double v)
{
    u64 out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

/** Lengths hitting every tail residue plus a few large sizes. */
const std::size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,  8,
                                9,  11, 13, 16, 31,  33,  64, 100,
                                255, 1023};

std::vector<double>
randomVec(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (double& x : v)
        x = rng.nextDouble(-3.0, 3.0);
    return v;
}

/**
 * The pinned order written out independently: lane l sums elements
 * l, l+4, l+8, ... in increasing order; lanes combine as
 * (l0 + l1) + (l2 + l3).  `term(i)` is element i's contribution.
 */
template <typename Term>
double
pinnedReduce(std::size_t n, Term term)
{
    double lane[4];
    for (std::size_t l = 0; l < 4; ++l) {
        lane[l] = 0.0;
        for (std::size_t i = l; i < n; i += 4)
            lane[l] = lane[l] + term(i);
    }
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

} // namespace

TEST(Kernels, ReductionsFollowPinnedFourLaneOrder)
{
    for (const std::size_t n : kLengths) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const std::vector<double> a = randomVec(n, 1000 + n);
        const std::vector<double> b = randomVec(n, 2000 + n);
        EXPECT_EQ(bits(kernels::sum(a.data(), n)),
                  bits(pinnedReduce(n, [&](std::size_t i) {
                      return a[i];
                  })));
        EXPECT_EQ(bits(kernels::sqDist(a.data(), b.data(), n)),
                  bits(pinnedReduce(n, [&](std::size_t i) {
                      const double d = a[i] - b[i];
                      return d * d;
                  })));
    }
}

TEST(Kernels, OrderIsVisibleWhereRoundingDependsOnIt)
{
    // Lane 0 holds 1 + 1e16, which rounds to 1e16; the pinned order
    // then yields 1e16 + 2, while a left-to-right sum gives 1e16 + 4.
    const double a[] = {1.0, 1.0, 1.0, 1.0, 1e16};
    EXPECT_EQ(kernels::sum(a, 5), 1e16 + 2.0);
    double sequential = 0.0;
    for (const double x : a)
        sequential += x;
    EXPECT_EQ(sequential, 1e16 + 4.0);

    const double p[] = {1.0, 1.0, 1.0, 1.0, 1e8};
    const double zero[5] = {};
    EXPECT_EQ(kernels::sqDist(p, zero, 5), 1e16 + 2.0);
}

TEST(Kernels, AxpyIsElementwise)
{
    for (const std::size_t n : kLengths) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const std::vector<double> src = randomVec(n, 4000 + n);
        const std::vector<double> before = randomVec(n, 5000 + n);
        std::vector<double> dst = before;
        kernels::axpy(dst.data(), src.data(), 1.7, n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bits(dst[i]), bits(before[i] + 1.7 * src[i]))
                << "i=" << i;
        }
    }
}

TEST(Kernels, BatchMatchesSingleRowKernel)
{
    for (const std::size_t dims : {1ul, 3ul, 8ul, 15ul}) {
        const std::size_t stride = kernels::padded(dims);
        const std::size_t k = 7;
        const std::vector<double> point = randomVec(stride, 42 + dims);
        std::vector<double> rows(k * stride, 0.0);
        for (std::size_t c = 0; c < k; ++c) {
            const std::vector<double> row = randomVec(dims, 77 * c + dims);
            std::copy(row.begin(), row.end(),
                      rows.begin() + c * stride);
        }
        std::vector<double> out(k, -1.0);
        kernels::sqDistBatch(point.data(), rows.data(), k, stride,
                             stride, out.data());
        for (std::size_t c = 0; c < k; ++c) {
            SCOPED_TRACE("dims=" + std::to_string(dims) +
                         " c=" + std::to_string(c));
            EXPECT_EQ(bits(out[c]),
                      bits(kernels::sqDist(point.data(),
                                           rows.data() + c * stride,
                                           stride)));
        }
    }
}

TEST(Kernels, SpecialValuesFollowPinnedOrder)
{
    const double denorm = std::numeric_limits<double>::denorm_min();
    const std::vector<double> a{+0.0, -0.0, denorm,  -denorm, 1e-308,
                                -0.0, +0.0, -denorm, denorm};
    const std::vector<double> b{-0.0, +0.0, -denorm, denorm,  -1e-308,
                                +0.0, -0.0, denorm,  -denorm};
    for (std::size_t n = 0; n <= a.size(); ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        EXPECT_EQ(bits(kernels::sum(a.data(), n)),
                  bits(pinnedReduce(n, [&](std::size_t i) {
                      return a[i];
                  })));
        EXPECT_EQ(bits(kernels::sqDist(a.data(), b.data(), n)),
                  bits(pinnedReduce(n, [&](std::size_t i) {
                      const double d = a[i] - b[i];
                      return d * d;
                  })));
    }
}

TEST(Kernels, EmptyAndSingleElementInputs)
{
    // n == 0: exactly +0.0, never -0.0 or garbage.
    EXPECT_EQ(bits(kernels::sqDist(nullptr, nullptr, 0)), bits(+0.0));
    EXPECT_EQ(bits(kernels::sum(nullptr, 0)), bits(+0.0));
    kernels::axpy(nullptr, nullptr, 2.0, 0); // must not touch memory

    const double a = 1.5, b = -0.25;
    EXPECT_EQ(bits(kernels::sqDist(&a, &b, 1)), bits((a - b) * (a - b)));
    EXPECT_EQ(bits(kernels::sum(&a, 1)), bits(a));
}

TEST(Kernels, PaddingWithPositiveZeroIsTransparent)
{
    for (const std::size_t n : {1ul, 3ul, 5ul, 13ul, 15ul}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const std::size_t padded = kernels::padded(n);
        std::vector<double> a = randomVec(n, 6000 + n);
        std::vector<double> b = randomVec(n, 7000 + n);
        a.resize(padded, +0.0);
        b.resize(padded, +0.0);
        EXPECT_EQ(bits(kernels::sqDist(a.data(), b.data(), padded)),
                  bits(kernels::sqDist(a.data(), b.data(), n)));
        EXPECT_EQ(bits(kernels::sum(a.data(), padded)),
                  bits(kernels::sum(a.data(), n)));

        // axpy over the padded length must leave +0.0 padding intact.
        std::vector<double> dst(padded, +0.0);
        kernels::axpy(dst.data(), a.data(), -2.5, padded);
        for (std::size_t i = n; i < padded; ++i)
            EXPECT_EQ(bits(dst[i]), bits(+0.0)) << "i=" << i;
    }
}
