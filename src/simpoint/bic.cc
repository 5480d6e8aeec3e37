#include "simpoint/bic.hh"

#include <cmath>
#include <numbers>

#include "simpoint/kernels.hh"

namespace xbsp::sp
{

double
bicScore(const ProjectedData& data, const KMeansResult& result)
{
    const double dims = data.dims;
    // Effective totals; weights were rescaled to sum to the point
    // count, so R is (approximately) the number of intervals while
    // still crediting long intervals more.  Summed under the pinned
    // 4-lane reduction order of the clustering kernels.
    const double bigR = kernels::sum(data.weights.data(),
                                     data.weights.size());
    if (bigR <= 0.0)
        return 0.0;

    // Weighted SSE under the final assignment -> MLE variance.
    const double k = result.k;
    double denom = dims * std::max(1.0, bigR - k);
    double variance = result.weightedSse / denom;
    const double varianceFloor = 1e-12;
    variance = std::max(variance, varianceFloor);

    double loglik = 0.0;
    for (u32 c = 0; c < result.k; ++c) {
        const double rn = result.clusterWeight[c];
        if (rn <= 0.0)
            continue;
        loglik += rn * std::log(rn / bigR);
    }
    loglik -= bigR * dims / 2.0 *
              std::log(2.0 * std::numbers::pi * variance);
    loglik -= (bigR - k) * dims / 2.0;

    const double params = k * (dims + 1.0);
    return loglik - params / 2.0 * std::log(bigR);
}

std::vector<double>
normalizeBic(const std::vector<double>& scores)
{
    std::vector<double> out(scores.size(), 1.0);
    if (scores.empty())
        return out;
    double lo = scores[0], hi = scores[0];
    for (double s : scores) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    if (hi - lo <= 0.0)
        return out;
    for (std::size_t i = 0; i < scores.size(); ++i)
        out[i] = (scores[i] - lo) / (hi - lo);
    return out;
}

} // namespace xbsp::sp
