/**
 * @file
 * Frequency-vector containers: the interface between profiling and
 * clustering.  Each interval of execution is represented by a sparse
 * basic-block vector (entry = block id, value = executions weighted
 * by block size) plus the interval's dynamic instruction length —
 * SimPoint 3.0's variable-length-interval input format.
 */

#ifndef XBSP_SIMPOINT_FVEC_HH
#define XBSP_SIMPOINT_FVEC_HH

#include <utility>
#include <vector>

#include "util/types.hh"

namespace xbsp::sp
{

/** Sparse vector: (dimension index, value), indices strictly rising. */
using SparseVec = std::vector<std::pair<u32, double>>;

/** Sum of all values in a sparse vector. */
double sparseSum(const SparseVec& vec);

/** Scale a sparse vector so its values sum to 1 (no-op when empty). */
void sparseNormalize(SparseVec& vec);

/**
 * Duplicate-interval classes over a frequency-vector set.
 *
 * Intervals whose sparse vectors are bitwise equal form one class.  The
 * class representative is the *lowest* original interval index, so a
 * representative's projected row is bit-identical to every member's
 * and any computation that depends only on the vector (distances,
 * nearest-centroid labels) can be done once per class and broadcast
 * to the members without changing a single bit of the result.
 */
struct DedupMap
{
    /** Class id per original interval. */
    std::vector<u32> classOf;

    /** Lowest original interval index per class. */
    std::vector<u32> firstOf;

    /** Number of duplicate classes (= unique vectors). */
    std::size_t classes() const { return firstOf.size(); }
};

/** A set of per-interval frequency vectors for one binary. */
struct FrequencyVectorSet
{
    /** Number of static dimensions (basic blocks in the binary). */
    u32 dimension = 0;

    /** One sparse BBV per interval, in execution order. */
    std::vector<SparseVec> vectors;

    /** Dynamic instructions per interval (VLI weights). */
    std::vector<InstrCount> lengths;

    /** Number of intervals. */
    std::size_t size() const { return vectors.size(); }

    /** Append one interval. */
    void addInterval(SparseVec vec, InstrCount length);

    /** Normalize every vector to sum 1 (SimPoint step 1). */
    void normalize();

    /** Total instructions across all intervals. */
    InstrCount totalInstructions() const;

    /**
     * Group intervals with bitwise-equal vectors into duplicate
     * classes.  Class ids are assigned in order of first appearance,
     * so `firstOf` is strictly ascending.
     */
    DedupMap dedup() const;
};

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_FVEC_HH
