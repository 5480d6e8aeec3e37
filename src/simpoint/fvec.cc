#include "simpoint/fvec.hh"

#include <cstring>
#include <unordered_map>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/serial.hh"
#include "util/threadpool.hh"

namespace xbsp::sp
{

namespace
{

/** Bit pattern of a double (for hashing/comparing without epsilons). */
u64
bits(double value)
{
    u64 out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/**
 * Pinned 128-bit digest of a sparse vector (the frozen util/serial
 * hash, aligned-word fast path).  Probes compare digests first, and
 * only a full-digest match falls through to the verifying element
 * comparison.
 */
serial::Hash128
vectorDigest(const SparseVec& vec)
{
    serial::Hasher h;
    h.u64w(vec.size());
    for (const auto& [idx, val] : vec) {
        h.u64w(idx);
        h.u64w(bits(val));
    }
    return h.finish();
}

/** Bitwise equality of two sparse vectors. */
bool
vectorsEqual(const SparseVec& a, const SparseVec& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first ||
            bits(a[i].second) != bits(b[i].second))
            return false;
    }
    return true;
}

} // namespace

double
sparseSum(const SparseVec& vec)
{
    double sum = 0.0;
    for (const auto& [idx, val] : vec)
        sum += val;
    return sum;
}

void
sparseNormalize(SparseVec& vec)
{
    const double sum = sparseSum(vec);
    if (sum == 0.0)
        return;
    for (auto& [idx, val] : vec)
        val /= sum;
}

void
FrequencyVectorSet::addInterval(SparseVec vec, InstrCount length)
{
    for (std::size_t i = 0; i < vec.size(); ++i) {
        if (vec[i].first >= dimension)
            panic("frequency vector index {} exceeds dimension {}",
                  vec[i].first, dimension);
        if (i > 0 && vec[i].first <= vec[i - 1].first)
            panic("frequency vector indices must be strictly rising");
    }
    vectors.push_back(std::move(vec));
    lengths.push_back(length);
}

void
FrequencyVectorSet::normalize()
{
    for (auto& vec : vectors)
        sparseNormalize(vec);
}

DedupMap
FrequencyVectorSet::dedup() const
{
    auto& reg = obs::StatRegistry::global();
    obs::ScopedTimer buildTimer(reg.timer("dedup.build"));

    DedupMap map;
    map.classOf.resize(vectors.size());

    // Phase 1, parallel: compare each row to its predecessor and
    // digest the rows that start a run.  Phase-structured profiles
    // emit long runs of identical vectors (a loop-dominated phase
    // produces the same interval thousands of times), so most rows
    // resolve on the predecessor comparison — which fails fast on
    // the first differing entry — and never pay the digest.  Rows
    // are independent (row i reads only rows i and i-1, both
    // read-only) and land in preallocated slots, so the result is
    // identical at any --jobs.
    std::vector<serial::Hash128> digests(vectors.size());
    std::vector<unsigned char> sameAsPrev(vectors.size(), 0);
    parallelFor(globalPool(), vectors.size(), [&](std::size_t i) {
        if (i > 0 &&
            vectorsEqual(vectors[i], vectors[i - 1])) {
            sameAsPrev[i] = 1;
            return;
        }
        digests[i] = vectorDigest(vectors[i]);
    });

    // Phase 2, serial in row order (class ids must be assigned in
    // first-appearance order): run members copy the predecessor's
    // class; run heads probe a flat pre-reserved map keyed on the
    // low digest word.  A candidate matches only on the full 128-bit
    // digest AND the verifying element comparison, so two intervals
    // share a class only when their vectors really are bitwise
    // equal — even across digest collisions.  (A run member
    // can never be a class representative, so every firstOf row has
    // a computed digest.)
    std::unordered_map<u64, std::vector<u32>> buckets;
    buckets.reserve(vectors.size());
    for (std::size_t i = 0; i < vectors.size(); ++i) {
        u32 cls;
        if (sameAsPrev[i]) {
            cls = map.classOf[i - 1];
        } else {
            std::vector<u32>& bucket = buckets[digests[i].lo];
            const u32 fresh = static_cast<u32>(map.classes());
            cls = fresh;
            for (u32 candidate : bucket) {
                const u32 rep = map.firstOf[candidate];
                if (digests[rep] == digests[i] &&
                    vectorsEqual(vectors[i], vectors[rep])) {
                    cls = candidate;
                    break;
                }
            }
            if (cls == fresh) {
                bucket.push_back(cls);
                map.firstOf.push_back(static_cast<u32>(i));
            }
        }
        map.classOf[i] = cls;
    }

    reg.counter("dedup.calls").add();
    reg.counter("dedup.intervals").add(vectors.size());
    reg.counter("dedup.classes").add(map.classes());
    // One sample per class so the histogram shows how much arithmetic
    // the per-class clustering path can share.
    std::vector<u64> classSize(map.classes(), 0);
    for (u32 cls : map.classOf)
        ++classSize[cls];
    obs::Distribution sizes = reg.distribution("dedup.classSize");
    for (u64 size : classSize)
        sizes.sample(size);
    return map;
}

InstrCount
FrequencyVectorSet::totalInstructions() const
{
    InstrCount total = 0;
    for (InstrCount len : lengths)
        total += len;
    return total;
}

} // namespace xbsp::sp
