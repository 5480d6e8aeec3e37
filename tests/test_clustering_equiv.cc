/**
 * @file
 * Equivalence guard for the clustering engine.  Projection and the
 * k-means E-step work once per duplicate class and broadcast to the
 * class members, so their results must not depend on the class
 * structure: runKMeans on data carrying classes equals the same data
 * with the classes stripped (every point its own class, the plain
 * per-point scan), and each projected row equals the row projected
 * from its interval alone.  A pinned digest of the full SimPoint
 * sweep on real profile data (3 workloads x 4 compilation targets)
 * fixes the results at 1 and N worker threads.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "compile/compiler.hh"
#include "obs/stats.hh"
#include "profile/profile.hh"
#include "simpoint/simpoint.hh"
#include "util/serial.hh"
#include "util/threadpool.hh"
#include "workloads/workloads.hh"

using namespace xbsp;
using namespace xbsp::sp;

namespace
{

/** Exact equality of two runKMeans outputs. */
void
expectIdenticalKMeans(const KMeansResult& a, const KMeansResult& b)
{
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.centroids, b.centroids);
    EXPECT_EQ(a.clusterWeight, b.clusterWeight);
    EXPECT_EQ(a.weightedSse, b.weightedSse);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
}

/** Attach the duplicate classes of `data`'s rows (bitwise equality). */
ProjectedData
withClasses(ProjectedData data)
{
    const std::size_t bytes = data.rowStride() * sizeof(double);
    data.classOf.assign(data.count, 0);
    data.classFirst.clear();
    for (std::size_t i = 0; i < data.count; ++i) {
        u32 cls = static_cast<u32>(data.classFirst.size());
        for (u32 c = 0; c < data.classFirst.size(); ++c) {
            if (std::memcmp(data.row(i), data.row(data.classFirst[c]),
                            bytes) == 0) {
                cls = c;
                break;
            }
        }
        if (cls == data.classFirst.size())
            data.classFirst.push_back(static_cast<u32>(i));
        data.classOf[i] = cls;
    }
    return data;
}

/** `data` with its duplicate classes removed. */
ProjectedData
stripped(ProjectedData data)
{
    data.classOf.clear();
    data.classFirst.clear();
    return data;
}

/** Gaussian blobs with exact duplicate points mixed in. */
ProjectedData
blobData(std::size_t count, u32 dims, u32 blobs, u64 seed)
{
    Rng rng(seed);
    ProjectedData data;
    data.dims = dims;
    data.count = count;
    data.points.resize(count * dims);
    data.weights.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t blob = i % blobs;
        if (i >= blobs && i % 3 == 0) {
            // Exact duplicate of an earlier point in the same blob.
            for (u32 d = 0; d < dims; ++d)
                data.points[i * dims + d] =
                    data.points[(i - blobs) * dims + d];
        } else {
            for (u32 d = 0; d < dims; ++d)
                data.points[i * dims + d] =
                    10.0 * static_cast<double>(blob) +
                    rng.nextGaussian();
        }
        data.weights[i] = rng.nextDouble(0.5, 2.0);
    }
    return data;
}

/** The gzip / 32o FLI profile at 10K-instruction intervals. */
const prof::ProfilePass&
gzipPass()
{
    static const prof::ProfilePass pass = [] {
        const ir::Program program = workloads::makeWorkload("gzip", 1.0);
        return prof::runProfilePass(
            compile::compileProgram(program, bin::target32o), 10000);
    }();
    return pass;
}

/** Fold every field of a SimPoint result into `h`. */
void
hashResult(serial::Hasher& h, const SimPointResult& r)
{
    h.u32v(r.k);
    h.u64v(r.labels.size());
    for (u32 label : r.labels)
        h.u32v(label);
    h.u64v(r.phases.size());
    for (const Phase& p : r.phases) {
        h.u32v(p.id);
        h.u32v(p.representative);
        h.f64(p.weight);
        h.u64v(p.members.size());
        for (u32 m : p.members)
            h.u32v(m);
    }
    h.f64(r.chosenBic);
    h.u64v(r.bicByK.size());
    for (double bic : r.bicByK)
        h.f64(bic);
}

} // namespace

TEST(KMeansEquiv, ClassesMatchStrippedAcrossKAndInit)
{
    const ProjectedData data = withClasses(blobData(240, 8, 5, 77));
    ASSERT_LT(data.classFirst.size(), data.count);
    const ProjectedData plain = stripped(data);
    for (const InitMethod init :
         {InitMethod::KMeansPlusPlus, InitMethod::RandomPartition}) {
        for (const u32 k : {1u, 2u, 4u, 5u, 9u, 16u}) {
            SCOPED_TRACE("init " + std::to_string(static_cast<int>(
                             init)) + " k " + std::to_string(k));
            KMeansOptions opts;
            opts.init = init;
            Rng rngA(k * 13 + 1);
            Rng rngB = rngA;
            expectIdenticalKMeans(runKMeans(data, k, rngA, opts),
                                  runKMeans(plain, k, rngB, opts));
        }
    }
}

TEST(KMeansEquiv, ClassesMatchStrippedOnDegenerateData)
{
    // All points identical: every re-seeding path triggers, and the
    // whole set is one duplicate class.
    ProjectedData flat;
    flat.dims = 3;
    flat.count = 12;
    flat.points.assign(flat.count * flat.dims, 0.25);
    flat.weights.assign(flat.count, 1.0);
    const ProjectedData classed = withClasses(flat);
    ASSERT_EQ(classed.classFirst.size(), 1u);
    for (const u32 k : {1u, 3u, 12u}) {
        Rng rngA(5);
        Rng rngB = rngA;
        expectIdenticalKMeans(runKMeans(classed, k, rngA),
                              runKMeans(flat, k, rngB));
    }
}

TEST(KMeansEquiv, ClassesMatchStrippedOnProfileData)
{
    FrequencyVectorSet fvs = gzipPass().fliIntervals;
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 42);
    ASSERT_TRUE(data.hasClasses());
    ASSERT_LT(data.classFirst.size(), data.count);
    const ProjectedData plain = stripped(data);
    for (const u32 k : {1u, 4u, 10u}) {
        Rng rngA(k);
        Rng rngB = rngA;
        expectIdenticalKMeans(runKMeans(data, k, rngA),
                              runKMeans(plain, k, rngB));
    }
}

TEST(ProjectionEquiv, RowsMatchOneIntervalProjections)
{
    // The matrix depends only on the seed and the dimension, so a
    // one-interval set projects to exactly the row the interval gets
    // inside the full set — whether it heads a duplicate class or
    // copies its class representative's row.
    FrequencyVectorSet fvs = gzipPass().fliIntervals;
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 7);
    ASSERT_EQ(data.classOf.size(), fvs.size());
    ASSERT_LT(data.classFirst.size(), fvs.size());
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        FrequencyVectorSet one;
        one.dimension = fvs.dimension;
        one.addInterval(fvs.vectors[i], fvs.lengths[i]);
        const ProjectedData single = project(one, 15, 7);
        ASSERT_EQ(std::memcmp(single.row(0), data.row(i),
                              data.rowStride() * sizeof(double)),
                  0)
            << "interval " << i;
    }
}

/**
 * The full sweep (dedup, per-class E-step, parallel (k, seed) fits)
 * on the FLI profile vectors of every binary of three workloads, at
 * 1 and 4 workers.  The digest was taken from the per-point k-means
 * path that preceded the per-class one, so it pins that the class
 * structure changes no bit of any result.
 */
TEST(ClusteringEquiv, WorkloadSweepsMatchPinnedDigest)
{
    SimPointOptions opts;
    opts.maxK = 10;
    for (const u64 jobs : {u64{1}, u64{4}}) {
        setGlobalJobs(jobs);
        serial::Hasher digest;
        for (const char* name : {"gzip", "mcf", "swim"}) {
            const ir::Program program =
                workloads::makeWorkload(name, 1.0);
            for (const bin::Binary& binary :
                 compile::compileAllTargets(program)) {
                // A small interval target yields thousands of
                // intervals with heavy exact duplication.
                const prof::ProfilePass pass =
                    prof::runProfilePass(binary, 10000);
                ASSERT_GT(pass.fliIntervals.size(), 100u);
                digest.str(binary.displayName());
                hashResult(digest,
                           pickSimulationPoints(pass.fliIntervals, opts));
            }
        }
        EXPECT_EQ(digest.finish().hex(),
                  "7e91ff741929c69df69894b0239aa6c7")
            << "jobs " << jobs;
    }
    setGlobalJobs(0);
}

/**
 * The counters show where the E-step work goes: every E-step scans
 * all k centroids once per duplicate class, which on phase-structured
 * profiles is strictly fewer distances than once per interval.
 */
TEST(ClusteringEquiv, EStepDistancesCountClassesTimesK)
{
    FrequencyVectorSet fvs = gzipPass().fliIntervals;
    fvs.normalize();
    const ProjectedData data = project(fvs, 15, 42);
    const u64 classes = data.classFirst.size();
    ASSERT_LT(classes, data.count);

    obs::StatRegistry& reg = obs::StatRegistry::global();
    for (const u32 k : {1u, 4u, 10u}) {
        Rng rng(k);
        const u64 before = reg.counterValue("kmeans.estep.distances");
        const KMeansResult res = runKMeans(data, k, rng);
        const u64 distances =
            reg.counterValue("kmeans.estep.distances") - before;
        // One E-step per iteration plus the final assignment.
        const u64 esteps = res.iterations + 1;
        EXPECT_EQ(distances, classes * res.k * esteps) << "k " << k;
        EXPECT_LT(distances, data.count * res.k * esteps) << "k " << k;
    }

    // The sweep-level stats move too.
    const u64 sweeps = reg.counterValue("simpoint.sweeps");
    const u64 dedups = reg.counterValue("dedup.calls");
    SimPointOptions opts;
    opts.maxK = 10;
    (void)pickSimulationPoints(gzipPass().fliIntervals, opts);
    EXPECT_EQ(reg.counterValue("simpoint.sweeps"), sweeps + 1);
    EXPECT_EQ(reg.counterValue("dedup.calls"), dedups + 1);
    EXPECT_GT(reg.counterValue("kmeans.fits"), 0u);
}

TEST(ClusteringEquiv, DedupCollapsesDuplicateHeavyInput)
{
    // Phase-structured input with exactly repeating vectors: dedup
    // collapses each repetition class to one representative, the
    // projection carries the classes, and the sweep finds the three
    // phases.
    FrequencyVectorSet fvs;
    fvs.dimension = 64;
    for (std::size_t i = 0; i < 300; ++i) {
        const u32 phase = static_cast<u32>((i / 100) * 16);
        SparseVec vec;
        for (u32 d = 0; d < 4; ++d)
            vec.emplace_back(phase + d, 10.0 * (d + 1));
        fvs.addInterval(std::move(vec), 1000);
    }
    FrequencyVectorSet normalized = fvs;
    normalized.normalize();
    const DedupMap map = normalized.dedup();
    EXPECT_EQ(map.classes(), 3u);
    EXPECT_EQ(map.classOf.size(), 300u);
    EXPECT_EQ(map.firstOf, (std::vector<u32>{0, 100, 200}));

    const ProjectedData data = project(normalized, 15, 42);
    EXPECT_EQ(data.classFirst, map.firstOf);
    EXPECT_EQ(data.classOf, map.classOf);

    const SimPointResult result = pickSimulationPoints(fvs, {});
    EXPECT_EQ(result.k, 3u);
    ASSERT_EQ(result.phases.size(), 3u);
    for (const Phase& phase : result.phases)
        EXPECT_EQ(phase.members.size(), 100u);
}
