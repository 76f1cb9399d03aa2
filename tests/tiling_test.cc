/**
 * @file
 * Tests for Algorithm 1: the Eq. 5-16 analytical models and the
 * tiling/parallelism optimizer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "graph/generator.hh"
#include "tiling/optimizer.hh"
#include "tiling/subgraph_former.hh"

namespace ditile::tiling {
namespace {

ApplicationFeatures
uniformApp(double vertices, double edges, int snapshots, int layers = 2,
           double dissimilarity = 0.1)
{
    ApplicationFeatures app;
    app.gcnLayers = layers;
    app.numSnapshots = snapshots;
    app.featureDim = 64;
    app.residentDims = 128;
    app.bytesPerValue = 4;
    for (int i = 0; i < snapshots; ++i) {
        app.vertices.push_back(vertices);
        app.edges.push_back(edges);
        if (i >= 1)
            app.dissimilarity.push_back(dissimilarity);
    }
    return app;
}

TEST(ApplicationFeatures, FromGraphExtractsShape)
{
    graph::EvolutionConfig config;
    config.numVertices = 128;
    config.numEdges = 512;
    config.numSnapshots = 3;
    config.featureDim = 10;
    const auto dg = graph::generateDynamicGraph(config);
    const auto app = ApplicationFeatures::fromGraph(dg, 2, 40, 4);
    EXPECT_EQ(app.numSnapshots, 3);
    ASSERT_EQ(app.vertices.size(), 3u);
    EXPECT_DOUBLE_EQ(app.vertices[0], 128.0);
    ASSERT_EQ(app.dissimilarity.size(), 2u);
    EXPECT_EQ(app.featureDim, 10);
    EXPECT_EQ(app.residentDims, 40);
    EXPECT_NEAR(app.avgVertices(), 128.0, 1e-9);
    EXPECT_NEAR(app.avgEdges(), 2.0 * dg.avgEdges(), 32.0);
}

TEST(DramAccessModel, EquationSixHandComputed)
{
    // One snapshot, V = 100, E = 400 adjacency entries, a = 4:
    // DA = V + a * E * SV * (V - SV) / V^2
    //    = 100 + 4 * 400 * 25 * 75 / 10000 = 100 + 300 = 400.
    const auto app = uniformApp(100, 400, 1);
    EXPECT_NEAR(dramAccessModel(app, 4), 400.0, 1e-9);
    // a = 1: no cross-subgraph term.
    EXPECT_NEAR(dramAccessModel(app, 1), 100.0, 1e-9);
}

TEST(DramAccessModel, IncreasingInTilingFactor)
{
    const auto app = uniformApp(1000, 8000, 4);
    double prev = dramAccessModel(app, 1);
    for (int a = 2; a <= 32; a *= 2) {
        const double cur = dramAccessModel(app, a);
        EXPECT_GT(cur, prev);
        prev = cur;
    }
}

TEST(TemporalComm, EquationEightHandComputed)
{
    // Eq. 8: a * AvgSV * (Gs - 1) = 2 * (100/2) * 3 = 300.
    const auto app = uniformApp(100, 400, 8);
    EXPECT_NEAR(temporalComm(app, 2, 4), 300.0, 1e-9);
    EXPECT_NEAR(temporalComm(app, 2, 1), 0.0, 1e-9);
}

TEST(SpatialComm, EquationElevenHandComputed)
{
    // Eq. 11: a * L * T * AvgSE = 2 * 2 * 4 * (400/2) = 3200.
    const auto app = uniformApp(100, 400, 4);
    EXPECT_NEAR(totalSpatialComm(app, 2), 3200.0, 1e-9);
}

TEST(SpatialComm, IntraTileFractionMatchesPartCount)
{
    // With AvgSV divisible by Gv, the same-part edge fraction is
    // exactly 1/Gv.
    const auto app = uniformApp(100, 400, 4);
    const double total = totalSpatialComm(app, 1);
    for (int gv : {1, 2, 4, 5}) {
        const double intra = intraTileSpatialComm(app, 1, gv);
        EXPECT_NEAR(intra, total / gv, 1e-6) << "Gv=" << gv;
    }
}

TEST(SpatialComm, RemainderPartHandledByEquationTwelve)
{
    // AvgSV = 10, Gv = 3: floor = 3, remainder part = 1 vertex.
    // same-part pairs = 3 * 9 + 1 = 28, fraction = 28/100.
    const auto app = uniformApp(10, 40, 1);
    const double total = totalSpatialComm(app, 1);
    EXPECT_NEAR(intraTileSpatialComm(app, 1, 3), total * 0.28, 1e-9);
}

TEST(SpatialComm, InterTileIsComplement)
{
    const auto app = uniformApp(200, 1000, 3);
    for (int gv : {1, 2, 8}) {
        EXPECT_NEAR(spatialComm(app, 2, gv),
                    totalSpatialComm(app, 2) -
                        intraTileSpatialComm(app, 2, gv),
                    1e-9);
    }
}

TEST(VertexSpatialComm, EquationFifteenHandComputed)
{
    // ratio r = E/V = 4; L = 2: VScomm = r + (r + r^2) = 24.
    const auto app = uniformApp(100, 400, 1);
    EXPECT_NEAR(vertexSpatialComm(app), 24.0, 1e-9);
}

TEST(RedundantComm, EquationFourteenScalesWithSimilarity)
{
    const auto low = uniformApp(100, 400, 4, 2, 0.05);
    const auto high = uniformApp(100, 400, 4, 2, 0.30);
    EXPECT_GT(totalRedundantSpatialComm(low, 1),
              totalRedundantSpatialComm(high, 1));
}

TEST(RedundancyFreeComm, ClampedToValidRange)
{
    const auto app = uniformApp(100, 2000, 4, 2, 0.01);
    for (int gv : {1, 2, 4, 8}) {
        const double rfs = redundancyFreeSpatialComm(app, 2, gv);
        EXPECT_GE(rfs, 0.0);
        EXPECT_LE(rfs, spatialComm(app, 2, gv) + 1e-9);
    }
}

TEST(RedundancyFreeComm, NegativeSpatialCommGivesZero)
{
    // The seed-1 paper-regime headline workload (engine_test's
    // HeadlineOrdering) at a = 2, Gv = 1: one part holds every edge,
    // so Eq. 10 subtracts two equal volumes and rounds to -2^-34.
    ApplicationFeatures app;
    app.gcnLayers = 2;
    app.numSnapshots = 8;
    app.featureDim = 128;
    app.residentDims = 768;
    app.bytesPerValue = 4;
    app.vertices.assign(8, 2000.0);
    app.edges = {32000, 31998, 31996, 31994, 31994, 31992, 31992, 31992};
    app.dissimilarity = {0.1, 0.1005, 0.1, 0.1, 0.1, 0.1, 0.1005};
    ASSERT_LT(spatialComm(app, 2, 1), 0.0);
    EXPECT_EQ(redundancyFreeSpatialComm(app, 2, 1), 0.0);
}

TEST(ReuseComm, ZeroForSingleGroup)
{
    const auto app = uniformApp(100, 400, 4);
    EXPECT_NEAR(reuseComm(app, 2, 1), 0.0, 1e-9);
    EXPECT_GT(reuseComm(app, 2, 4), 0.0);
}

TEST(TotalComm, EquationSevenIsSumOfParts)
{
    const auto app = uniformApp(300, 2400, 6);
    for (int gs : {1, 2, 4}) {
        for (int gv : {1, 4, 16}) {
            EXPECT_NEAR(totalComm(app, 2, gs, gv),
                        temporalComm(app, 2, gs) +
                            redundancyFreeSpatialComm(app, 2, gv) +
                            reuseComm(app, 2, gs),
                        1e-6);
        }
    }
}

TEST(GridDim, SquareGridsOnly)
{
    HardwareFeatures hw;
    hw.totalTiles = 256;
    EXPECT_EQ(gridDim(hw), 16);
    hw.totalTiles = 16;
    EXPECT_EQ(gridDim(hw), 4);
}

TEST(OptimizeTiling, ResultFitsBuffer)
{
    const auto app = uniformApp(100000, 800000, 4);
    HardwareFeatures hw;
    hw.distributedBufferBytes = 1u << 20;
    const auto result = optimizeTiling(app, hw);
    const double per_vertex = subgraphBytesPerVertex(app);
    const double subgraph_bytes =
        100000.0 / result.tilingFactor * per_vertex;
    EXPECT_LE(subgraph_bytes,
              static_cast<double>(hw.distributedBufferBytes));
    // Minimality: one step coarser must not fit.
    if (result.tilingFactor > 1) {
        const double coarser =
            100000.0 / (result.tilingFactor - 1) * per_vertex;
        EXPECT_GT(coarser,
                  static_cast<double>(hw.distributedBufferBytes));
    }
}

TEST(OptimizeTiling, SmallGraphNeedsNoTiling)
{
    const auto app = uniformApp(100, 400, 2);
    HardwareFeatures hw;
    const auto result = optimizeTiling(app, hw);
    EXPECT_EQ(result.tilingFactor, 1);
    EXPECT_NEAR(result.refetchFactor, 1.0, 1e-9);
    EXPECT_NEAR(result.crossFetchFraction(1.0), 0.0, 1e-9);
}

TEST(TilingResult, CrossFetchFraction)
{
    TilingResult r;
    r.tilingFactor = 4;
    EXPECT_NEAR(r.crossFetchFraction(1.0), 0.75, 1e-12);
    EXPECT_NEAR(r.crossFetchFraction(0.5), 0.375, 1e-12);
}

TEST(OptimizeParallelism, MatchesBruteForce)
{
    const auto app = uniformApp(5000, 40000, 8);
    HardwareFeatures hw;
    hw.totalTiles = 64; // 8x8 grid.
    const auto result = optimizeParallelism(app, hw, 4);

    double best = 1e300;
    for (int gs = 1; gs <= 8; ++gs)
        for (int gv = 1; gv <= 8; ++gv)
            best = std::min(best, totalComm(app, 4, gs, gv));
    EXPECT_NEAR(result.totalCommUnits, best, best * 1e-12);
    EXPECT_NEAR(result.totalCommUnits,
                result.tcomm + result.rfscomm + result.recomm, 1e-6);
    EXPECT_GE(result.snapshotGroups, 1);
    EXPECT_LE(result.snapshotGroups, 8);
    EXPECT_GE(result.vertexParts, 1);
    EXPECT_LE(result.vertexParts, 8);
}

TEST(OptimizeAll, ProducesConsistentPlan)
{
    const auto app = uniformApp(20000, 160000, 8);
    HardwareFeatures hw;
    const auto plan = optimizeAll(app, hw);
    EXPECT_GE(plan.tiling.tilingFactor, 1);
    EXPECT_GE(plan.tiling.refetchFactor, 1.0);
    EXPECT_NEAR(plan.tiling.avgSubgraphVertices,
                20000.0 / plan.tiling.tilingFactor, 1e-6);
    EXPECT_GE(plan.parallelism.snapshotsPerGroup, 1);
    EXPECT_GE(plan.parallelism.verticesPerPart, 1);
}

TEST(SubgraphFormer, SinglePartHasNoCut)
{
    Rng rng(3);
    const auto g = graph::generateRmat(256, 1024, {}, rng);
    const auto s = formSubgraphs(g, 1);
    EXPECT_DOUBLE_EQ(s.crossAdjacencyFraction, 0.0);
}

TEST(SubgraphFormer, CoversEveryVertexEvenly)
{
    Rng rng(5);
    const auto g = graph::generateRmat(500, 2500, {}, rng);
    const auto s = formSubgraphs(g, 4);
    const auto sizes = s.partition.partSizes();
    ASSERT_EQ(sizes.size(), 4u);
    VertexId total = 0;
    for (auto size : sizes) {
        EXPECT_GE(size, 100);
        total += size;
    }
    EXPECT_EQ(total, 500);
    for (VertexId v = 0; v < 500; ++v)
        EXPECT_NE(s.partition.owner(v), kInvalidTile);
}

TEST(SubgraphFormer, BeatsRandomPlacementOnLocalGraphs)
{
    Rng rng(7);
    const auto g = graph::generateRmat(2000, 12000, {}, rng);
    for (int a : {2, 4, 8}) {
        const auto s = formSubgraphs(g, a);
        EXPECT_LT(s.localityRatio, 1.0) << "a=" << a;
        EXPECT_NEAR(s.crossAdjacencyFraction,
                    measuredCrossFraction(g, s.partition), 1e-12);
    }
}

TEST(SubgraphFormer, PathGraphIsNearlyCutFree)
{
    // A path splits into contiguous runs: exactly a-1 cut edges.
    std::vector<graph::Edge> edges;
    for (VertexId v = 0; v + 1 < 64; ++v)
        edges.emplace_back(v, v + 1);
    const auto g = graph::Csr::fromEdges(64, edges);
    const auto s = formSubgraphs(g, 4);
    // 3 cut undirected edges = 6 of 126 adjacency entries.
    EXPECT_NEAR(s.crossAdjacencyFraction, 6.0 / 126.0, 1e-9);
}

TEST(SubgraphFormer, Deterministic)
{
    Rng rng(11);
    const auto g = graph::generateRmat(300, 1500, {}, rng);
    const auto a = formSubgraphs(g, 5);
    const auto b = formSubgraphs(g, 5);
    for (VertexId v = 0; v < 300; ++v)
        EXPECT_EQ(a.partition.owner(v), b.partition.owner(v));
}

TEST(TilingResult, MeasuredCrossOverridesFormula)
{
    TilingResult r;
    r.tilingFactor = 4;
    EXPECT_NEAR(r.crossFetchFraction(1.0), 0.75, 1e-12);
    r.measuredCross = 0.4;
    EXPECT_NEAR(r.crossFetchFraction(1.0), 0.4, 1e-12);
    EXPECT_NEAR(r.crossFetchFraction(0.5), 0.4, 1e-12);
}

/** Optimizer sanity across a parameter sweep. */
class OptimizerSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(OptimizerSweep, PicksNoWorseThanDefaults)
{
    const auto [snapshots, dissimilarity] = GetParam();
    const auto app = uniformApp(8000, 64000, snapshots, 2,
                                dissimilarity);
    HardwareFeatures hw;
    const auto plan = optimizeAll(app, hw);
    const int a = plan.tiling.tilingFactor;
    // The optimum is at least as good as naive corner strategies.
    const double chosen = plan.parallelism.totalCommUnits;
    EXPECT_LE(chosen, totalComm(app, a, 1, 1) + 1e-9);
    EXPECT_LE(chosen, totalComm(app, a, 1, 16) + 1e-9);
    EXPECT_LE(chosen,
              totalComm(app, a, std::min(snapshots, 16), 16) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizerSweep,
    ::testing::Combine(::testing::Values(2, 8, 32),
                       ::testing::Values(0.02, 0.10, 0.30)));


TEST(CommModelCacheTest, RepeatedAlgorithmOnePassIsAllHits)
{
    auto &memo = CommModelCache::global();
    memo.clear();
    const ApplicationFeatures app = uniformApp(5000, 40000, 8);
    const HardwareFeatures hw;

    const ParallelPlan first = optimizeAll(app, hw);
    const std::uint64_t first_hits = memo.hits();
    const std::uint64_t first_misses = memo.misses();
    EXPECT_GT(first_misses, 0u);
    EXPECT_EQ(memo.size(), first_misses);

    // Same features, same grid: every Eq. 8-16 point is a hit.
    const ParallelPlan second = optimizeAll(app, hw);
    EXPECT_EQ(memo.misses(), first_misses);
    EXPECT_EQ(memo.hits() - first_hits, first_hits + first_misses);
    EXPECT_EQ(memo.size(), first_misses);
    EXPECT_EQ(second.parallelism.snapshotGroups,
              first.parallelism.snapshotGroups);
    EXPECT_EQ(second.parallelism.vertexParts,
              first.parallelism.vertexParts);
    EXPECT_EQ(second.parallelism.totalCommUnits,
              first.parallelism.totalCommUnits);

    memo.clear();
    EXPECT_EQ(memo.hits(), 0u);
    EXPECT_EQ(memo.misses(), 0u);
    EXPECT_EQ(memo.size(), 0u);
}

} // namespace
} // namespace ditile::tiling
