/**
 * @file
 * Tests for the R-MAT generator, temporal evolution and the dataset
 * registry.
 */

#include <gtest/gtest.h>

#include "graph/datasets.hh"
#include "graph/generator.hh"

namespace ditile::graph {
namespace {

/** FNV-1a over every delta's added, removed and affected lists. */
std::uint64_t
deltaHash(const DynamicGraph &dg)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const GraphDelta &d = dg.delta(t);
        for (const auto *edges : {&d.addedEdges(), &d.removedEdges()}) {
            mix(edges->size());
            for (auto [u, v] : *edges) {
                mix(static_cast<std::uint64_t>(u));
                mix(static_cast<std::uint64_t>(v));
            }
        }
        mix(d.affectedVertices().size());
        for (VertexId v : d.affectedVertices())
            mix(static_cast<std::uint64_t>(v));
    }
    return h;
}

/** The dense corner: more edges than the complete graph holds. */
EvolutionConfig
denseConfig()
{
    EvolutionConfig config;
    config.numVertices = 8;
    config.numEdges = 1000;
    config.numSnapshots = 5;
    config.dissimilarity = 0.5;
    // d = 0: R-MAT never sets a bit in both endpoints at one level, so
    // pairs such as {1,3} are unreachable and the uniform fallback fill
    // must supply them.
    config.rmat = {0.9, 0.05, 0.05};
    config.seed = 13;
    return config;
}

TEST(Rmat, ProducesRequestedEdgeCount)
{
    Rng rng(1);
    const auto g = generateRmat(1024, 4096, {}, rng);
    EXPECT_EQ(g.numVertices(), 1024);
    EXPECT_EQ(g.numEdges(), 4096);
}

TEST(Rmat, DeterministicForEqualSeeds)
{
    Rng a(5);
    Rng b(5);
    const auto ga = generateRmat(512, 2048, {}, a);
    const auto gb = generateRmat(512, 2048, {}, b);
    EXPECT_EQ(ga.edgeList(), gb.edgeList());
}

TEST(Rmat, DifferentSeedsDiffer)
{
    Rng a(5);
    Rng b(6);
    const auto ga = generateRmat(512, 2048, {}, a);
    const auto gb = generateRmat(512, 2048, {}, b);
    EXPECT_NE(ga.edgeList(), gb.edgeList());
}

TEST(Rmat, SkewedDegreeDistribution)
{
    Rng rng(9);
    const auto g = generateRmat(2048, 16384, {}, rng);
    // R-MAT with default parameters produces hubs far above the mean.
    EXPECT_GT(g.maxDegree(), 4 * g.avgDegree());
}

TEST(Rmat, NonPowerOfTwoVertices)
{
    Rng rng(11);
    const auto g = generateRmat(1000, 3000, {}, rng);
    EXPECT_EQ(g.numVertices(), 1000);
    EXPECT_EQ(g.numEdges(), 3000);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (VertexId u : g.neighbors(v))
            EXPECT_LT(u, 1000);
}

TEST(Rmat, DenseRequestCapped)
{
    Rng rng(13);
    // More edges than possible: must cap at the complete graph.
    const auto g = generateRmat(8, 1000, {}, rng);
    EXPECT_EQ(g.numEdges(), 28);
}

TEST(Evolution, SnapshotCountAndUniverse)
{
    EvolutionConfig config;
    config.numVertices = 500;
    config.numEdges = 2500;
    config.numSnapshots = 6;
    const auto dg = generateDynamicGraph(config);
    EXPECT_EQ(dg.numSnapshots(), 6);
    EXPECT_EQ(dg.numVertices(), 500);
    for (SnapshotId t = 0; t < 6; ++t)
        EXPECT_EQ(dg.snapshot(t).numVertices(), 500);
}

TEST(Evolution, EdgeCountStaysApproximatelyConstant)
{
    EvolutionConfig config;
    config.numVertices = 800;
    config.numEdges = 4000;
    config.numSnapshots = 8;
    config.dissimilarity = 0.10;
    const auto dg = generateDynamicGraph(config);
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        EXPECT_NEAR(static_cast<double>(dg.snapshot(t).numEdges()),
                    4000.0, 4000.0 * 0.05)
            << "snapshot " << t;
    }
}

TEST(Evolution, Deterministic)
{
    EvolutionConfig config;
    config.numVertices = 300;
    config.numEdges = 1200;
    config.numSnapshots = 4;
    config.seed = 77;
    const auto a = generateDynamicGraph(config);
    const auto b = generateDynamicGraph(config);
    for (SnapshotId t = 0; t < 4; ++t)
        EXPECT_EQ(a.snapshot(t).edgeList(), b.snapshot(t).edgeList());
}

TEST(Evolution, SingleSnapshot)
{
    EvolutionConfig config;
    config.numVertices = 100;
    config.numEdges = 300;
    config.numSnapshots = 1;
    const auto dg = generateDynamicGraph(config);
    EXPECT_EQ(dg.numSnapshots(), 1);
}

TEST(Evolution, ZeroDissimilarityFreezesGraph)
{
    EvolutionConfig config;
    config.numVertices = 200;
    config.numEdges = 800;
    config.numSnapshots = 4;
    config.dissimilarity = 0.0;
    const auto dg = generateDynamicGraph(config);
    for (SnapshotId t = 1; t < 4; ++t) {
        EXPECT_EQ(dg.delta(t).numChanges(), 0u);
        EXPECT_EQ(dg.snapshot(t).edgeList(),
                  dg.snapshot(0).edgeList());
    }
}

/**
 * Generator byte-identity: structure hashes and delta lists recorded
 * before the generator moved onto the flat key set and delta-merged
 * CSRs. Any change to the RNG stream, draw order or CSR build shows
 * here.
 */
TEST(Evolution, GoldenGraphHashes)
{
    const auto check = [](const DynamicGraph &dg, std::uint64_t structure,
                          std::uint64_t deltas) {
        EXPECT_EQ(dg.structureHashValue(), structure);
        EXPECT_EQ(deltaHash(dg), deltas);
    };
    DatasetOptions wd;
    wd.scale = 0.25;
    {
        SCOPED_TRACE("WD scale 0.25, T=8");
        check(makeDataset("WD", wd), 17653271450107191456ull,
              11118012599974401987ull);
    }
    wd.numSnapshots = 16;
    {
        SCOPED_TRACE("WD scale 0.25, T=16");
        check(makeDataset("WD", wd), 16474313983039290524ull,
              8629627843773805816ull);
    }
    DatasetOptions rd;
    rd.scale = 0.05;
    {
        SCOPED_TRACE("RD scale 0.05");
        check(makeDataset("RD", rd), 9933541615248110182ull,
              5846626077217956300ull);
    }
    {
        SCOPED_TRACE("PM");
        check(makeDataset("PM"), 15613736518850545765ull,
              7324299784579085816ull);
    }
    EvolutionConfig small;
    small.numVertices = 64;
    small.numEdges = 256;
    small.numSnapshots = 6;
    small.dissimilarity = 0.2;
    small.seed = 5;
    {
        SCOPED_TRACE("64 vertices");
        check(generateDynamicGraph(small), 499418670028827480ull,
              13471557141775573302ull);
    }
    const EvolutionConfig dense = denseConfig();
    {
        SCOPED_TRACE("dense, uniform fallback fill");
        const auto dg = generateDynamicGraph(dense);
        EXPECT_EQ(dg.snapshot(0).numEdges(), 28);
        check(dg, 10520394300433611394ull, 164199623006977855ull);
    }
}

/** Each recorded delta is exactly the diff of its two snapshots. */
TEST(Evolution, RecordedDeltaEqualsDiff)
{
    EvolutionConfig mid;
    mid.numVertices = 1000;
    mid.numEdges = 5000;
    mid.numSnapshots = 8;
    mid.dissimilarity = 0.133;
    mid.seed = 21;
    EvolutionConfig small;
    small.numVertices = 64;
    small.numEdges = 256;
    small.numSnapshots = 6;
    small.dissimilarity = 0.5;
    for (const auto &config : {mid, small, denseConfig()}) {
        const auto dg = generateDynamicGraph(config);
        for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
            SCOPED_TRACE(testing::Message() << config.numVertices
                                            << " vertices, t=" << t);
            const auto diff = GraphDelta::diff(dg.snapshot(t - 1),
                                               dg.snapshot(t));
            EXPECT_EQ(dg.delta(t).addedEdges(), diff.addedEdges());
            EXPECT_EQ(dg.delta(t).removedEdges(), diff.removedEdges());
            EXPECT_EQ(dg.delta(t).affectedVertices(),
                      diff.affectedVertices());
        }
    }
}

/** Dissimilarity targeting across the paper's observed band. */
class DissimilarityTarget : public ::testing::TestWithParam<double>
{
};

TEST_P(DissimilarityTarget, MeasuredNearTarget)
{
    const double target = GetParam();
    EvolutionConfig config;
    config.numVertices = 2000;
    config.numEdges = 12000;
    config.numSnapshots = 6;
    config.dissimilarity = target;
    config.seed = 3;
    const auto dg = generateDynamicGraph(config);
    // The generator stops as soon as the affected set reaches the
    // target, so measured dissimilarity lands within a small band.
    EXPECT_NEAR(dg.avgDissimilarity(), target,
                std::max(0.01, target * 0.15));
}

INSTANTIATE_TEST_SUITE_P(Band, DissimilarityTarget,
                         ::testing::Values(0.025, 0.05, 0.083, 0.10,
                                           0.133));

TEST(Datasets, RegistryMatchesTableOne)
{
    const auto &registry = datasetRegistry();
    ASSERT_EQ(registry.size(), 6u);
    EXPECT_EQ(registry[0].abbrev, "PM");
    EXPECT_EQ(registry[0].vertices, 1917);
    EXPECT_EQ(registry[0].edges, 88648);
    EXPECT_EQ(registry[0].features, 500);
    EXPECT_EQ(registry[1].abbrev, "RD");
    EXPECT_EQ(registry[1].vertices, 55863);
    EXPECT_EQ(registry[2].abbrev, "MB");
    EXPECT_EQ(registry[2].edges, 2200203);
    EXPECT_EQ(registry[3].abbrev, "TW");
    EXPECT_EQ(registry[3].features, 768);
    EXPECT_EQ(registry[4].abbrev, "WD");
    EXPECT_EQ(registry[4].vertices, 9227);
    EXPECT_EQ(registry[5].abbrev, "FK");
    EXPECT_EQ(registry[5].edges, 33140017);
}

TEST(Datasets, LookupIsCaseInsensitive)
{
    EXPECT_EQ(findDataset("pm").name, "PubMed");
    EXPECT_EQ(findDataset("PUBMED").abbrev, "PM");
    EXPECT_EQ(findDataset("wd").name, "Wikipedia");
}

TEST(Datasets, UnknownNameIsFatal)
{
    EXPECT_EXIT(findDataset("nope"), ::testing::ExitedWithCode(1),
                "unknown dataset");
}

TEST(Datasets, DissimilarityDefaultsInPaperBand)
{
    for (const auto &spec : datasetRegistry()) {
        EXPECT_GE(spec.dissimilarity, 0.041) << spec.name;
        EXPECT_LE(spec.dissimilarity, 0.133) << spec.name;
    }
}

TEST(Datasets, MakeDatasetAppliesScale)
{
    DatasetOptions options;
    options.scale = 0.5;
    options.numSnapshots = 3;
    const auto dg = makeDataset("WD", options);
    EXPECT_EQ(dg.numSnapshots(), 3);
    EXPECT_NEAR(dg.numVertices(), 9227 * 0.5, 2.0);
    EXPECT_EQ(dg.featureDim(), 172);
    EXPECT_EQ(dg.name(), "WD");
}

TEST(Datasets, DefaultScalesKeepGraphsTractable)
{
    for (const auto &spec : datasetRegistry()) {
        const auto scaled_edges = static_cast<double>(spec.edges) *
            spec.defaultScale;
        EXPECT_LE(scaled_edges, 600000.0) << spec.name;
    }
}

TEST(Datasets, SeedOverrideChangesGraph)
{
    DatasetOptions a;
    a.seed = 1;
    a.scale = 0.2;
    DatasetOptions b = a;
    b.seed = 2;
    const auto ga = makeDataset("TW", a);
    const auto gb = makeDataset("TW", b);
    EXPECT_NE(ga.snapshot(0).edgeList(), gb.snapshot(0).edgeList());
}

} // namespace
} // namespace ditile::graph
