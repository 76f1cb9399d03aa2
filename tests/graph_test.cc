/**
 * @file
 * Unit and property tests for CSR graphs, deltas, dynamic graphs and
 * partitions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/rng.hh"
#include "graph/delta.hh"
#include "graph/dynamic_graph.hh"
#include "graph/edge_key_set.hh"
#include "graph/generator.hh"
#include "graph/partition.hh"

namespace ditile::graph {
namespace {

Csr
triangleWithTail()
{
    // 0-1, 1-2, 2-0 triangle plus tail 2-3.
    return Csr::fromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
}

TEST(Csr, EmptyGraph)
{
    Csr g(5);
    EXPECT_EQ(g.numVertices(), 5);
    EXPECT_EQ(g.numEdges(), 0);
    EXPECT_EQ(g.numAdjacencies(), 0);
    EXPECT_EQ(g.degree(0), 0);
    EXPECT_TRUE(g.neighbors(4).empty());
}

TEST(Csr, BasicConstruction)
{
    const auto g = triangleWithTail();
    EXPECT_EQ(g.numVertices(), 4);
    EXPECT_EQ(g.numEdges(), 4);
    EXPECT_EQ(g.numAdjacencies(), 8);
    EXPECT_EQ(g.degree(0), 2);
    EXPECT_EQ(g.degree(2), 3);
    EXPECT_EQ(g.degree(3), 1);
}

TEST(Csr, NeighborsSortedAndSymmetric)
{
    const auto g = triangleWithTail();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto nbrs = g.neighbors(v);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        for (VertexId u : nbrs)
            EXPECT_TRUE(g.hasEdge(u, v));
    }
}

TEST(Csr, DropsSelfLoopsAndDuplicates)
{
    const auto g = Csr::fromEdges(3, {{0, 1}, {1, 0}, {1, 1}, {0, 1}});
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(1, 1));
}

TEST(Csr, HasEdgeOutOfRange)
{
    const auto g = triangleWithTail();
    EXPECT_FALSE(g.hasEdge(-1, 0));
    EXPECT_FALSE(g.hasEdge(0, 99));
}

TEST(Csr, EdgeListIsCanonical)
{
    const auto g = triangleWithTail();
    const auto edges = g.edgeList();
    ASSERT_EQ(edges.size(), 4u);
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
    for (auto [u, v] : edges)
        EXPECT_LT(u, v);
}

TEST(Csr, DegreeStatistics)
{
    const auto g = triangleWithTail();
    EXPECT_DOUBLE_EQ(g.avgDegree(), 2.0);
    EXPECT_EQ(g.maxDegree(), 3);
}

TEST(Csr, FromSortedEdgesMatchesFromEdges)
{
    Rng rng(17);
    std::vector<Edge> raw;
    for (int i = 0; i < 3000; ++i)
        raw.emplace_back(static_cast<VertexId>(rng.uniformInt(0, 199)),
                         static_cast<VertexId>(rng.uniformInt(0, 199)));
    const auto a = Csr::fromEdges(200, raw);
    const auto b = Csr::fromSortedEdges(200, a.edgeList());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.adjacency(), b.adjacency());
    EXPECT_EQ(Csr::fromSortedEdges(5, {}).numEdges(), 0);
}

TEST(EdgeKeySet, MatchesUnorderedSetUnderRandomOps)
{
    Rng rng(2024);
    EdgeKeySet set;
    std::unordered_set<std::uint64_t> ref;
    const std::size_t initial_capacity = set.capacity();
    for (int op = 0; op < 100000; ++op) {
        const auto key = edgeKey(
            static_cast<VertexId>(rng.uniformInt(0, 127)),
            static_cast<VertexId>(rng.uniformInt(0, 127)));
        const double r = rng.uniformReal();
        if (r < 0.5) {
            ASSERT_EQ(set.insert(key), ref.insert(key).second) << op;
        } else if (r < 0.8) {
            ASSERT_EQ(set.erase(key), ref.erase(key) > 0) << op;
        } else {
            ASSERT_EQ(set.contains(key), ref.count(key) > 0) << op;
        }
        ASSERT_EQ(set.size(), ref.size()) << op;
    }
    EXPECT_GE(set.capacity(), 64 * initial_capacity);
    for (VertexId u = 0; u < 128; ++u)
        for (VertexId v = u; v < 128; ++v)
            EXPECT_EQ(set.contains(edgeKey(u, v)),
                      ref.count(edgeKey(u, v)) > 0);
}

TEST(EdgeKeySet, ClusterWrapsAtTableEndAndSurvivesMiddleErase)
{
    EdgeKeySet set;
    const std::size_t last = set.capacity() - 1;
    // Three keys homed at the last slot and one homed at slot 0: the
    // probe cluster runs last, 0, 1, 2.
    std::vector<std::uint64_t> at_end;
    std::uint64_t at_zero = 0;
    bool have_zero = false;
    for (VertexId v = 1; at_end.size() < 3 || !have_zero; ++v) {
        const auto key = edgeKey(0, v);
        if (set.homeSlot(key) == last && at_end.size() < 3)
            at_end.push_back(key);
        else if (set.homeSlot(key) == 0 && !have_zero) {
            at_zero = key;
            have_zero = true;
        }
    }
    for (auto key : at_end)
        ASSERT_TRUE(set.insert(key));
    ASSERT_TRUE(set.insert(at_zero));
    ASSERT_EQ(set.capacity(), last + 1) << "no growth expected";

    // Erase from the middle (the member that wrapped to slot 0); the
    // backward shift must keep every later member reachable.
    ASSERT_TRUE(set.erase(at_end[1]));
    EXPECT_FALSE(set.contains(at_end[1]));
    EXPECT_TRUE(set.contains(at_end[0]));
    EXPECT_TRUE(set.contains(at_end[2]));
    EXPECT_TRUE(set.contains(at_zero));

    // Erase the cluster head; the rest shift back across the wrap.
    ASSERT_TRUE(set.erase(at_end[0]));
    EXPECT_TRUE(set.contains(at_end[2]));
    EXPECT_TRUE(set.contains(at_zero));
    EXPECT_FALSE(set.erase(at_end[0]));
    EXPECT_EQ(set.size(), 2u);

    // Growth rehashes every survivor.
    for (VertexId v = 1; v < 200; ++v)
        set.insert(edgeKey(1, v));
    EXPECT_GT(set.capacity(), last + 1);
    EXPECT_TRUE(set.contains(at_end[2]));
    EXPECT_TRUE(set.contains(at_zero));
    EXPECT_EQ(set.size(), 201u);
}

TEST(GraphDelta, DiffDetectsChanges)
{
    const auto before = Csr::fromEdges(4, {{0, 1}, {1, 2}});
    const auto after = Csr::fromEdges(4, {{0, 1}, {2, 3}});
    const auto delta = GraphDelta::diff(before, after);
    ASSERT_EQ(delta.addedEdges().size(), 1u);
    EXPECT_EQ(delta.addedEdges()[0], (Edge{2, 3}));
    ASSERT_EQ(delta.removedEdges().size(), 1u);
    EXPECT_EQ(delta.removedEdges()[0], (Edge{1, 2}));
    const std::vector<VertexId> expected = {1, 2, 3};
    EXPECT_EQ(delta.affectedVertices(), expected);
    EXPECT_DOUBLE_EQ(delta.dissimilarity(4), 0.75);
}

TEST(GraphDelta, IdenticalSnapshotsYieldEmptyDelta)
{
    const auto g = triangleWithTail();
    const auto delta = GraphDelta::diff(g, g);
    EXPECT_TRUE(delta.addedEdges().empty());
    EXPECT_TRUE(delta.removedEdges().empty());
    EXPECT_TRUE(delta.affectedVertices().empty());
    EXPECT_DOUBLE_EQ(delta.dissimilarity(4), 0.0);
}

TEST(GraphDelta, FromChangesNormalizes)
{
    auto delta = GraphDelta::fromChanges({{3, 1}}, {{2, 0}});
    ASSERT_EQ(delta.addedEdges().size(), 1u);
    const std::vector<VertexId> expected = {0, 1, 2, 3};
    EXPECT_EQ(delta.affectedVertices(), expected);
}

TEST(ExpandFrontier, ZeroHopsReturnsSeeds)
{
    const auto g = triangleWithTail();
    const auto out = expandFrontier(g, {2}, 0);
    EXPECT_EQ(out, std::vector<VertexId>{2});
}

TEST(ExpandFrontier, OneHop)
{
    const auto g = triangleWithTail();
    const auto out = expandFrontier(g, {3}, 1);
    EXPECT_EQ(out, (std::vector<VertexId>{2, 3}));
}

TEST(ExpandFrontier, SaturatesConnectedComponent)
{
    const auto g = triangleWithTail();
    const auto out = expandFrontier(g, {0}, 10);
    EXPECT_EQ(out.size(), 4u);
}

TEST(ExpandFrontier, MonotoneInHops)
{
    Rng rng(5);
    const auto g = generateRmat(256, 1024, {}, rng);
    std::vector<VertexId> seeds = {1, 17, 100};
    std::size_t prev = 0;
    for (int h = 0; h <= 4; ++h) {
        const auto out = expandFrontier(g, seeds, h);
        EXPECT_GE(out.size(), prev);
        EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
        prev = out.size();
    }
}

TEST(DynamicGraph, DerivesDeltas)
{
    std::vector<Csr> snapshots;
    snapshots.push_back(Csr::fromEdges(4, {{0, 1}, {1, 2}}));
    snapshots.push_back(Csr::fromEdges(4, {{0, 1}, {2, 3}}));
    DynamicGraph dg("test", snapshots, 16);
    EXPECT_EQ(dg.numSnapshots(), 2);
    EXPECT_EQ(dg.numVertices(), 4);
    EXPECT_EQ(dg.featureDim(), 16);
    EXPECT_EQ(dg.delta(1).addedEdges().size(), 1u);
    EXPECT_DOUBLE_EQ(dg.avgEdges(), 2.0);
    EXPECT_EQ(dg.maxEdges(), 2);
    EXPECT_DOUBLE_EQ(dg.avgDissimilarity(), 0.75);
}

TEST(DynamicGraph, SingleSnapshotHasNoDissimilarity)
{
    DynamicGraph dg("one", {triangleWithTail()}, 8);
    EXPECT_DOUBLE_EQ(dg.avgDissimilarity(), 0.0);
}

TEST(VertexPartition, Contiguous)
{
    auto p = VertexPartition::contiguous(10, 3);
    EXPECT_EQ(p.numParts(), 3);
    EXPECT_EQ(p.owner(0), 0);
    EXPECT_EQ(p.owner(3), 0);
    EXPECT_EQ(p.owner(4), 1);
    EXPECT_EQ(p.owner(9), 2);
    const auto sizes = p.partSizes();
    EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 10);
}

TEST(VertexPartition, RoundRobin)
{
    auto p = VertexPartition::roundRobin(10, 4);
    EXPECT_EQ(p.owner(0), 0);
    EXPECT_EQ(p.owner(5), 1);
    EXPECT_EQ(p.owner(7), 3);
    for (int part = 0; part < 4; ++part) {
        for (VertexId v : p.members(part))
            EXPECT_EQ(v % 4, part);
    }
}

TEST(VertexPartition, CutEdges)
{
    const auto g = triangleWithTail();
    auto all_one = VertexPartition::contiguous(4, 1);
    EXPECT_EQ(all_one.cutEdges(g), 0);

    VertexPartition split(4, 2);
    split.assign(0, 0);
    split.assign(1, 0);
    split.assign(2, 1);
    split.assign(3, 1);
    // Cut: 1-2 and 2-0.
    EXPECT_EQ(split.cutEdges(g), 2);
}

TEST(VertexPartition, Imbalance)
{
    VertexPartition p(4, 2);
    p.assign(0, 0);
    p.assign(1, 0);
    p.assign(2, 0);
    p.assign(3, 1);
    const std::vector<double> w = {1, 1, 1, 1};
    EXPECT_DOUBLE_EQ(p.imbalance(w), 1.5); // 3 / mean(2).
}

TEST(VertexPartition, ImbalancePerfect)
{
    auto p = VertexPartition::roundRobin(8, 4);
    const std::vector<double> w(8, 2.0);
    EXPECT_DOUBLE_EQ(p.imbalance(w), 1.0);
}

/** Property sweep: random CSR invariants across seeds and sizes. */
class CsrProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(CsrProperty, RoundTripAndSymmetry)
{
    const auto [seed, vertices] = GetParam();
    Rng rng(seed);
    const auto g = generateRmat(static_cast<VertexId>(vertices),
                                vertices * 4, {}, rng);
    // Round trip through the edge list.
    const auto rebuilt = Csr::fromEdges(g.numVertices(), g.edgeList());
    EXPECT_EQ(rebuilt.numEdges(), g.numEdges());
    ASSERT_EQ(rebuilt.numVertices(), g.numVertices());
    EdgeId degree_sum = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(rebuilt.degree(v), g.degree(v));
        degree_sum += g.degree(v);
        auto nbrs = g.neighbors(v);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        for (VertexId u : nbrs) {
            EXPECT_NE(u, v); // no self loops
            EXPECT_TRUE(g.hasEdge(u, v)); // symmetry
        }
    }
    // Handshake lemma.
    EXPECT_EQ(degree_sum, g.numAdjacencies());
    EXPECT_EQ(degree_sum, 2 * g.numEdges());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsrProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 99u),
                       ::testing::Values(64, 256, 1024)));

/** Delta/diff consistency across random evolutions. */
class DeltaProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeltaProperty, DiffMatchesAppliedChanges)
{
    EvolutionConfig config;
    config.numVertices = 300;
    config.numEdges = 1500;
    config.numSnapshots = 5;
    config.dissimilarity = 0.12;
    config.seed = GetParam();
    const auto dg = generateDynamicGraph(config);
    for (SnapshotId t = 1; t < dg.numSnapshots(); ++t) {
        const auto recomputed =
            GraphDelta::diff(dg.snapshot(t - 1), dg.snapshot(t));
        EXPECT_EQ(recomputed.addedEdges(), dg.delta(t).addedEdges())
            << "snapshot " << t;
        EXPECT_EQ(recomputed.removedEdges(), dg.delta(t).removedEdges())
            << "snapshot " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaProperty,
                         ::testing::Values(1u, 7u, 42u, 1000u));

} // namespace
} // namespace ditile::graph
