/**
 * @file
 * Tests for the continuous-time dynamic graph representation and its
 * discretization into snapshot sequences.
 */

#include <gtest/gtest.h>

#include <bit>

#include "graph/ctdg.hh"

namespace ditile::graph {
namespace {

/** FNV-1a over the initial edge list and every event, field by field. */
std::uint64_t
streamHash(const ContinuousDynamicGraph &ctdg)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (auto [u, v] : ctdg.initial().edgeList()) {
        mix(static_cast<std::uint64_t>(u));
        mix(static_cast<std::uint64_t>(v));
    }
    mix(ctdg.events().size());
    for (const auto &e : ctdg.events()) {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(static_cast<std::uint64_t>(e.u));
        mix(static_cast<std::uint64_t>(e.v));
        mix(std::bit_cast<std::uint64_t>(e.timestamp));
    }
    return h;
}

ContinuousDynamicGraph
tinyStream()
{
    // Initial: 0-1. Events: add 1-2 at t=1, remove 0-1 at t=2,
    // add 2-3 at t=3.
    Csr initial = Csr::fromEdges(4, {{0, 1}});
    std::vector<GraphEvent> events = {
        {GraphEvent::Kind::AddEdge, 1, 2, 1.0},
        {GraphEvent::Kind::RemoveEdge, 0, 1, 2.0},
        {GraphEvent::Kind::AddEdge, 2, 3, 3.0},
    };
    return ContinuousDynamicGraph("tiny", std::move(initial),
                                  std::move(events));
}

TEST(Ctdg, BasicAccessors)
{
    const auto ctdg = tinyStream();
    EXPECT_EQ(ctdg.name(), "tiny");
    EXPECT_EQ(ctdg.initial().numEdges(), 1);
    EXPECT_EQ(ctdg.events().size(), 3u);
    EXPECT_DOUBLE_EQ(ctdg.beginTime(), 1.0);
    EXPECT_DOUBLE_EQ(ctdg.endTime(), 3.0);
}

TEST(Ctdg, DiscretizeReplaysEventsInOrder)
{
    const auto ctdg = tinyStream();
    // 3 snapshots at cutoffs 1, 2, 3 (after the initial snapshot).
    const auto dg = ctdg.discretize(4, 8);
    ASSERT_EQ(dg.numSnapshots(), 4);
    EXPECT_EQ(dg.featureDim(), 8);

    // t = 0: initial graph.
    EXPECT_TRUE(dg.snapshot(0).hasEdge(0, 1));
    EXPECT_EQ(dg.snapshot(0).numEdges(), 1);
    // t = 1 (cutoff ~1.67): 0-1 and 1-2.
    EXPECT_TRUE(dg.snapshot(1).hasEdge(1, 2));
    EXPECT_TRUE(dg.snapshot(1).hasEdge(0, 1));
    // t = 2 (cutoff ~2.33): 0-1 removed.
    EXPECT_FALSE(dg.snapshot(2).hasEdge(0, 1));
    EXPECT_TRUE(dg.snapshot(2).hasEdge(1, 2));
    // t = 3 (cutoff 3): 2-3 added.
    EXPECT_TRUE(dg.snapshot(3).hasEdge(2, 3));
    EXPECT_EQ(dg.snapshot(3).numEdges(), 2);
}

TEST(Ctdg, SingleSnapshotIsInitialGraph)
{
    const auto dg = tinyStream().discretize(1, 4);
    EXPECT_EQ(dg.numSnapshots(), 1);
    EXPECT_TRUE(dg.snapshot(0).hasEdge(0, 1));
}

TEST(Ctdg, NoOpEventsTolerated)
{
    Csr initial = Csr::fromEdges(3, {{0, 1}});
    std::vector<GraphEvent> events = {
        {GraphEvent::Kind::AddEdge, 0, 1, 1.0},    // already present.
        {GraphEvent::Kind::RemoveEdge, 1, 2, 2.0}, // missing.
    };
    ContinuousDynamicGraph ctdg("noop", std::move(initial),
                                std::move(events));
    const auto dg = ctdg.discretize(3, 4);
    for (SnapshotId t = 0; t < 3; ++t)
        EXPECT_EQ(dg.snapshot(t).numEdges(), 1) << t;
}

TEST(Ctdg, EmptyEventStream)
{
    Csr initial = Csr::fromEdges(3, {{0, 1}, {1, 2}});
    ContinuousDynamicGraph ctdg("static", std::move(initial), {});
    const auto dg = ctdg.discretize(3, 4);
    EXPECT_EQ(dg.numSnapshots(), 3);
    EXPECT_DOUBLE_EQ(dg.avgDissimilarity(), 0.0);
}

TEST(GenerateEventStream, RespectsConfiguration)
{
    EventStreamConfig config;
    config.numVertices = 256;
    config.initialEdges = 1024;
    config.numEvents = 500;
    config.duration = 50.0;
    config.seed = 7;
    const auto ctdg = generateEventStream(config);
    EXPECT_EQ(ctdg.initial().numVertices(), 256);
    EXPECT_EQ(ctdg.initial().numEdges(), 1024);
    EXPECT_LE(ctdg.events().size(), 500u);
    EXPECT_GE(ctdg.events().size(), 400u); // few degenerate skips.
    double prev = 0.0;
    for (const auto &e : ctdg.events()) {
        EXPECT_GE(e.timestamp, prev);
        EXPECT_LE(e.timestamp, 50.0);
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, 256);
        EXPECT_GE(e.v, 0);
        EXPECT_LT(e.v, 256);
        prev = e.timestamp;
    }
}

TEST(GenerateEventStream, Deterministic)
{
    EventStreamConfig config;
    config.numVertices = 128;
    config.initialEdges = 512;
    config.numEvents = 200;
    config.seed = 11;
    const auto a = generateEventStream(config);
    const auto b = generateEventStream(config);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].u, b.events()[i].u);
        EXPECT_EQ(a.events()[i].v, b.events()[i].v);
        EXPECT_DOUBLE_EQ(a.events()[i].timestamp,
                         b.events()[i].timestamp);
    }
}

TEST(GenerateEventStream, DiscretizedStreamFeedsPipeline)
{
    EventStreamConfig config;
    config.numVertices = 300;
    config.initialEdges = 1500;
    config.numEvents = 600;
    config.removalFraction = 0.5;
    const auto dg = generateEventStream(config).discretize(5, 16);
    EXPECT_EQ(dg.numSnapshots(), 5);
    EXPECT_EQ(dg.numVertices(), 300);
    // The stream produced genuine inter-snapshot change.
    EXPECT_GT(dg.avgDissimilarity(), 0.0);
    // Balanced add/remove keeps the size in a sane band.
    for (SnapshotId t = 0; t < 5; ++t) {
        EXPECT_GT(dg.snapshot(t).numEdges(), 1000);
        EXPECT_LT(dg.snapshot(t).numEdges(), 2000);
    }
}

/**
 * Event-stream byte-identity: hashes recorded before the generator
 * moved onto the flat edge-key set. The dense case exhausts its add
 * retries, so degenerate adds are skipped too.
 */
TEST(GenerateEventStream, GoldenStreamHashes)
{
    EventStreamConfig config;
    {
        SCOPED_TRACE("default config");
        const auto ctdg = generateEventStream(config);
        EXPECT_EQ(streamHash(ctdg), 5147654469042891094ull);
        EXPECT_EQ(ctdg.discretize(6, 8).structureHashValue(),
                  6452242005035760820ull);
    }
    config.numVertices = 16;
    config.initialEdges = 100;
    config.numEvents = 3000;
    config.removalFraction = 0.3;
    config.seed = 9;
    {
        SCOPED_TRACE("dense config");
        const auto ctdg = generateEventStream(config);
        EXPECT_LT(ctdg.events().size(), 3000u);
        EXPECT_EQ(streamHash(ctdg), 205535779958731512ull);
        EXPECT_EQ(ctdg.discretize(6, 8).structureHashValue(),
                  15134175465298718945ull);
    }
}

TEST(GenerateEventStream, RemovalFractionShapesStream)
{
    EventStreamConfig grow;
    grow.numVertices = 200;
    grow.initialEdges = 400;
    grow.numEvents = 400;
    grow.removalFraction = 0.0;
    const auto grown = generateEventStream(grow).discretize(3, 4);
    EXPECT_GT(grown.snapshot(2).numEdges(),
              grown.snapshot(0).numEdges());

    EventStreamConfig shrink = grow;
    shrink.removalFraction = 1.0;
    const auto shrunk = generateEventStream(shrink).discretize(3, 4);
    EXPECT_LT(shrunk.snapshot(2).numEdges(),
              shrunk.snapshot(0).numEdges());
}

} // namespace
} // namespace ditile::graph
