/**
 * @file
 * Contract-violation (failure-injection) tests: misusing the public
 * API must fail loudly at the violated precondition, not corrupt the
 * simulation downstream. Every check here pins an assertion message
 * so refactors keep the diagnostics useful.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "graph/ctdg.hh"
#include "graph/dynamic_graph.hh"
#include "graph/generator.hh"
#include "sim/engine.hh"
#include "tiling/optimizer.hh"

namespace ditile {
namespace {

TEST(ContractCsr, OutOfRangeEdgeDies)
{
    EXPECT_DEATH(graph::Csr::fromEdges(3, {{0, 7}}), "out of range");
}

TEST(ContractCsr, NonCanonicalSortedEdgesDie)
{
    EXPECT_DEATH(graph::Csr::fromSortedEdges(3, {{0, 7}}), "out of range");
    EXPECT_DEATH(graph::Csr::fromSortedEdges(3, {{1, 0}}),
                 "canonical order");
    EXPECT_DEATH(graph::Csr::fromSortedEdges(3, {{1, 2}, {0, 1}}),
                 "canonical order");
    EXPECT_DEATH(graph::Csr::fromSortedEdges(3, {{0, 1}, {0, 1}}),
                 "canonical order");
}

TEST(ContractDynamicGraph, EmptySnapshotListDies)
{
    EXPECT_DEATH(graph::DynamicGraph("x", std::vector<graph::Csr>{},
                                     4),
                 "at least one snapshot");
}

TEST(ContractDynamicGraph, MismatchedUniversesDie)
{
    std::vector<graph::Csr> snaps;
    snaps.emplace_back(4);
    snaps.emplace_back(5);
    EXPECT_DEATH(graph::DynamicGraph("x", snaps, 4),
                 "share a vertex universe");
}

TEST(ContractDynamicGraph, NonPositiveFeatureDimDies)
{
    std::vector<graph::Csr> snaps;
    snaps.emplace_back(4);
    EXPECT_DEATH(graph::DynamicGraph("x", snaps, 0),
                 "feature dim");
}

TEST(ContractDynamicGraph, SnapshotIndexOutOfRangeDies)
{
    std::vector<graph::Csr> snaps;
    snaps.emplace_back(4);
    graph::DynamicGraph dg("x", snaps, 4);
    EXPECT_DEATH(dg.snapshot(5), "out of range");
    EXPECT_DEATH(dg.delta(0), "out of range");
}

TEST(ContractDelta, DifferentUniversesDie)
{
    const graph::Csr a(3);
    const graph::Csr b(4);
    EXPECT_DEATH(graph::GraphDelta::diff(a, b),
                 "share a vertex universe");
}

TEST(ContractCtdg, UnorderedEventsDie)
{
    std::vector<graph::GraphEvent> events = {
        {graph::GraphEvent::Kind::AddEdge, 0, 1, 5.0},
        {graph::GraphEvent::Kind::AddEdge, 1, 2, 1.0},
    };
    EXPECT_DEATH(graph::ContinuousDynamicGraph("x", graph::Csr(4),
                                               events),
                 "time-ordered");
}

TEST(ContractCtdg, OutOfUniverseEventDies)
{
    std::vector<graph::GraphEvent> events = {
        {graph::GraphEvent::Kind::AddEdge, 0, 9, 1.0},
    };
    EXPECT_DEATH(graph::ContinuousDynamicGraph("x", graph::Csr(4),
                                               events),
                 "vertex universe");
}

TEST(ContractTiling, NonSquareGridDies)
{
    tiling::HardwareFeatures hw;
    hw.totalTiles = 12;
    EXPECT_DEATH(tiling::gridDim(hw), "not a square grid");
}

/** The InputError message @p fn raises; empty when it returns. */
template <typename Fn>
std::string
inputErrorOf(Fn fn)
{
    try {
        fn();
    } catch (const InputError &e) {
        return e.what();
    }
    return "";
}

TEST(ContractEngine, WrongPartitionSizeThrowsInputError)
{
    graph::EvolutionConfig config;
    config.numVertices = 100;
    config.numEdges = 300;
    config.numSnapshots = 2;
    const auto dg = graph::generateDynamicGraph(config);
    const auto hw = sim::AcceleratorConfig::defaults();
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {8};
    mconfig.lstmHidden = 8;

    sim::MappingSpec mapping;
    mapping.rowPartition =
        graph::VertexPartition::contiguous(50, hw.tileRows); // wrong V
    mapping.snapshotColumn = {0, 1};
    const std::string msg = inputErrorOf(
        [&] { sim::runEngine(dg, mconfig, hw, mapping, {}, "x"); });
    EXPECT_NE(msg.find("does not match workload"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("50 vertices"), std::string::npos) << msg;
}

TEST(ContractEngine, MissingColumnMapThrowsInputError)
{
    graph::EvolutionConfig config;
    config.numVertices = 100;
    config.numEdges = 300;
    config.numSnapshots = 3;
    const auto dg = graph::generateDynamicGraph(config);
    const auto hw = sim::AcceleratorConfig::defaults();
    model::DgnnConfig mconfig;
    mconfig.gcnDims = {8};
    mconfig.lstmHidden = 8;

    sim::MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    mapping.snapshotColumn = {0}; // T = 3 but one entry.
    const std::string msg = inputErrorOf(
        [&] { sim::runEngine(dg, mconfig, hw, mapping, {}, "x"); });
    EXPECT_NE(msg.find("does not match workload"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("1 snapshot columns"), std::string::npos) << msg;
}

TEST(ContractGenerator, InvalidDissimilarityDies)
{
    graph::EvolutionConfig config;
    config.numVertices = 64;
    config.numEdges = 128;
    config.dissimilarity = 1.5;
    EXPECT_DEATH(graph::generateDynamicGraph(config),
                 "dissimilarity");
}

} // namespace
} // namespace ditile
