/**
 * @file
 * Tests for the shared execution engine and the baseline accelerator
 * models.
 */

#include <gtest/gtest.h>

#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/engine.hh"

namespace ditile::sim {
namespace {

graph::DynamicGraph
workload(std::uint64_t seed = 3, VertexId vertices = 500)
{
    graph::EvolutionConfig config;
    config.numVertices = vertices;
    config.numEdges = static_cast<EdgeId>(vertices) * 6;
    config.numSnapshots = 4;
    config.dissimilarity = 0.10;
    config.featureDim = 32;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

graph::DynamicGraph
paperRegimeWorkload(std::uint64_t seed)
{
    graph::EvolutionConfig config;
    config.numVertices = 2000;
    config.numEdges = 16000;
    config.numSnapshots = 8;
    config.dissimilarity = 0.10;
    config.featureDim = 128;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

model::DgnnConfig
smallModel()
{
    model::DgnnConfig config;
    config.gcnDims = {16, 8};
    config.lstmHidden = 8;
    return config;
}

MappingSpec
temporalMapping(const graph::DynamicGraph &dg,
                const AcceleratorConfig &hw)
{
    MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    mapping.snapshotColumn.resize(
        static_cast<std::size_t>(dg.numSnapshots()));
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t)
        mapping.snapshotColumn[static_cast<std::size_t>(t)] =
            static_cast<int>(t % hw.tileCols);
    return mapping;
}

TEST(Engine, ProducesPopulatedResult)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    const auto r = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "test");
    EXPECT_EQ(r.acceleratorName, "test");
    EXPECT_EQ(r.workloadName, dg.name());
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.computeCycles, 0u);
    EXPECT_GT(r.offChipCycles, 0u);
    EXPECT_GT(r.ops.totalArithmetic(), 0u);
    EXPECT_GT(r.dramTraffic.total(), 0u);
    EXPECT_GT(r.energy.totalPj(), 0.0);
    EXPECT_GT(r.peUtilization, 0.0);
    EXPECT_LE(r.peUtilization, 1.0);
    EXPECT_EQ(r.configCycles,
              static_cast<Cycle>(dg.numSnapshots()) *
                  hw.perSnapshotConfigCycles);
    EXPECT_GT(r.stats.get("cycles.total"), 0.0);
}

TEST(Engine, Deterministic)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "b");
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_DOUBLE_EQ(a.energy.totalPj(), b.energy.totalPj());
}

TEST(Engine, OpsMatchAccountingLayer)
{
    const auto dg = workload();
    const auto config = smallModel();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    options.algo = model::AlgoKind::RaceAlg;
    const auto r = runEngine(dg, config, hw, temporalMapping(dg, hw),
                             options, "x");
    EXPECT_EQ(r.ops.totalArithmetic(),
              model::countTotalOps(dg, config, model::AlgoKind::RaceAlg)
                  .totalArithmetic());
    EXPECT_EQ(r.dramTraffic.total(),
              model::countTotalDram(dg, config,
                                    model::AlgoKind::RaceAlg,
                                    options.accounting)
                  .total());
}

TEST(Engine, GlobalBarrierNeverFaster)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions plain;
    EngineOptions barrier;
    barrier.globalGnnBarrier = true;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), plain, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), barrier, "b");
    EXPECT_GE(b.totalCycles, a.totalCycles);
}

TEST(Engine, SmallerMacFractionSlowsCompute)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions full;
    EngineOptions half;
    half.gnnMacFraction = 0.5;
    half.rnnMacFraction = 0.5;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), full, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), half, "b");
    EXPECT_GT(b.computeCycles, a.computeCycles);
}

TEST(Engine, DramTrafficScaleChangesMovedBytes)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions normal;
    EngineOptions reduced;
    reduced.dramTrafficScale = 0.5;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), normal, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), reduced, "b");
    EXPECT_LT(b.energyEvents.dramBytes, a.energyEvents.dramBytes);
    // The algorithmic accounting view stays unscaled.
    EXPECT_EQ(b.dramTraffic.total(), a.dramTraffic.total());
}

TEST(Engine, SpatialOnlyMappingRuns)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    MappingSpec mapping;
    mapping.spatialOnly = true;
    mapping.tilePartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.totalTiles());
    EngineOptions options;
    options.algo = model::AlgoKind::MegaAlg;
    const auto r = runEngine(dg, smallModel(), hw, mapping, options,
                             "mega-like");
    EXPECT_GT(r.totalCycles, 0u);
    // Spatial-only has no inter-tile temporal or reuse transfers.
    EXPECT_EQ(r.nocBytesTemporal, 0u);
    EXPECT_EQ(r.nocBytesReuse, 0u);
    EXPECT_GT(r.nocBytesSpatial, 0u);
}

TEST(Engine, TemporalMappingGeneratesAllTrafficClasses)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    options.algo = model::AlgoKind::DiTileAlg;
    const auto r = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "x");
    EXPECT_GT(r.nocBytesSpatial, 0u);
    EXPECT_GT(r.nocBytesTemporal, 0u);
    EXPECT_GT(r.nocBytesReuse, 0u);
}

TEST(Engine, ReuseFifoForwardingRoutesReuseEnergy)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions without;
    without.algo = model::AlgoKind::DiTileAlg;
    EngineOptions with = without;
    with.reuseFifoForwarding = true;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), without, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), with, "b");
    EXPECT_EQ(a.energyEvents.reuseFifoBytes, 0u);
    EXPECT_GT(b.energyEvents.reuseFifoBytes, 0u);
}

TEST(Engine, ReconfigEventsFeedControlEnergy)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    options.reconfigEventsPerSnapshot = 4;
    const auto r = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "x");
    EXPECT_EQ(r.energyEvents.reconfigEvents,
              4u * static_cast<std::uint64_t>(dg.numSnapshots()));
}

TEST(Engine, TraceCoversEverySnapshot)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    const auto r = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "x");
    ASSERT_EQ(static_cast<SnapshotId>(r.trace.size()),
              dg.numSnapshots());
    Cycle last_rnn = 0;
    for (SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        const auto &tr = r.trace[static_cast<std::size_t>(t)];
        EXPECT_EQ(tr.snapshot, t);
        EXPECT_GE(tr.column, 0);
        EXPECT_LT(tr.column, hw.tileCols);
        // Phase ordering within a snapshot and across the RNN chain.
        EXPECT_GE(tr.gnnDone, tr.dramDone > 0 ? 0u : 0u);
        EXPECT_GE(tr.rnnDone, tr.gnnDone);
        EXPECT_GE(tr.rnnDone, last_rnn); // temporal chain is ordered.
        last_rnn = tr.rnnDone;
        // The end-to-end time covers every phase completion.
        EXPECT_LE(tr.rnnDone, r.totalCycles);
    }
    // Trace sums reconcile with the aggregate counters.
    Cycle compute_sum = 0;
    Cycle comm_sum = 0;
    for (const auto &tr : r.trace) {
        compute_sum += tr.gnnComputeCycles + tr.rnnComputeCycles;
        comm_sum += tr.spatialCommCycles + tr.temporalCommCycles;
    }
    EXPECT_EQ(compute_sum, r.computeCycles);
    EXPECT_EQ(comm_sum, r.onChipCommCycles);
}

TEST(Engine, DetailedTileTimingAddsOverheads)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions flat;
    EngineOptions detailed;
    detailed.detailedTileTiming = true;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), flat, "flat");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), detailed,
                             "detailed");
    // Dispatch latency and intra-tile imbalance make the detailed
    // compute slower, but within a bounded envelope of the flat model
    // (the cross-validation claim).
    EXPECT_GE(b.computeCycles, a.computeCycles);
    EXPECT_LE(static_cast<double>(b.computeCycles),
              static_cast<double>(a.computeCycles) * 6.0);
    // Accounting quantities are timing-model independent.
    EXPECT_EQ(a.ops.totalArithmetic(), b.ops.totalArithmetic());
    EXPECT_EQ(a.dramTraffic.total(), b.dramTraffic.total());
}

TEST(Engine, DetailedTileTimingDeterministic)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    options.detailedTileTiming = true;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), options, "b");
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

TEST(Engine, SeparateRnnResourcePipelinesBetterOrEqual)
{
    // The flag is descriptive: under a column mapping every RNN
    // phase runs on its own task-graph lane and never holds the
    // column, with or without a separate engine, so the totals match.
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions shared;
    EngineOptions engines = shared;
    engines.rnnSeparateResource = true;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), shared, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), engines, "b");
    EXPECT_EQ(b.totalCycles, a.totalCycles);
}

TEST(Engine, AlgorithmChoiceDrivesTime)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions re;
    re.algo = model::AlgoKind::ReAlg;
    EngineOptions ditile;
    ditile.algo = model::AlgoKind::DiTileAlg;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), re, "re");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), ditile, "dt");
    EXPECT_GT(a.totalCycles, b.totalCycles);
    EXPECT_GT(a.ops.totalArithmetic(), b.ops.totalArithmetic());
}

TEST(Engine, EnergyScalesMultiplyCategories)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions plain;
    EngineOptions scaled = plain;
    scaled.computeEnergyScale = 3.0;
    scaled.onChipEnergyScale = 2.0;
    scaled.offChipEnergyScale = 1.5;
    const auto a = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), plain, "a");
    const auto b = runEngine(dg, smallModel(), hw,
                             temporalMapping(dg, hw), scaled, "b");
    EXPECT_NEAR(b.energy.computePj, 3.0 * a.energy.computePj, 1e-6);
    EXPECT_NEAR(b.energy.onChipCommPj, 2.0 * a.energy.onChipCommPj,
                1e-6);
    EXPECT_NEAR(b.energy.offChipCommPj, 1.5 * a.energy.offChipCommPj,
                1e-6);
    // Timing is untouched by energy scaling.
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

TEST(Engine, SingleSnapshotHasNoBoundaryTraffic)
{
    graph::EvolutionConfig config;
    config.numVertices = 300;
    config.numEdges = 1800;
    config.numSnapshots = 1;
    const auto dg = graph::generateDynamicGraph(config);
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    mapping.snapshotColumn = {0};
    const auto r = runEngine(dg, smallModel(), hw, mapping, options,
                             "one");
    EXPECT_EQ(r.nocBytesTemporal, 0u);
    EXPECT_EQ(r.nocBytesReuse, 0u);
    EXPECT_GT(r.totalCycles, 0u);
}

TEST(Engine, SameColumnChainSkipsTemporalMessages)
{
    const auto dg = workload();
    const auto hw = AcceleratorConfig::defaults();
    EngineOptions options;
    MappingSpec mapping;
    mapping.rowPartition = graph::VertexPartition::contiguous(
        dg.numVertices(), hw.tileRows);
    // Every snapshot on column 0: hidden state never crosses tiles.
    mapping.snapshotColumn.assign(
        static_cast<std::size_t>(dg.numSnapshots()), 0);
    const auto r = runEngine(dg, smallModel(), hw, mapping, options,
                             "pinned");
    EXPECT_EQ(r.nocBytesTemporal, 0u);
    EXPECT_EQ(r.nocBytesReuse, 0u);
}

TEST(Baselines, NamesAndConstruction)
{
    EXPECT_EQ(makeReady()->name(), "ReaDy");
    EXPECT_EQ(makeDgnnBooster()->name(), "DGNN-Booster");
    EXPECT_EQ(makeRace()->name(), "RACE");
    EXPECT_EQ(makeMega()->name(), "MEGA");
}

TEST(Baselines, ReAlgTwinsShareOpCounts)
{
    const auto dg = workload();
    const auto config = smallModel();
    const auto ready = makeReady()->run(dg, config);
    const auto booster = makeDgnnBooster()->run(dg, config);
    EXPECT_EQ(ready.ops.totalArithmetic(),
              booster.ops.totalArithmetic());
}

TEST(Baselines, CrossFetchFractionInUnitRange)
{
    const auto dg = workload();
    const double cf = baselineCrossFetchFraction(
        dg, smallModel(), AcceleratorConfig::defaults());
    EXPECT_GE(cf, 0.0);
    EXPECT_LE(cf, 1.0);
}

/** The headline comparison must hold across random workloads. */
class HeadlineOrdering : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeadlineOrdering, DiTileWinsTimeAndEnergy)
{
    // Paper-regime scale: the headline claim targets real DGNN
    // workloads, not micro graphs where MEGA's whole-grid spatial
    // spread can edge ahead.
    const auto dg = paperRegimeWorkload(GetParam());
    model::DgnnConfig config; // paper-shaped dims.

    core::DiTileAccelerator ditile;
    const auto dt = ditile.run(dg, config);

    for (auto make : {makeReady, makeDgnnBooster, makeRace, makeMega}) {
        auto baseline = make(AcceleratorConfig::defaults());
        const auto r = baseline->run(dg, config);
        EXPECT_LT(dt.totalCycles, r.totalCycles) << baseline->name();
        EXPECT_LT(dt.energy.totalPj(), r.energy.totalPj())
            << baseline->name();
        EXPECT_LE(dt.ops.totalArithmetic(), r.ops.totalArithmetic())
            << baseline->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadlineOrdering,
                         ::testing::Values(1u, 11u, 31u));

} // namespace
} // namespace ditile::sim
