/**
 * @file
 * Tests for the multi-chip scale-out layer: chips=1 byte-identity of
 * plan JSON and execution, cross-thread bit-identity of M-chip
 * cluster schedules, chunk-partitioner balance invariants, format-3
 * plan round trips (with format-2 back-compat), InterChipLink cycle
 * math, the cluster overlap-vs-staged makespan bound, delta-built
 * shards against the edge-list reference, pinned cluster results, and
 * the PlanCache's chip-phase memo (one chip phase per link sweep, a
 * miss for every input it reads, nothing published on error).
 */

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "noc/interchip.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"
#include "sim/task_graph.hh"
#include "workload/chunk_partition.hh"

namespace ditile {
namespace {

graph::DynamicGraph
scaleoutWorkload(VertexId vertices = 1400, EdgeId edges = 11200)
{
    graph::EvolutionConfig config;
    config.name = "scaleout-test";
    config.numVertices = vertices;
    config.numEdges = edges;
    config.numSnapshots = 5;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 7;
    return graph::generateDynamicGraph(config);
}

sim::ExecutionPlan
planFor(const graph::DynamicGraph &dg, int chips,
        sim::PlanCache *cache = nullptr)
{
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{}, cache);
    if (chips > 1)
        sim::applyScaleOut(plan, dg, chips,
                           noc::InterChipLinkConfig{});
    return plan;
}

/** The fields the CSV/report surfaces, for whole-result equality. */
void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.onChipCommCycles, b.onChipCommCycles);
    EXPECT_EQ(a.offChipCycles, b.offChipCycles);
    EXPECT_EQ(a.configCycles, b.configCycles);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.nocBytesTemporal, b.nocBytesTemporal);
    EXPECT_EQ(a.nocBytesSpatial, b.nocBytesSpatial);
    EXPECT_EQ(a.nocBytesReuse, b.nocBytesReuse);
    EXPECT_DOUBLE_EQ(a.peUtilization, b.peUtilization);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t)
        EXPECT_EQ(a.trace[t].rnnDone, b.trace[t].rnnDone)
            << "snapshot " << t;
}

TEST(ScaleOut, ChipsOneIsByteIdenticalAndNeverEntersTheLayer)
{
    const auto dg = scaleoutWorkload();
    auto plan = planFor(dg, 1);
    const auto before = plan.toJson();
    EXPECT_NE(before.find("\"plan_format\":2"), std::string::npos);
    EXPECT_EQ(before.find("\"scaleout\""), std::string::npos);

    // chips=1 through applyScaleOut must leave the plan untouched.
    sim::applyScaleOut(plan, dg, 1, noc::InterChipLinkConfig{});
    EXPECT_FALSE(plan.scaleout.enabled());
    EXPECT_EQ(plan.toJson(), before);

    const auto base = sim::executePlan(dg, planFor(dg, 1));
    const auto after = sim::executePlan(dg, plan);
    expectSameResult(base, after);
}

TEST(ScaleOut, MultiChipScheduleBitIdenticalAcrossThreadWidths)
{
    const auto dg = scaleoutWorkload();
    ThreadPool::setGlobalThreads(1);
    const auto plan = planFor(dg, 3);
    const auto reference = sim::executePlan(dg, plan);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        const auto plan_t = planFor(dg, 3);
        EXPECT_EQ(plan_t.toJson(), plan.toJson());
        expectSameResult(sim::executePlan(dg, plan_t), reference);
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(ScaleOut, PartitionerBalanceInvariants)
{
    const auto dg = scaleoutWorkload();
    workload::ChunkPartitionOptions options;
    options.chips = 4;
    const auto part = workload::buildChunkPartition(dg, options);

    ASSERT_EQ(part.chips, 4);
    ASSERT_GT(part.chunks, 0);
    ASSERT_EQ(part.chipOfChunk.size(),
              static_cast<std::size_t>(part.chunks));
    ASSERT_EQ(part.chunkLoad.size(),
              static_cast<std::size_t>(part.chunks));
    ASSERT_EQ(part.chipLoad.size(), 4u);

    // Every chunk lands on a valid chip and every chip gets work.
    std::vector<int> chunks_on_chip(4, 0);
    for (int chip : part.chipOfChunk) {
        ASSERT_GE(chip, 0);
        ASSERT_LT(chip, 4);
        ++chunks_on_chip[static_cast<std::size_t>(chip)];
    }
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(chunks_on_chip[static_cast<std::size_t>(c)], 0)
            << "chip " << c << " got no chunks";

    // chipLoad is exactly the chunk loads folded by assignment.
    std::vector<std::uint64_t> folded(4, 0);
    for (int k = 0; k < part.chunks; ++k)
        folded[static_cast<std::size_t>(part.chipOfChunk
                                            [static_cast<std::size_t>(
                                                k)])] +=
            part.chunkLoad[static_cast<std::size_t>(k)];
    EXPECT_EQ(folded, part.chipLoad);

    // LPT + slack-bounded refinement keeps the imbalance tame: the
    // bound is mean + max single chunk load, stated relative to mean.
    const double mean =
        static_cast<double>(std::accumulate(part.chipLoad.begin(),
                                            part.chipLoad.end(),
                                            std::uint64_t{0})) /
        4.0;
    const auto max_chunk =
        *std::max_element(part.chunkLoad.begin(),
                          part.chunkLoad.end());
    EXPECT_GE(part.imbalance(), 1.0);
    EXPECT_LE(part.imbalance(),
              (mean + static_cast<double>(max_chunk)) / mean);

    // The egress census is self-consistent: per-snapshot totals sum
    // to the overall cross-adjacency count, and the per-chip egress
    // rows count every cross adjacency from both endpoints.
    const auto T = dg.numSnapshots();
    ASSERT_EQ(part.crossAdjPerSnapshot.size(),
              static_cast<std::size_t>(T));
    ASSERT_EQ(part.egressAdj.size(), static_cast<std::size_t>(T) * 4);
    EXPECT_EQ(std::accumulate(part.crossAdjPerSnapshot.begin(),
                              part.crossAdjPerSnapshot.end(),
                              std::uint64_t{0}),
              part.crossAdjTotal);
    EXPECT_GT(part.crossAdjTotal, 0u);

    // chipOfVertex is the contiguous-chunk lookup.
    for (VertexId v : {VertexId{0}, dg.numVertices() / 2,
                       dg.numVertices() - 1})
        EXPECT_EQ(part.chipOfVertex(v),
                  part.chipOfChunk[static_cast<std::size_t>(
                      v / part.chunkSpan)]);
}

TEST(ScaleOut, PartitionerRejectsMoreChipsThanVertices)
{
    const auto dg = scaleoutWorkload(16, 64);
    workload::ChunkPartitionOptions options;
    options.chips = 32;
    EXPECT_THROW(workload::buildChunkPartition(dg, options),
                 InputError);
}

TEST(ScaleOut, FormatThreePlanRoundTrips)
{
    const auto dg = scaleoutWorkload();
    const auto plan = planFor(dg, 2);
    const auto text = plan.toJson();
    EXPECT_NE(text.find("\"plan_format\":3"), std::string::npos);
    EXPECT_NE(text.find("\"scaleout\":{\"chips\":2"),
              std::string::npos);

    const auto loaded = sim::ExecutionPlan::fromJson(text);
    EXPECT_TRUE(loaded.scaleout.enabled());
    EXPECT_EQ(loaded.scaleout.chips, plan.scaleout.chips);
    EXPECT_EQ(loaded.scaleout.chunkSpan, plan.scaleout.chunkSpan);
    EXPECT_EQ(loaded.scaleout.chipOfChunk, plan.scaleout.chipOfChunk);
    EXPECT_DOUBLE_EQ(loaded.scaleout.link.bandwidthGbps,
                     plan.scaleout.link.bandwidthGbps);
    EXPECT_DOUBLE_EQ(loaded.scaleout.link.latencyNs,
                     plan.scaleout.link.latencyNs);
    EXPECT_EQ(loaded.scaleout.link.packetBytes,
              plan.scaleout.link.packetBytes);
    EXPECT_EQ(loaded.scaleout.link.packetHeaderBytes,
              plan.scaleout.link.packetHeaderBytes);

    // The round trip is lossless down to the serialized bytes, and a
    // replayed plan reproduces the direct run.
    EXPECT_EQ(loaded.toJson(), text);
    EXPECT_EQ(loaded.contentHash(), plan.contentHash());
    expectSameResult(sim::executePlan(dg, loaded),
                     sim::executePlan(dg, plan));
}

TEST(ScaleOut, FormatTwoPlansStillLoad)
{
    const auto dg = scaleoutWorkload();
    const auto plan = planFor(dg, 1);
    const auto text = plan.toJson();
    ASSERT_NE(text.find("\"plan_format\":2"), std::string::npos);
    const auto loaded = sim::ExecutionPlan::fromJson(text);
    EXPECT_FALSE(loaded.scaleout.enabled());
    EXPECT_EQ(loaded.scaleout.chips, 1);
    EXPECT_EQ(loaded.toJson(), text);
}

TEST(ScaleOut, InterChipLinkCycleMath)
{
    noc::InterChipLinkConfig config;  // 100 Gb/s, 350 ns, 256B+16B
    const noc::InterChipLink link(config, 1.0);
    // 100 Gb/s at 1 GHz = 12.5 bytes per cycle.
    EXPECT_DOUBLE_EQ(link.bytesPerCycle(), 12.5);
    EXPECT_EQ(link.latencyCycles(), 350u);
    // One full packet pays one header; a packet plus one byte pays
    // two.
    EXPECT_EQ(link.wireBytes(256), 256u + 16u);
    EXPECT_EQ(link.wireBytes(257), 257u + 32u);
    // 272 wire bytes at 12.5 B/cyc serialize in ceil(21.76) = 22.
    EXPECT_EQ(link.transferCycles(256), 350u + 22u);
    // Nothing to send costs nothing (no latency charge either).
    EXPECT_EQ(link.wireBytes(0), 0u);
    EXPECT_EQ(link.transferCycles(0), 0u);

    // Fractional clocks ceil the latency: 350 ns at 0.7 GHz = 245.
    const noc::InterChipLink slow(config, 0.7);
    EXPECT_EQ(slow.latencyCycles(), 245u);
}

TEST(ScaleOut, ClusterGraphShapeAndOverlapBound)
{
    const auto dg = scaleoutWorkload();
    auto plan = planFor(dg, 2);
    const auto T = static_cast<std::size_t>(dg.numSnapshots());

    const auto graph = sim::buildTaskGraph(plan);
    // Per snapshot: one ChipCompute per chip, one InterChipComm per
    // chip except after the last snapshot; 2 chip lanes + 2 link
    // lanes.
    EXPECT_EQ(graph.nodes.size(), 2 * T + 2 * (T - 1));
    EXPECT_EQ(graph.lanes.size(), 4u);

    const auto overlap = sim::executePlan(dg, plan);
    auto staged_plan = plan;
    staged_plan.options.overlap = false;
    const auto staged = sim::executePlan(dg, staged_plan);
    EXPECT_LE(overlap.totalCycles, staged.totalCycles);
    EXPECT_GT(overlap.totalCycles, 0u);
}

TEST(ScaleOut, SharedPlanCacheHitsAcrossRepeatRuns)
{
    const auto dg = scaleoutWorkload();
    sim::PlanCache cache;
    auto plan = planFor(dg, 2, &cache);
    const auto first = sim::executePlan(dg, plan, &cache);
    const auto second = sim::executePlan(dg, plan, &cache);
    expectSameResult(first, second);
    EXPECT_GT(cache.hits(), 0u);
}

// ---------------------------------------------------------------------
// Shards from deltas vs the edge-list reference: the reference below
// is the shard construction runScaleOut used before ChipShards — one
// edgeList() scan per snapshot bucketed per chip, Csr::fromEdges, and
// the diffing DynamicGraph constructor.
// ---------------------------------------------------------------------

struct ReferenceShards
{
    std::vector<graph::DynamicGraph> shards;
    std::vector<std::uint64_t> egressAdj; ///< [T * chips]
};

ReferenceShards
referenceShards(const graph::DynamicGraph &dg,
                const sim::ScaleOutSpec &spec)
{
    const auto chips = static_cast<std::size_t>(spec.chips);
    const auto T = static_cast<std::size_t>(dg.numSnapshots());
    const auto chip_of = [&](VertexId v) {
        return static_cast<std::size_t>(
            spec.chipOfChunk[static_cast<std::size_t>(
                v / spec.chunkSpan)]);
    };
    std::vector<std::vector<VertexId>> global_ids(chips);
    std::vector<VertexId> local_id(
        static_cast<std::size_t>(dg.numVertices()));
    for (VertexId v = 0; v < dg.numVertices(); ++v) {
        auto &ids = global_ids[chip_of(v)];
        local_id[static_cast<std::size_t>(v)] =
            static_cast<VertexId>(ids.size());
        ids.push_back(v);
    }
    std::vector<std::vector<std::vector<graph::Edge>>> edges(
        chips, std::vector<std::vector<graph::Edge>>(T));
    ReferenceShards ref;
    ref.egressAdj.assign(T * chips, 0);
    for (std::size_t t = 0; t < T; ++t) {
        for (const auto &[u, v] :
             dg.snapshot(static_cast<SnapshotId>(t)).edgeList()) {
            const auto cu = chip_of(u);
            const auto cv = chip_of(v);
            if (cu == cv) {
                edges[cu][t].emplace_back(
                    local_id[static_cast<std::size_t>(u)],
                    local_id[static_cast<std::size_t>(v)]);
            } else {
                ++ref.egressAdj[t * chips + cu];
                ++ref.egressAdj[t * chips + cv];
            }
        }
    }
    for (std::size_t c = 0; c < chips; ++c) {
        std::vector<graph::Csr> snaps;
        for (std::size_t t = 0; t < T; ++t) {
            snaps.push_back(graph::Csr::fromEdges(
                static_cast<VertexId>(global_ids[c].size()),
                edges[c][t]));
        }
        ref.shards.emplace_back(
            dg.name() + "#chip" + std::to_string(c), std::move(snaps),
            dg.featureDim());
    }
    return ref;
}

void
expectSameShards(const graph::DynamicGraph &dg,
                 const sim::ScaleOutSpec &spec)
{
    const ReferenceShards ref = referenceShards(dg, spec);
    sim::ChipShards shards(dg, spec);
    ASSERT_EQ(shards.chips(), spec.chips);
    for (int c = 0; c < spec.chips; ++c) {
        SCOPED_TRACE(testing::Message() << "chip " << c);
        const graph::DynamicGraph shard = shards.build(c);
        const graph::DynamicGraph &want =
            ref.shards[static_cast<std::size_t>(c)];
        EXPECT_EQ(shard.name(), want.name());
        ASSERT_EQ(shard.numSnapshots(), want.numSnapshots());
        EXPECT_EQ(shard.numVertices(), want.numVertices());
        EXPECT_EQ(static_cast<VertexId>(shards.globalIds(c).size()),
                  want.numVertices());
        for (SnapshotId t = 0; t < shard.numSnapshots(); ++t) {
            SCOPED_TRACE(testing::Message() << "snapshot " << t);
            EXPECT_EQ(shard.snapshot(t).rowPtr(),
                      want.snapshot(t).rowPtr());
            EXPECT_EQ(shard.snapshot(t).adjacency(),
                      want.snapshot(t).adjacency());
            if (t == 0)
                continue;
            EXPECT_EQ(shard.delta(t).addedEdges(),
                      want.delta(t).addedEdges());
            EXPECT_EQ(shard.delta(t).removedEdges(),
                      want.delta(t).removedEdges());
            EXPECT_EQ(shard.delta(t).affectedVertices(),
                      want.delta(t).affectedVertices());
        }
        EXPECT_EQ(shard.structureHashValue(), want.structureHashValue());
    }
    EXPECT_EQ(shards.egressAdj(), ref.egressAdj);
}

/** Spec with chunk span 1 and a seeded chip per vertex, so every chip's
 * local ids interleave with the other chips' global ids. */
sim::ScaleOutSpec
scatteredSpec(VertexId vertices, int chips, std::uint64_t seed)
{
    sim::ScaleOutSpec spec;
    spec.chips = chips;
    spec.chunkSpan = 1;
    std::uint64_t x = seed;
    for (VertexId v = 0; v < vertices; ++v) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        spec.chipOfChunk.push_back(v < chips ? static_cast<int>(v)
                                   : static_cast<int>((x >> 33) %
                                        static_cast<std::uint64_t>(
                                            chips)));
    }
    return spec;
}

/** Seeded random undirected edge list over `vertices` vertices. */
std::vector<graph::Edge>
randomEdges(VertexId vertices, std::size_t count, std::uint64_t seed)
{
    std::vector<graph::Edge> edges;
    std::uint64_t x = seed;
    const auto next = [&] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<VertexId>(
            (x >> 33) % static_cast<std::uint64_t>(vertices));
    };
    for (std::size_t i = 0; i < count; ++i) {
        const VertexId u = next();
        edges.emplace_back(u, next());
    }
    return edges;
}

TEST(ScaleOut, ShardsMatchEdgeListReference)
{
    // Generator workload under the partitioner's own assignment and
    // under a scattered one.
    const auto dg = scaleoutWorkload();
    for (const int chips : {2, 3, 8}) {
        SCOPED_TRACE(testing::Message() << "chips=" << chips);
        expectSameShards(dg, planFor(dg, chips).scaleout);
        expectSameShards(dg,
                         scatteredSpec(dg.numVertices(), chips, 17));
    }

    // Snapshot 2 repeats snapshot 1 (empty delta); snapshot 3 is a
    // fresh draw (near-total churn).
    const VertexId n = 300;
    const auto s0 = randomEdges(n, 1500, 1);
    auto s1 = s0;
    s1.resize(1400);
    const auto extra = randomEdges(n, 60, 2);
    s1.insert(s1.end(), extra.begin(), extra.end());
    std::vector<graph::Csr> snaps;
    snaps.push_back(graph::Csr::fromEdges(n, s0));
    snaps.push_back(graph::Csr::fromEdges(n, s1));
    snaps.push_back(graph::Csr::fromEdges(n, s1));
    snaps.push_back(graph::Csr::fromEdges(n, randomEdges(n, 1500, 3)));
    const graph::DynamicGraph churn("churn", std::move(snaps), 16);
    ASSERT_EQ(churn.delta(2).numChanges(), 0u);
    for (const int chips : {2, 3, 8}) {
        SCOPED_TRACE(testing::Message() << "churn chips=" << chips);
        expectSameShards(churn, scatteredSpec(n, chips, 5));
    }

    // T = 1: no deltas at all.
    const graph::DynamicGraph single(
        "single", {graph::Csr::fromEdges(n, s0)}, 16);
    expectSameShards(single, scatteredSpec(n, 3, 9));

    // Chip 0 holds a single vertex and chip 2 the even vertices of a
    // path, so neither shard has an intra-chip edge; chip 1 (the odd
    // vertices) gains and loses some.
    sim::ScaleOutSpec sparse;
    sparse.chips = 3;
    sparse.chunkSpan = 1;
    for (VertexId v = 0; v < n; ++v)
        sparse.chipOfChunk.push_back(v == 0 ? 0 : v % 2 == 1 ? 1 : 2);
    std::vector<graph::Edge> path_edges;
    for (VertexId v = 1; v + 1 < n; ++v)
        path_edges.emplace_back(v, v + 1);
    for (VertexId v = 1; v + 2 < 40; v += 2)
        path_edges.emplace_back(v, v + 2);
    std::vector<graph::Csr> psnaps;
    psnaps.push_back(graph::Csr::fromEdges(n, path_edges));
    path_edges.resize(path_edges.size() - 10);
    path_edges.emplace_back(0, 7);
    path_edges.emplace_back(51, 77);
    psnaps.push_back(graph::Csr::fromEdges(n, path_edges));
    const graph::DynamicGraph path("path", std::move(psnaps), 16);
    expectSameShards(path, sparse);
}

// ---------------------------------------------------------------------
// Cluster golden: totalCycles, inter-chip payload and wire bytes, and
// a hash of every trace row's rnnDone, pinned for chips 2/4/8 x
// overlap/staged x fault-free/faulted. A change to shard construction,
// the chip plans or the cluster timeline moves a row.
// ---------------------------------------------------------------------

/** FNV-1a over every trace row's rnnDone (chip-major). */
std::uint64_t
rnnDoneHash(const sim::RunResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &row : r.trace)
        h = (h ^ row.rnnDone) * 1099511628211ull;
    return h;
}

TEST(ScaleOutGolden, ClusterResultsArePinned)
{
    // chips faulted overlap totalCycles payloadBytes wireBytes rnnHash
    static const char *const kGolden = R"(
2 0 0 839512 23002112 24439744 9027354540011337851
2 0 1 832080 23002112 24439744 9027354540011337851
2 1 0 841912 23002112 24439744 3889502756459924219
2 1 1 834960 23002112 24439744 3889502756459924219
4 0 0 626001 34516992 36674304 11468013679287235359
4 0 1 606262 34516992 36674304 11468013679287235359
4 1 0 626547 34516992 36674304 9134135242287048668
4 1 1 606902 34516992 36674304 9134135242287048668
8 0 0 403615 39877632 42369984 17823763521414354373
8 0 1 379607 39877632 42369984 17823763521414354373
8 1 0 403694 39877632 42369984 15184476648286652330
8 1 1 379902 39877632 42369984 15184476648286652330
)";
    const auto dg = scaleoutWorkload();
    std::ostringstream actual;
    actual << '\n';
    for (const int chips : {2, 4, 8}) {
        for (const bool faulted : {false, true}) {
            auto plan = planFor(dg, chips);
            if (faulted) {
                plan.faults = sim::FaultSpec::parse(
                    "tile@1:r3c*;vlink@0:r1c2;bypass-open@1:c5;"
                    "dram@2:ch*");
            }
            for (const bool overlap : {false, true}) {
                plan.options.overlap = overlap;
                const auto r = sim::executePlan(dg, plan);
                actual << chips << ' ' << faulted << ' ' << overlap
                       << ' ' << r.totalCycles << ' '
                       << static_cast<std::uint64_t>(
                              r.stats.get("interchip.payload_bytes"))
                       << ' '
                       << static_cast<std::uint64_t>(
                              r.stats.get("interchip.wire_bytes"))
                       << ' ' << rnnDoneHash(r) << '\n';
            }
        }
    }
    EXPECT_EQ(actual.str(), kGolden);
}


// ---------------------------------------------------------------------
// Chip-phase memo: a warm run through a shared PlanCache equals a cold
// nullptr-cache run field by field, a link sweep runs the chips once,
// and every input of the chip phase is part of its key.
// ---------------------------------------------------------------------

void
expectSameStats(const StatSet &a, const StatSet &b)
{
    ASSERT_EQ(a.names(), b.names());
    for (const auto &name : a.names())
        EXPECT_EQ(a.get(name), b.get(name)) << name;
}

/** expectSameResult plus every stat, every trace row field, the
 * resilience totals and the cluster task-graph stats. */
void
expectSameRun(const sim::RunResult &a, const sim::RunResult &b)
{
    expectSameResult(a, b);
    EXPECT_EQ(a.acceleratorName, b.acceleratorName);
    EXPECT_EQ(a.workloadName, b.workloadName);
    expectSameStats(a.stats, b.stats);
    for (std::size_t t = 0; t < a.trace.size(); ++t) {
        const auto &x = a.trace[t];
        const auto &y = b.trace[t];
        EXPECT_EQ(x.snapshot, y.snapshot) << "row " << t;
        EXPECT_EQ(x.column, y.column) << "row " << t;
        EXPECT_EQ(x.dramDone, y.dramDone) << "row " << t;
        EXPECT_EQ(x.gnnComputeCycles, y.gnnComputeCycles) << "row " << t;
        EXPECT_EQ(x.rnnComputeCycles, y.rnnComputeCycles) << "row " << t;
        EXPECT_EQ(x.spatialCommCycles, y.spatialCommCycles)
            << "row " << t;
        EXPECT_EQ(x.temporalCommCycles, y.temporalCommCycles)
            << "row " << t;
        EXPECT_EQ(x.gnnDone, y.gnnDone) << "row " << t;
    }
    EXPECT_EQ(a.resilience.enabled, b.resilience.enabled);
    expectSameStats(a.resilience.toStats(), b.resilience.toStats());
    EXPECT_EQ(a.resilience.events.size(), b.resilience.events.size());
    const auto &ta = a.taskGraph;
    const auto &tb = b.taskGraph;
    EXPECT_EQ(ta.enabled, tb.enabled);
    EXPECT_EQ(ta.numTasks, tb.numTasks);
    EXPECT_EQ(ta.numEdges, tb.numEdges);
    EXPECT_EQ(ta.makespan, tb.makespan);
    ASSERT_EQ(ta.lanes.size(), tb.lanes.size());
    for (std::size_t i = 0; i < ta.lanes.size(); ++i) {
        EXPECT_EQ(ta.lanes[i].name, tb.lanes[i].name);
        EXPECT_EQ(ta.lanes[i].tasks, tb.lanes[i].tasks);
        EXPECT_EQ(ta.lanes[i].busyCycles, tb.lanes[i].busyCycles);
    }
    ASSERT_EQ(ta.tasks.size(), tb.tasks.size());
    for (std::size_t i = 0; i < ta.tasks.size(); ++i) {
        EXPECT_EQ(ta.tasks[i].id, tb.tasks[i].id);
        EXPECT_EQ(ta.tasks[i].kind, tb.tasks[i].kind);
        EXPECT_EQ(ta.tasks[i].lane, tb.tasks[i].lane);
        EXPECT_EQ(ta.tasks[i].start, tb.tasks[i].start);
        EXPECT_EQ(ta.tasks[i].finish, tb.tasks[i].finish);
        EXPECT_EQ(ta.tasks[i].critical, tb.tasks[i].critical);
    }
}

/** The fault schedule of ScaleOutGolden.ClusterResultsArePinned. */
const char *const kClusterFaults =
    "tile@1:r3c*;vlink@0:r1c2;bypass-open@1:c5;dram@2:ch*";

TEST(ScaleOutMemo, LinkSweepReusesChipPhase)
{
    const auto dg = scaleoutWorkload();
    std::vector<noc::InterChipLinkConfig> links;
    for (const double gbps : {25.0, 100.0, 400.0}) {
        noc::InterChipLinkConfig link;
        link.bandwidthGbps = gbps;
        links.push_back(link);
    }
    for (const double ns : {50.0, 2000.0}) {
        noc::InterChipLinkConfig link;
        link.latencyNs = ns;
        links.push_back(link);
    }
    for (const bool faulted : {false, true}) {
        SCOPED_TRACE(testing::Message() << "faulted=" << faulted);
        sim::PlanCache cache;
        auto plan = planFor(dg, 4, &cache);
        if (faulted)
            plan.faults = sim::FaultSpec::parse(kClusterFaults);
        std::vector<Cycle> makespans;
        for (const auto &link : links) {
            plan.scaleout.link = link;
            const auto warm = sim::executePlan(dg, plan, &cache);
            expectSameRun(warm, sim::executePlan(dg, plan));
            makespans.push_back(warm.totalCycles);
        }
        // The link really moves the cluster timeline.
        EXPECT_NE(makespans.front(), makespans[2]);
        EXPECT_EQ(cache.chipPhases().misses(), 1u);
        EXPECT_EQ(cache.chipPhases().hits(), links.size() - 1);
        EXPECT_EQ(cache.chipPhases().size(), 1u);
    }
}

TEST(ScaleOutMemo, ChipPhaseKeyCoversEveryInput)
{
    const auto dg = scaleoutWorkload();
    sim::PlanCache cache;
    const auto base = planFor(dg, 4, &cache);
    sim::executePlan(dg, base, &cache);
    ASSERT_EQ(cache.chipPhases().misses(), 1u);

    struct Flip
    {
        const char *name;
        std::function<void(sim::ExecutionPlan &)> apply;
    };
    const std::vector<Flip> flips = {
        {"chips",
         [&](sim::ExecutionPlan &p) {
             sim::applyScaleOut(p, dg, 3, noc::InterChipLinkConfig{});
         }},
        {"chipOfChunk",
         [](sim::ExecutionPlan &p) {
             int &chip = p.scaleout.chipOfChunk.front();
             chip = (chip + 1) % p.scaleout.chips;
         }},
        {"overlap",
         [](sim::ExecutionPlan &p) {
             p.options.overlap = !p.options.overlap;
         }},
        {"faults",
         [](sim::ExecutionPlan &p) {
             p.faults = sim::FaultSpec::parse(kClusterFaults);
         }},
        {"mapping owner",
         [](sim::ExecutionPlan &p) {
             auto &part = p.mapping.spatialOnly
                 ? p.mapping.tilePartition : p.mapping.rowPartition;
             ASSERT_GT(part.numParts(), 1);
             part.assign(0, (part.owner(0) + 1) % part.numParts());
         }},
        {"acceleratorName",
         [](sim::ExecutionPlan &p) { p.acceleratorName += "-renamed"; }},
        {"hw",
         [](sim::ExecutionPlan &p) {
             p.hw.perSnapshotConfigCycles += 100;
         }},
        {"modelConfig",
         [](sim::ExecutionPlan &p) { p.modelConfig.lstmHidden *= 2; }},
        {"metrics plane", [](sim::ExecutionPlan &) {}},
    };
    for (const Flip &flip : flips) {
        SCOPED_TRACE(flip.name);
        auto plan = base;
        flip.apply(plan);
        const bool metrics = std::string(flip.name) == "metrics plane";
        if (metrics)
            Tracer::global().enable(false, true);
        const auto misses = cache.chipPhases().misses();
        const auto hits = cache.chipPhases().hits();
        const auto warm = sim::executePlan(dg, plan, &cache);
        EXPECT_EQ(cache.chipPhases().misses(), misses + 1);
        EXPECT_EQ(cache.chipPhases().hits(), hits);
        expectSameRun(warm, sim::executePlan(dg, plan));
        if (metrics)
            Tracer::global().reset();
    }
    // The unflipped plan is still a hit.
    const auto hits = cache.chipPhases().hits();
    sim::executePlan(dg, base, &cache);
    EXPECT_EQ(cache.chipPhases().hits(), hits + 1);
}

TEST(ScaleOutMemo, ThrowingSpecPublishesNothing)
{
    const auto dg = scaleoutWorkload();
    sim::PlanCache cache;
    auto plan = planFor(dg, 4, &cache);
    plan.scaleout.chipOfChunk.front() = plan.scaleout.chips;
    EXPECT_THROW(sim::executePlan(dg, plan, &cache), InputError);
    EXPECT_THROW(sim::executePlan(dg, plan, &cache), InputError);
    EXPECT_EQ(cache.chipPhases().size(), 0u);
    EXPECT_EQ(cache.chipPhases().hits(), 0u);
}

} // namespace
} // namespace ditile
