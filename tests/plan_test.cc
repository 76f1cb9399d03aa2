/**
 * @file
 * Tests for the plan/execute split: ExecutionPlan JSON round-trips,
 * bit-identical equivalence of plan()+execute() with the legacy
 * one-shot run() for every accelerator and every Fig-11b ablation
 * variant at multiple thread counts, and PlanCache semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"

namespace ditile {
namespace {

graph::DynamicGraph
planWorkload()
{
    graph::EvolutionConfig config;
    config.numVertices = 800;
    config.numEdges = 6400;
    config.numSnapshots = 6;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 7;
    return graph::generateDynamicGraph(config);
}

std::vector<std::unique_ptr<sim::Accelerator>>
fullFleet()
{
    std::vector<std::unique_ptr<sim::Accelerator>> fleet;
    fleet.push_back(sim::makeReady());
    fleet.push_back(sim::makeDgnnBooster());
    fleet.push_back(sim::makeRace());
    fleet.push_back(sim::makeMega());
    fleet.push_back(std::make_unique<core::DiTileAccelerator>());
    return fleet;
}

/** Field-by-field equality of two runs, with readable failures. */
void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.acceleratorName, b.acceleratorName);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.onChipCommCycles, b.onChipCommCycles);
    EXPECT_EQ(a.offChipCycles, b.offChipCycles);
    EXPECT_EQ(a.configCycles, b.configCycles);
    EXPECT_EQ(a.ops.totalMacs(), b.ops.totalMacs());
    EXPECT_EQ(a.ops.totalArithmetic(), b.ops.totalArithmetic());
    EXPECT_EQ(a.dramTraffic.total(), b.dramTraffic.total());
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.nocBytesSpatial, b.nocBytesSpatial);
    EXPECT_EQ(a.nocBytesTemporal, b.nocBytesTemporal);
    EXPECT_EQ(a.nocBytesReuse, b.nocBytesReuse);
    EXPECT_EQ(a.peUtilization, b.peUtilization);
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
    EXPECT_EQ(a.energyEvents.dramBytes, b.energyEvents.dramBytes);
    EXPECT_EQ(a.energyEvents.dramActivates,
              b.energyEvents.dramActivates);
    EXPECT_EQ(a.energyEvents.reconfigEvents,
              b.energyEvents.reconfigEvents);
    EXPECT_EQ(a.energyEvents.localBufferBytes,
              b.energyEvents.localBufferBytes);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const auto &ta = a.trace[i];
        const auto &tb = b.trace[i];
        EXPECT_EQ(ta.dramDone, tb.dramDone) << "snapshot " << i;
        EXPECT_EQ(ta.gnnComputeCycles, tb.gnnComputeCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.rnnComputeCycles, tb.rnnComputeCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.spatialCommCycles, tb.spatialCommCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.temporalCommCycles, tb.temporalCommCycles)
            << "snapshot " << i;
        EXPECT_EQ(ta.gnnDone, tb.gnnDone) << "snapshot " << i;
        EXPECT_EQ(ta.rnnDone, tb.rnnDone) << "snapshot " << i;
    }
}

// ---------------------------------------------------------------------
// JSON round-trips.
// ---------------------------------------------------------------------

TEST(PlanJson, RoundTripIsByteStable)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, mconfig);
    const std::string json = plan.toJson();
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    // Canonical form: parse + re-emit must reproduce every byte, and
    // the content hash (defined over that form) must agree.
    EXPECT_EQ(parsed.toJson(), json);
    EXPECT_EQ(parsed.contentHash(), plan.contentHash());
    EXPECT_EQ(parsed.acceleratorName, plan.acceleratorName);
    EXPECT_EQ(parsed.numSnapshots(), plan.numSnapshots());
    EXPECT_EQ(parsed.mapping.spatialOnly, plan.mapping.spatialOnly);
    EXPECT_EQ(parsed.groups.size(), plan.groups.size());
}

TEST(PlanJson, RoundTripsForEveryAccelerator)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    for (auto &accel : fullFleet()) {
        SCOPED_TRACE(accel->name());
        const auto plan = accel->plan(dg, mconfig);
        const std::string json = plan.toJson();
        EXPECT_EQ(sim::ExecutionPlan::fromJson(json).toJson(), json);
    }
}

TEST(PlanJson, DistinctVariantsHashDifferently)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator full;
    core::DiTileAccelerator nora(
        sim::AcceleratorConfig::defaults(),
        core::DiTileOptions::fromVariant("NoRa"));
    EXPECT_NE(full.plan(dg, mconfig).contentHash(),
              nora.plan(dg, mconfig).contentHash());
}

TEST(PlanJson, FaultedPlanRoundTripsAndHashesDifferently)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, mconfig);
    const auto clean_hash = plan.contentHash();
    plan.faults = sim::FaultSpec::parse(
        "seed=9;dram-retry-fraction=0.25;"
        "tile@1:r3c2;vlink@0:r1c2;bypass-open@1:c5;dram@2:ch*");
    // The schedule is part of the canonical form: the hash must move.
    EXPECT_NE(plan.contentHash(), clean_hash);
    const std::string json = plan.toJson();
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_EQ(parsed.toJson(), json);
    EXPECT_EQ(parsed.contentHash(), plan.contentHash());
    EXPECT_TRUE(parsed.faults == plan.faults);
    // And the faulted plan replays identically from its JSON.
    expectIdentical(sim::executePlan(dg, plan),
                    sim::executePlan(dg, parsed));
}

TEST(PlanJson, DocumentsWithoutFaultsSectionLoadFaultFree)
{
    // Plans dumped before fault injection existed carry no "faults"
    // member; they must load as fault-free rather than throw.
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, mconfig);
    std::string json = plan.toJson();
    const std::string defaults =
        "\"faults\":{\"seed\":1,\"dram_retry_fraction\":0.5,"
        "\"noc_backoff\":64,\"noc_retries\":3,\"events\":[]},";
    const auto pos = json.find(defaults);
    ASSERT_NE(pos, std::string::npos);
    json.erase(pos, defaults.size());
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_TRUE(parsed.faults.empty());
    expectIdentical(sim::executePlan(dg, plan),
                    sim::executePlan(dg, parsed));
}

TEST(PlanJson, OverlapOptionRoundTripsAndExecutesIdentically)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    const auto parsed = sim::ExecutionPlan::fromJson(plan.toJson());
    EXPECT_TRUE(parsed.options.overlap);
    // A round-tripped overlap plan replays to the same schedule.
    expectIdentical(sim::executePlan(dg, plan),
                    sim::executePlan(dg, parsed));
}

TEST(PlanJson, MalformedDocumentsThrow)
{
    EXPECT_THROW(sim::ExecutionPlan::fromJson(""),
                 std::runtime_error);
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{"),
                 std::runtime_error);
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{}"),
                 std::runtime_error);
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{\"plan_format\":99}"),
                 std::runtime_error);
    // Valid format marker but nothing else: missing keys must throw,
    // not default-initialize.
    EXPECT_THROW(sim::ExecutionPlan::fromJson("{\"plan_format\":1}"),
                 std::runtime_error);
}

/**
 * Replace the first value after `marker` in `json` (the text up to
 * the next ',' or ']') with `value`.
 */
std::string
replaceAfter(std::string json, const std::string &marker,
             const std::string &value)
{
    const auto pos = json.find(marker);
    EXPECT_NE(pos, std::string::npos) << marker;
    if (pos == std::string::npos)
        return json;
    const auto begin = pos + marker.size();
    const auto end = json.find_first_of(",]", begin);
    return json.replace(begin, end - begin, value);
}

TEST(PlanJson, OutOfRangeMappingIndicesThrowInputError)
{
    // Hand-edited plans must fail to load with a typed error; before
    // validation they loaded and then aborted inside the engine.
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator ditile;
    const auto plan = ditile.plan(dg, mconfig);
    const std::string json = plan.toJson();
    ASSERT_FALSE(plan.mapping.spatialOnly);
    const int parts = plan.mapping.rowPartition.numParts();
    const std::string cols = std::to_string(plan.hw.tileCols);
    const std::string row_owners =
        "\"row_partition\":{\"parts\":" + std::to_string(parts) +
        ",\"owners\":[";
    const std::string columns = "\"snapshot_column\":[";

    for (const std::string &bad :
         {replaceAfter(json, row_owners, std::to_string(parts)),
          replaceAfter(json, row_owners, "-2"),
          replaceAfter(json, "\"row_partition\":{\"parts\":",
                       std::to_string(plan.hw.tileRows + 1)),
          replaceAfter(json, "\"row_partition\":{\"parts\":", "-1"),
          replaceAfter(json, columns, cols),
          replaceAfter(json, columns, "-1")}) {
        EXPECT_NE(bad, json);
        EXPECT_THROW(sim::ExecutionPlan::fromJson(bad), InputError);
    }
    // Unassigned owners and the last valid indices still load.
    EXPECT_NO_THROW(sim::ExecutionPlan::fromJson(
        replaceAfter(json, row_owners, std::to_string(kInvalidTile))));
    EXPECT_NO_THROW(sim::ExecutionPlan::fromJson(
        replaceAfter(json, row_owners, std::to_string(parts - 1))));
    EXPECT_NO_THROW(sim::ExecutionPlan::fromJson(replaceAfter(
        json, columns, std::to_string(plan.hw.tileCols - 1))));

    // The spatial-only mapping (MEGA) indexes tile_partition instead.
    const auto mega = sim::makeMega()->plan(dg, mconfig);
    ASSERT_TRUE(mega.mapping.spatialOnly);
    const int tiles = mega.mapping.tilePartition.numParts();
    const std::string mega_json = mega.toJson();
    const std::string tile_owners =
        "\"tile_partition\":{\"parts\":" + std::to_string(tiles) +
        ",\"owners\":[";
    EXPECT_NO_THROW(sim::ExecutionPlan::fromJson(mega_json));
    EXPECT_THROW(sim::ExecutionPlan::fromJson(replaceAfter(
                     mega_json, tile_owners, std::to_string(tiles))),
                 InputError);
    EXPECT_THROW(
        sim::ExecutionPlan::fromJson(replaceAfter(
            mega_json, "\"tile_partition\":{\"parts\":",
            std::to_string(mega.hw.tileRows * mega.hw.tileCols + 1))),
        InputError);
}

TEST(PlanJson, ReplayAgainstMismatchedWorkloadThrowsInputError)
{
    // --plan-in replays a document against whatever workload the
    // flags build. A plan made for another snapshot count or scale, or
    // with a snapshot_column of the wrong length, must fail with a
    // typed error instead of aborting inside the engine.
    graph::DatasetOptions options;
    options.scale = 0.05;
    options.numSnapshots = 4;
    const auto dg = graph::makeDataset("WD", options);
    options.numSnapshots = 8;
    const auto longer = graph::makeDataset("WD", options);
    options.numSnapshots = 4;
    options.scale = 0.1;
    const auto larger = graph::makeDataset("WD", options);
    ASSERT_NE(larger.numVertices(), dg.numVertices());

    auto replay = [](const std::string &json,
                     const graph::DynamicGraph &workload) {
        const auto plan = sim::ExecutionPlan::fromJson(json);
        try {
            sim::executePlan(workload, plan);
        } catch (const InputError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    const model::DgnnConfig mconfig;
    for (const auto &accel : fullFleet()) {
        const auto plan = accel->plan(dg, mconfig);
        SCOPED_TRACE(plan.acceleratorName);
        const std::string json = plan.toJson();
        EXPECT_EQ(replay(json, dg), "");
        for (const auto *workload : {&longer, &larger}) {
            EXPECT_NE(replay(json, *workload).find(
                          "does not match workload"),
                      std::string::npos);
        }
        if (plan.mapping.spatialOnly)
            continue;
        const std::string columns = "\"snapshot_column\":[";
        const auto at = json.find(columns) + columns.size();
        std::string shorter = json;
        shorter.erase(at, json.find(',', at) + 1 - at);
        std::string extra = json;
        extra.insert(at, "0,");
        EXPECT_NE(replay(shorter, dg).find("3 snapshot columns"),
                  std::string::npos);
        EXPECT_NE(replay(extra, dg).find("5 snapshot columns"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// plan()+execute() == run(), for everyone, at any thread count.
// ---------------------------------------------------------------------

class PlanExecuteEquivalence : public testing::TestWithParam<int>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_P(PlanExecuteEquivalence, AllAccelerators)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    ThreadPool::setGlobalThreads(GetParam());
    for (auto &accel : fullFleet()) {
        SCOPED_TRACE(accel->name());
        const auto legacy = accel->run(dg, mconfig);
        const auto plan = accel->plan(dg, mconfig);
        expectIdentical(legacy, accel->execute(dg, plan));
        // A plan that went through serialization must replay the same
        // result bit for bit (doubles included).
        expectIdentical(legacy, sim::executePlan(
            dg, sim::ExecutionPlan::fromJson(plan.toJson())));
    }
}

TEST_P(PlanExecuteEquivalence, AblationVariants)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    ThreadPool::setGlobalThreads(GetParam());
    for (const char *variant : {"NoPs", "NoWos", "NoRa", "OnlyPs",
                                "OnlyWos", "OnlyRa"}) {
        SCOPED_TRACE(variant);
        core::DiTileAccelerator accel(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant(variant));
        const auto legacy = accel.run(dg, mconfig);
        const auto plan = accel.plan(dg, mconfig);
        expectIdentical(legacy, accel.execute(dg, plan));
        expectIdentical(legacy, sim::executePlan(
            dg, sim::ExecutionPlan::fromJson(plan.toJson())));
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, PlanExecuteEquivalence,
                         testing::Values(1, 4));

// ---------------------------------------------------------------------
// PlanCache.
// ---------------------------------------------------------------------

TEST(PlanCacheTest, SecondObtainHits)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    const auto first =
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
    const auto second =
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, AcceleratorsSharingAlgoShareSnapshotPlans)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    // ReaDy and DGNN-Booster both run Re-Alg: one planning pass.
    auto ready = sim::makeReady();
    auto booster = sim::makeDgnnBooster();
    const auto plan_a = ready->plan(dg, mconfig, &cache);
    const auto plan_b = booster->plan(dg, mconfig, &cache);
    EXPECT_EQ(plan_a.snapshots.get(), plan_b.snapshots.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // RACE uses a different algorithm: its own entry.
    auto race = sim::makeRace();
    race->plan(dg, mconfig, &cache);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCacheTest, AblationVariantsShareSnapshotPlans)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    core::DiTileAccelerator full;
    const auto base = full.plan(dg, mconfig, &cache);
    for (const char *variant : {"NoPs", "NoWos", "NoRa", "OnlyPs",
                                "OnlyWos", "OnlyRa"}) {
        core::DiTileAccelerator accel(
            sim::AcceleratorConfig::defaults(),
            core::DiTileOptions::fromVariant(variant));
        const auto plan = accel.plan(dg, mconfig, &cache);
        EXPECT_EQ(plan.snapshots.get(), base.snapshots.get())
            << variant;
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 6u);
}

TEST(PlanCacheTest, CachedPlanExecutesIdentically)
{
    const auto dg = planWorkload();
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    core::DiTileAccelerator accel;
    const auto uncached = accel.run(dg, mconfig);
    accel.plan(dg, mconfig, &cache); // Warm the cache.
    const auto cached =
        accel.execute(dg, accel.plan(dg, mconfig, &cache));
    EXPECT_GE(cache.hits(), 1u);
    expectIdentical(uncached, cached);
}

TEST(PlanCacheTest, KeyedByGraphConfigAndAlgo)
{
    const auto dg = planWorkload();
    model::DgnnConfig mconfig;
    const auto base_key = sim::PlanCache::planKey(
        dg, mconfig, model::AlgoKind::DiTileAlg);
    EXPECT_NE(base_key, sim::PlanCache::planKey(
        dg, mconfig, model::AlgoKind::ReAlg));
    model::DgnnConfig gru = mconfig;
    gru.rnn = model::RnnKind::Gru;
    EXPECT_NE(base_key, sim::PlanCache::planKey(
        dg, gru, model::AlgoKind::DiTileAlg));
    graph::EvolutionConfig other;
    other.numVertices = 800;
    other.numEdges = 6400;
    other.numSnapshots = 6;
    other.dissimilarity = 0.12;
    other.featureDim = 64;
    other.seed = 8; // Different evolution, same shape.
    EXPECT_NE(base_key, sim::PlanCache::planKey(
        graph::generateDynamicGraph(other), mconfig,
        model::AlgoKind::DiTileAlg));
    // Identical regeneration hashes identically (the sweep relies on
    // this to share plans across separately built workloads).
    EXPECT_EQ(base_key, sim::PlanCache::planKey(
        planWorkload(), mconfig, model::AlgoKind::DiTileAlg));
}

namespace {

/** Small distinct-structure workload for eviction tests. */
graph::DynamicGraph
tinyWorkload(std::uint64_t seed)
{
    graph::EvolutionConfig config;
    config.numVertices = 64;
    config.numEdges = 256;
    config.numSnapshots = 2;
    config.featureDim = 8;
    config.seed = seed;
    return graph::generateDynamicGraph(config);
}

} // namespace

TEST(PlanCacheTest, EvictToCapacityDropsLeastRecentlyTouched)
{
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    cache.setCapacity(2);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto dg = tinyWorkload(seed);
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
        keys.push_back(sim::PlanCache::planKey(
            dg, mconfig, model::AlgoKind::DiTileAlg));
    }
    ASSERT_EQ(cache.size(), 3u);
    // Serial recency: keys[1] oldest, then keys[0], then keys[2].
    cache.touch(keys[1]);
    cache.touch(keys[0]);
    cache.touch(keys[2]);
    const auto evicted = cache.evictToCapacity();
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], keys[1]);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.contains(keys[1]));
    EXPECT_TRUE(cache.contains(keys[0]));
    EXPECT_TRUE(cache.contains(keys[2]));
    // Re-obtaining the victim is a fresh miss.
    cache.obtain(tinyWorkload(2), mconfig, model::AlgoKind::DiTileAlg);
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(PlanCacheTest, UntouchedEntriesEvictInAscendingKeyOrder)
{
    const model::DgnnConfig mconfig;
    sim::PlanCache cache;
    cache.setCapacity(1);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto dg = tinyWorkload(seed);
        cache.obtain(dg, mconfig, model::AlgoKind::DiTileAlg);
        keys.push_back(sim::PlanCache::planKey(
            dg, mconfig, model::AlgoKind::DiTileAlg));
    }
    // No touch() calls: recency ties everywhere, so victims come out
    // in ascending key order regardless of hash-map iteration order.
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    const auto evicted = cache.evictToCapacity();
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0], sorted[0]);
    EXPECT_EQ(evicted[1], sorted[1]);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.contains(sorted[2]));
    // Unbounded again: evictToCapacity becomes a no-op.
    cache.setCapacity(0);
    EXPECT_TRUE(cache.evictToCapacity().empty());
    // clear() resets eviction accounting with everything else.
    cache.clear();
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace ditile
