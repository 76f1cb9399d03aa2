/**
 * @file
 * Tests for the structured tracing and metrics subsystem: disabled
 * overhead contract, Chrome trace_event schema, rollups, round-trip
 * parsing, the metrics registry, and the golden-file layout lock.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "workload/digest.hh"

namespace ditile {
namespace {

/** RAII guard: always leave the process-wide tracer disabled. */
struct TracerGuard
{
    TracerGuard() { Tracer::global().reset(); }
    ~TracerGuard() { Tracer::global().reset(); }
};

graph::DynamicGraph
tinyWorkload()
{
    graph::EvolutionConfig config;
    config.name = "trace-tiny";
    config.numVertices = 80;
    config.numEdges = 320;
    config.numSnapshots = 2;
    config.dissimilarity = 0.10;
    config.featureDim = 16;
    config.seed = 7;
    return graph::generateDynamicGraph(config);
}

/** Run the DiTile accelerator with the tracer on and export JSON. */
std::string
captureTinyTrace()
{
    workload::setDigestEnabled(true);
    workload::DigestCache::global().clear();
    Tracer &tracer = Tracer::global();
    tracer.reset();
    tracer.enable(true, true);
    Tracer::setTrackBase(0);
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    accel.run(dg, mconfig);
    std::string json = tracer.toChromeJson();
    tracer.reset();
    return json;
}

TEST(Tracer, DisabledByDefaultAndRecordIsNoOp)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_FALSE(tracer.traceEnabled());
    EXPECT_FALSE(tracer.metricsEnabled());
    TraceEvent ev;
    ev.cat = "engine";
    ev.name = "ignored";
    tracer.record(std::move(ev));
    tracer.addMetric("ignored.path", 7);
    EXPECT_TRUE(tracer.metrics().empty());
    EXPECT_TRUE(tracer.rollup().empty());
}

TEST(Tracer, DisabledLeavesRunStatsUntouched)
{
    TracerGuard guard;
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto r = accel.run(dg, mconfig);
    // The extended observability stats must not leak into default
    // output: with the tracer off every output byte stays identical.
    for (const char *name :
         {"noc.spatial_bytes", "noc.temporal_bytes", "noc.reuse_bytes",
          "noc.messages", "dram.requests", "dram.row_hits",
          "dram.row_misses", "dram.row_conflicts", "dram.read_bytes",
          "dram.write_bytes", "engine.digest_full_fastpath",
          "engine.digest_rnn_fastpath", "engine.scratch_snapshots",
          "relink.engaged_snapshots"}) {
        EXPECT_FALSE(r.stats.has(name)) << name;
    }
}

TEST(Tracer, MetricsOnlyModeAddsExtendedStatsButNoEvents)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(false, true);
    Tracer::setTrackBase(0);
    const auto dg = tinyWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    const auto r = accel.run(dg, mconfig);
    EXPECT_TRUE(r.stats.has("noc.spatial_bytes"));
    EXPECT_TRUE(r.stats.has("dram.requests"));
    EXPECT_TRUE(r.stats.has("engine.scratch_snapshots"));
    EXPECT_TRUE(r.stats.has("relink.engaged_snapshots"));
    EXPECT_TRUE(tracer.rollup().empty());
    const auto metrics = tracer.metrics();
    EXPECT_FALSE(metrics.empty());
    bool saw_runs = false;
    for (const auto &[name, value] : metrics) {
        if (name == "engine.runs") {
            saw_runs = true;
            EXPECT_EQ(value, 1);
        }
    }
    EXPECT_TRUE(saw_runs);
}

TEST(Tracer, MetricsRegistryAccumulatesAndSorts)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(false, true);
    tracer.addMetric("b.second", 2);
    tracer.addMetric("a.first", 1);
    tracer.addMetric("b.second", 3);
    const auto metrics = tracer.metrics();
    ASSERT_EQ(metrics.size(), 2u);
    EXPECT_EQ(metrics[0].first, "a.first");
    EXPECT_EQ(metrics[0].second, 1);
    EXPECT_EQ(metrics[1].first, "b.second");
    EXPECT_EQ(metrics[1].second, 5);
}

TEST(Tracer, StepCursorAdvancesPerTrack)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(true, false);
    EXPECT_EQ(tracer.nextStep(10), 0u);
    EXPECT_EQ(tracer.nextStep(10), 1u);
    EXPECT_EQ(tracer.nextStep(11), 0u);
    tracer.instant("cache", "probe", 10);
    const auto rows = tracer.rollup();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].cat, "cache");
    EXPECT_EQ(rows[0].name, "probe");
    EXPECT_EQ(rows[0].firstTs, 2u);
}

TEST(Tracer, TrackBaseScopeRestoresThePreviousBase)
{
    // A pool thread waiting in a nested parallelFor may run another
    // task's body; each scope must hand its thread's base back, so
    // every outer task still sees its own base afterwards.
    ThreadPool::setGlobalThreads(4);
    std::vector<std::uint64_t> after(8, 0);
    parallelFor(after.size(), [&](std::size_t i) {
        const Tracer::TrackBaseScope outer(1000 + i);
        parallelFor(16, [&](std::size_t k) {
            const Tracer::TrackBaseScope inner(5000 + 16 * i + k);
        });
        after[i] = Tracer::trackBase();
    });
    ThreadPool::setGlobalThreads(1);
    for (std::size_t i = 0; i < after.size(); ++i)
        EXPECT_EQ(after[i], 1000 + i) << "outer task " << i;
    EXPECT_EQ(Tracer::trackBase(), 0u);

    // An exception leaving the scope restores the base too.
    Tracer::setTrackBase(7);
    EXPECT_THROW(
        {
            const Tracer::TrackBaseScope scope(99);
            EXPECT_EQ(Tracer::trackBase(), 99u);
            throw InputError("boom");
        },
        InputError);
    EXPECT_EQ(Tracer::trackBase(), 7u);
    Tracer::setTrackBase(0);
}

TEST(ChromeTrace, SchemaIsValidAndCoversAllStages)
{
    TracerGuard guard;
    const std::string json = captureTinyTrace();
    const JsonValue doc = JsonValue::parse(json);
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ns");
    EXPECT_EQ(doc.at("otherData").at("clock").asString(),
              "virtual-cycles");
    const auto &events = doc.at("traceEvents").items();
    ASSERT_FALSE(events.empty());
    std::set<std::string> cats;
    for (const auto &e : events) {
        const std::string ph = e.at("ph").asString();
        EXPECT_NE(e.find("pid"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
        if (ph == "M")
            continue;
        EXPECT_NE(e.find("ts"), nullptr);
        EXPECT_NE(e.find("name"), nullptr);
        cats.insert(e.at("cat").asString());
        if (ph == "X") {
            EXPECT_NE(e.find("dur"), nullptr);
        }
        if (ph == "i") {
            EXPECT_EQ(e.at("s").asString(), "t");
        }
    }
    // Every instrumented stage shows up even on a tiny run.
    for (const char *cat : {"plan", "engine", "noc", "dram", "cache"})
        EXPECT_TRUE(cats.count(cat)) << "missing category " << cat;
}

TEST(ChromeTrace, ParseRoundTripAndRollup)
{
    TracerGuard guard;
    const std::string json = captureTinyTrace();
    const auto events = Tracer::parseChromeJson(json);
    ASSERT_FALSE(events.empty());
    const auto rows = Tracer::rollupEvents(events);
    ASSERT_FALSE(rows.empty());
    bool saw_plan = false;
    for (const auto &row : rows) {
        EXPECT_GT(row.count, 0u);
        EXPECT_GE(row.lastEnd, row.firstTs);
        if (row.cat == "plan" && row.name == "alg1-tiling") {
            saw_plan = true;
            EXPECT_EQ(row.count, 1u);
            EXPECT_EQ(row.totalDur, 1u);
        }
    }
    EXPECT_TRUE(saw_plan);
}

TEST(ChromeTrace, IdenticalAcrossCaptures)
{
    TracerGuard guard;
    const std::string a = captureTinyTrace();
    const std::string b = captureTinyTrace();
    EXPECT_EQ(a, b);
}

TEST(ChromeTrace, MatchesGoldenFile)
{
    TracerGuard guard;
    const std::string golden_path =
        std::string(DITILE_GOLDEN_DIR) + "/trace_small.json";
    const std::string json = captureTinyTrace() + "\n";
    if (std::getenv("DITILE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << json;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (run with DITILE_REGEN_GOLDEN=1 to create it)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    // Byte-for-byte: the exported trace layout is part of the tool
    // contract (CI diffs traces across thread widths).
    EXPECT_EQ(json, buffer.str());
}

TEST(ChromeTrace, WriteChromeJsonThrowsOnBadPath)
{
    TracerGuard guard;
    Tracer &tracer = Tracer::global();
    tracer.enable(true, false);
    EXPECT_THROW(
        tracer.writeChromeJson("/nonexistent-dir-xyz/trace.json"),
        InputError);
}

} // namespace
} // namespace ditile
