/**
 * @file
 * Tests for the task-graph timeline: scheduler invariants (makespan
 * bounds, lane exclusivity, critical-path chaining), the staged
 * barrier edges against a reference copy of the former staged loops,
 * a golden of every accelerator's timeline in both modes, the
 * overlap-never-slower-than-staged guarantee on fault-free runs,
 * cross-thread bit-identity of overlap schedules (including degraded
 * faulted plans), and plan-JSON format-2 serialization of the graph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "graph/generator.hh"
#include "sim/baselines.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"

namespace ditile {
namespace {

graph::DynamicGraph
taskWorkload()
{
    graph::EvolutionConfig config;
    config.numVertices = 1200;
    config.numEdges = 9600;
    config.numSnapshots = 8;
    config.dissimilarity = 0.12;
    config.featureDim = 64;
    config.seed = 11;
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

sim::RunResult
runMode(sim::Accelerator &accel, const graph::DynamicGraph &dg,
        bool overlap)
{
    const model::DgnnConfig mconfig;
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = overlap;
    return sim::executePlan(dg, plan);
}

/** The scheduled task records of one run, grouped per lane name. */
std::map<std::string, std::vector<sim::TaskGraphStats::Task>>
tasksByLane(const sim::RunResult &r)
{
    std::map<std::string, std::vector<sim::TaskGraphStats::Task>> lanes;
    for (const auto &task : r.taskGraph.tasks)
        lanes[task.lane].push_back(task);
    return lanes;
}

// ---------------------------------------------------------------------
// Overlap vs staged: staged is the same DAG plus barrier edges, so the
// overlap makespan can never exceed the staged end-to-end time — per
// accelerator family and per snapshot milestone.
// ---------------------------------------------------------------------

TEST(TaskGraphOverlap, NeverSlowerThanStagedOnAnyAccelerator)
{
    const auto dg = taskWorkload();
    for (auto &accel : fullFleet()) {
        const auto staged = runMode(*accel, dg, false);
        const auto overlap = runMode(*accel, dg, true);
        SCOPED_TRACE(staged.acceleratorName);
        EXPECT_FALSE(staged.taskGraph.enabled);
        EXPECT_TRUE(overlap.taskGraph.enabled);
        EXPECT_LE(overlap.totalCycles, staged.totalCycles);
        // Everything that is not timeline-derived is mode-invariant.
        EXPECT_EQ(overlap.ops.totalArithmetic(),
                  staged.ops.totalArithmetic());
        EXPECT_EQ(overlap.dramTraffic.total(),
                  staged.dramTraffic.total());
        EXPECT_EQ(overlap.nocBytes, staged.nocBytes);
        EXPECT_EQ(overlap.configCycles, staged.configCycles);
        ASSERT_EQ(overlap.trace.size(), staged.trace.size());
        for (std::size_t t = 0; t < overlap.trace.size(); ++t) {
            EXPECT_LE(overlap.trace[t].gnnDone, staged.trace[t].gnnDone)
                << "snapshot " << t;
            EXPECT_LE(overlap.trace[t].rnnDone, staged.trace[t].rnnDone)
                << "snapshot " << t;
        }
    }
}

// ---------------------------------------------------------------------
// Engine golden: every accelerator's timeline, pinned to the values
// the staged loops and the overlap DAG produced before staged mode was
// folded onto the DAG. A change to either timeline moves a row.
// ---------------------------------------------------------------------

/** FNV-1a over every trace row's gnnDone and rnnDone. */
std::uint64_t
timelineHash(const sim::RunResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (const auto &row : r.trace) {
        mix(row.gnnDone);
        mix(row.rnnDone);
    }
    return h;
}

TEST(TaskGraphGolden, EveryAcceleratorTimelineIsPinned)
{
    // accelerator faulted overlap snapshots totalCycles timelineHash
    static const char *const kGolden = R"(
ReaDy 0 0 4 470256 11755502545338867865
ReaDy 0 1 4 469456 11755502545338867865
ReaDy 1 0 4 489874 7928751127255081919
ReaDy 1 1 4 489074 7928751127255081919
DGNN-Booster 0 0 4 462216 13303363730353630747
DGNN-Booster 0 1 4 461416 13303363730353630747
DGNN-Booster 1 0 4 472906 3759893873570136371
DGNN-Booster 1 1 4 472106 3759893873570136371
RACE 0 0 4 233700 7567398268889717099
RACE 0 1 4 232900 7567398268889717099
RACE 1 0 4 243364 7400110575523964235
RACE 1 1 4 242564 7400110575523964235
MEGA 0 0 4 141923 5803006231851096763
MEGA 0 1 4 141123 5803006231851096763
MEGA 1 0 4 150698 8828754418027351451
MEGA 1 1 4 149898 8828754418027351451
DiTile-DGNN 0 0 4 155028 16653307806051763843
DiTile-DGNN 0 1 4 154228 16653307806051763843
DiTile-DGNN 1 0 4 156922 16723515853253211365
DiTile-DGNN 1 1 4 156122 16723515853253211365
ReaDy 0 0 24 2072148 14447267946192383030
ReaDy 0 1 24 2067348 14447267946192383030
ReaDy 1 0 24 2219654 10581746132689250919
ReaDy 1 1 24 2214854 10581746132689250919
DGNN-Booster 0 0 24 2019943 1487093405328141408
DGNN-Booster 0 1 24 2015143 1487093405328141408
DGNN-Booster 1 0 24 2124910 1843024668030807582
DGNN-Booster 1 1 24 2120110 1843024668030807582
RACE 0 0 24 1062956 6979773095641696044
RACE 0 1 24 1058156 6979773095641696044
RACE 1 0 24 1136268 7957276943338516324
RACE 1 1 24 1131468 7957276943338516324
MEGA 0 0 24 761649 4329004336054065781
MEGA 0 1 24 756849 4329004336054065781
MEGA 1 0 24 770424 12084603497600960883
MEGA 1 1 24 765624 12084603497600960883
DiTile-DGNN 0 0 24 519048 3848640968382262535
DiTile-DGNN 0 1 24 514248 3848640968382262535
DiTile-DGNN 1 0 24 545204 14835384580152463575
DiTile-DGNN 1 1 24 540404 14835384580152463575
)";
    std::ostringstream actual;
    actual << '\n';
    for (const SnapshotId snapshots : {4, 24}) {
        graph::EvolutionConfig config;
        config.numVertices = 600;
        config.numEdges = 4800;
        config.numSnapshots = snapshots;
        config.dissimilarity = 0.12;
        config.featureDim = 32;
        config.seed = 11;
        const auto dg = graph::generateDynamicGraph(config);
        for (auto &accel : fullFleet()) {
            for (const bool faulted : {false, true}) {
                auto plan = accel->plan(dg, model::DgnnConfig{});
                if (faulted) {
                    plan.faults = sim::FaultSpec::parse(
                        "tile@1:r3c*;vlink@0:r1c2;bypass-open@1:c5;"
                        "dram@2:ch*");
                }
                for (const bool overlap : {false, true}) {
                    plan.options.overlap = overlap;
                    const auto r = sim::executePlan(dg, plan);
                    actual << r.acceleratorName << ' ' << faulted << ' '
                           << overlap << ' ' << snapshots << ' '
                           << r.totalCycles << ' ' << timelineHash(r)
                           << '\n';
                }
            }
        }
    }
    EXPECT_EQ(actual.str(), kGolden);
}

// ---------------------------------------------------------------------
// Staged mode is the DAG plus addStagedBarriers. The reference below is
// the hand-written staged timeline the engine ran before: one loop for
// spatial-only mapping, and a two-pass column occupancy / RNN chain
// loop for column mappings. Seeded random durations bind every edge
// kind, which real workloads never do.
// ---------------------------------------------------------------------

/** Per-snapshot durations of one synthetic run. */
struct SyntheticRun
{
    std::vector<Cycle> dramDone; ///< Cumulative, like the DRAM cursor.
    std::vector<Cycle> gnn;
    std::vector<Cycle> spatial;
    std::vector<Cycle> temporal; ///< 0 where no boundary is crossed.
    std::vector<Cycle> rnn;
    Cycle configPerSnapshot = 0;
};

struct Timeline
{
    std::vector<Cycle> gnnDone;
    std::vector<Cycle> rnnDone;
    Cycle totalCycles = 0;
};

Timeline
stagedReference(const sim::ExecutionPlan &plan, const SyntheticRun &run)
{
    const auto n = run.gnn.size();
    Timeline out;
    out.gnnDone.resize(n);
    out.rnnDone.resize(n);
    const Cycle config_cycles =
        static_cast<Cycle>(n) * run.configPerSnapshot;
    if (plan.mapping.spatialOnly) {
        Cycle prev_done = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Cycle gnn_done = std::max(
                prev_done + std::max(run.gnn[i], run.spatial[i]),
                run.dramDone[i]);
            const Cycle done = gnn_done + run.rnn[i];
            out.gnnDone[i] = gnn_done;
            out.rnnDone[i] = done;
            prev_done = done;
        }
        out.totalCycles = prev_done + config_cycles;
        return out;
    }
    // Pass 1: GNN phases with column occupancy and DRAM gating.
    std::vector<Cycle> col_free(64, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto c =
            static_cast<std::size_t>(plan.mapping.snapshotColumn[i]);
        const Cycle on_chip = std::max(run.gnn[i], run.spatial[i]);
        out.gnnDone[i] = std::max(col_free[c] + on_chip, run.dramDone[i]);
        col_free[c] = out.gnnDone[i];
    }
    // Pass 2: the RNN chain (temporal dependency across snapshots).
    Cycle barrier = 0;
    if (plan.options.globalGnnBarrier) {
        for (const Cycle d : out.gnnDone)
            barrier = std::max(barrier, d);
    }
    Cycle last_done = 0;
    Cycle rnn_prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Cycle start = std::max(
            {out.gnnDone[i], barrier, rnn_prev + run.temporal[i]});
        out.rnnDone[i] = start + run.rnn[i];
        rnn_prev = out.rnnDone[i];
        last_done = std::max(last_done, out.rnnDone[i]);
    }
    out.totalCycles = last_done + config_cycles;
    return out;
}

/** The engine's timeline path: annotate, add barriers, schedule. */
Timeline
stagedOnGraph(const sim::ExecutionPlan &plan, const SyntheticRun &run)
{
    sim::TaskGraph g = sim::buildTaskGraph(plan);
    sim::addStagedBarriers(g, plan);
    auto node = [&](int id) -> sim::TaskNode & {
        return g.nodes[static_cast<std::size_t>(id)];
    };
    for (std::size_t i = 0; i < g.bySnapshot.size(); ++i) {
        const auto &st = g.bySnapshot[i];
        node(st.dram).duration =
            run.dramDone[i] - (i > 0 ? run.dramDone[i - 1] : 0);
        node(st.gnn).duration = run.gnn[i];
        node(st.spatial).duration = run.spatial[i];
        if (st.temporal != -1)
            node(st.temporal).duration = run.temporal[i];
        node(st.rnn).duration = run.rnn[i];
        node(st.relink).duration = run.configPerSnapshot;
    }
    const auto sched = sim::scheduleTaskGraph(g);
    auto finish = [&](int id) {
        return sched.tasks[static_cast<std::size_t>(id)].finish;
    };
    Timeline out;
    for (std::size_t i = 0; i < g.bySnapshot.size(); ++i) {
        const auto &st = g.bySnapshot[i];
        out.gnnDone.push_back(std::max(
            {finish(st.gnn), finish(st.spatial), run.dramDone[i]}));
        out.rnnDone.push_back(finish(st.rnn));
    }
    out.totalCycles = sched.makespan;
    return out;
}

/**
 * Column maps: round-robin, blocks that reuse a column for three
 * snapshots in a row, and seeded random (repeats and gaps).
 */
enum class Columns { SpatialOnly, RoundRobin, Blocks, Random };

/** A T-snapshot plan with seeded random durations for it. */
std::pair<sim::ExecutionPlan, SyntheticRun>
syntheticCase(Columns columns, int num_cols, SnapshotId num_snapshots,
              Rng &rng)
{
    auto draw = [&](Cycle lo, Cycle hi) {
        return static_cast<Cycle>(rng.uniformInt(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    };
    const auto n = static_cast<std::size_t>(num_snapshots);
    sim::ExecutionPlan plan;
    plan.snapshots =
        std::make_shared<std::vector<model::SnapshotPlan>>(n);
    auto &mapping = plan.mapping;
    mapping.spatialOnly = columns == Columns::SpatialOnly;
    for (std::size_t i = 0; i < n && !mapping.spatialOnly; ++i) {
        const auto round = columns == Columns::Blocks ? i / 3 : i;
        mapping.snapshotColumn.push_back(
            columns == Columns::Random
                ? static_cast<int>(draw(0, Cycle(num_cols - 1)))
                : static_cast<int>(round % Cycle(num_cols)));
    }
    SyntheticRun run;
    Cycle dram = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Alternate GNN- and spatial-dominated snapshots, so a
        // column's compute and NoC lanes drift apart unless the
        // occupancy barrier re-aligns them.
        const bool gnn_heavy = i % 2 == 0;
        run.gnn.push_back(gnn_heavy ? draw(400, 900) : draw(0, 200));
        run.spatial.push_back(gnn_heavy ? draw(0, 200) : draw(400, 900));
        // DRAM increments that now and then outrun the on-chip work
        // and so gate it.
        dram += draw(0, 3) == 0 ? draw(800, 2500) : draw(0, 150);
        run.dramDone.push_back(dram);
        const bool boundary = !mapping.spatialOnly && i > 0 &&
            mapping.snapshotColumn[i] != mapping.snapshotColumn[i - 1];
        run.temporal.push_back(boundary ? draw(0, 300) : 0);
        run.rnn.push_back(draw(0, 400));
    }
    return {std::move(plan), std::move(run)};
}

TEST(TaskGraphStaged, BarrierEdgesReproduceTheStagedLoops)
{
    Rng rng(2025);
    int cases = 0;
    for (const Columns columns : {Columns::SpatialOnly, Columns::RoundRobin,
                                  Columns::Blocks, Columns::Random}) {
        for (const int num_cols : {1, 3, 8}) {
            for (SnapshotId t = 0; t <= 40; ++t) {
                auto [plan, run] = syntheticCase(columns, num_cols, t, rng);
                for (const bool barrier : {false, true}) {
                    for (const Cycle config : {Cycle{0}, Cycle{37}}) {
                        SCOPED_TRACE(testing::Message()
                                     << "columns=" << int(columns)
                                     << " num_cols=" << num_cols
                                     << " T=" << t
                                     << " barrier=" << barrier
                                     << " config=" << config);
                        plan.options.globalGnnBarrier = barrier;
                        run.configPerSnapshot = config;
                        const auto want = stagedReference(plan, run);
                        const auto got = stagedOnGraph(plan, run);
                        ASSERT_EQ(got.totalCycles, want.totalCycles);
                        ASSERT_EQ(got.gnnDone, want.gnnDone);
                        ASSERT_EQ(got.rnnDone, want.rnnDone);
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 4 * 3 * 41 * 2 * 2);
}

// ---------------------------------------------------------------------
// Schedule invariants on the reported task records.
// ---------------------------------------------------------------------

TEST(TaskGraphSchedule, MakespanIsLastFinishAndRespectsChainBounds)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto r = runMode(accel, dg, true);
    ASSERT_TRUE(r.taskGraph.enabled);
    ASSERT_EQ(r.taskGraph.tasks.size(), r.taskGraph.numTasks);

    Cycle last_finish = 0;
    Cycle rnn_chain = 0;
    Cycle dram_chain = 0;
    Cycle relink_chain = 0;
    for (const auto &task : r.taskGraph.tasks) {
        EXPECT_LE(task.start, task.finish) << "task " << task.id;
        last_finish = std::max(last_finish, task.finish);
        const Cycle duration = task.finish - task.start;
        if (task.kind == "rnn")
            rnn_chain += duration;
        else if (task.kind == "dram")
            dram_chain += duration;
        else if (task.kind == "relink")
            relink_chain += duration;
    }
    EXPECT_EQ(r.taskGraph.makespan, last_finish);
    EXPECT_EQ(r.taskGraph.makespan, r.totalCycles);
    // The builder chains rnn[t-1]->rnn[t], dram[t-1]->dram[t] and
    // relink[t-1]->relink[t], so each kind's summed duration bounds
    // the makespan from below — the longest chain wins.
    EXPECT_GE(r.taskGraph.makespan, rnn_chain);
    EXPECT_GE(r.taskGraph.makespan, dram_chain);
    EXPECT_GE(r.taskGraph.makespan, relink_chain);
    EXPECT_GT(relink_chain, 0u); // T * perSnapshotConfigCycles.
}

TEST(TaskGraphSchedule, LanesNeverRunTwoTasksAtOnce)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto r = runMode(accel, dg, true);
    ASSERT_TRUE(r.taskGraph.enabled);
    for (auto &[lane, tasks] : tasksByLane(r)) {
        auto sorted = tasks;
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 1; i < sorted.size(); ++i) {
            EXPECT_LE(sorted[i - 1].finish, sorted[i].start)
                << "lane " << lane << " tasks " << sorted[i - 1].id
                << " and " << sorted[i].id;
        }
    }
    // Lane usage totals match the task records.
    std::uint64_t lane_tasks = 0;
    for (const auto &lane : r.taskGraph.lanes)
        lane_tasks += lane.tasks;
    EXPECT_EQ(lane_tasks, r.taskGraph.numTasks);
}

TEST(TaskGraphSchedule, CriticalPathIsAGaplessChainToMakespan)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto r = runMode(accel, dg, true);
    ASSERT_TRUE(r.taskGraph.enabled);
    std::vector<sim::TaskGraphStats::Task> critical;
    for (const auto &task : r.taskGraph.tasks)
        if (task.critical)
            critical.push_back(task);
    ASSERT_FALSE(critical.empty());
    std::sort(critical.begin(), critical.end(),
              [](const auto &a, const auto &b) {
                  return a.start < b.start;
              });
    // Each critical task starts exactly when its binding predecessor
    // finished; the chain spans cycle 0 through the makespan.
    EXPECT_EQ(critical.front().start, 0u);
    EXPECT_EQ(critical.back().finish, r.taskGraph.makespan);
    for (std::size_t i = 1; i < critical.size(); ++i) {
        EXPECT_EQ(critical[i - 1].finish, critical[i].start)
            << "critical step " << i;
    }
}

// ---------------------------------------------------------------------
// Determinism: the overlap schedule is a pure function of the plan at
// any thread width, healthy or degraded.
// ---------------------------------------------------------------------

void
expectSameSchedule(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    ASSERT_EQ(a.taskGraph.enabled, b.taskGraph.enabled);
    EXPECT_EQ(a.taskGraph.makespan, b.taskGraph.makespan);
    EXPECT_EQ(a.taskGraph.numEdges, b.taskGraph.numEdges);
    ASSERT_EQ(a.taskGraph.tasks.size(), b.taskGraph.tasks.size());
    for (std::size_t i = 0; i < a.taskGraph.tasks.size(); ++i) {
        const auto &ta = a.taskGraph.tasks[i];
        const auto &tb = b.taskGraph.tasks[i];
        EXPECT_EQ(ta.id, tb.id);
        EXPECT_EQ(ta.kind, tb.kind);
        EXPECT_EQ(ta.snapshot, tb.snapshot);
        EXPECT_EQ(ta.lane, tb.lane);
        EXPECT_EQ(ta.start, tb.start) << "task " << ta.id;
        EXPECT_EQ(ta.finish, tb.finish) << "task " << ta.id;
        EXPECT_EQ(ta.critical, tb.critical) << "task " << ta.id;
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t) {
        EXPECT_EQ(a.trace[t].gnnDone, b.trace[t].gnnDone);
        EXPECT_EQ(a.trace[t].rnnDone, b.trace[t].rnnDone);
    }
}

TEST(TaskGraphDeterminism, OverlapIdenticalAcrossThreadCounts)
{
    const auto dg = taskWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    const auto serial = sim::executePlan(dg, plan);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        expectSameSchedule(serial, sim::executePlan(dg, plan));
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(TaskGraphDeterminism, FaultedOverlapIdenticalAcrossThreadCounts)
{
    const auto dg = taskWorkload();
    const model::DgnnConfig mconfig;
    core::DiTileAccelerator accel;
    ThreadPool::setGlobalThreads(1);
    auto plan = accel.plan(dg, mconfig);
    plan.options.overlap = true;
    plan.faults = sim::FaultSpec::parse(
        "tile@1:r3c*;tile@4:r7c2;hlink@0:r2c2;vlink@0:r1c2;"
        "bypass-open@2:c5;dram@3:ch*;seed=5");
    const auto serial = sim::executePlan(dg, plan);
    EXPECT_TRUE(serial.resilience.enabled);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ThreadPool::setGlobalThreads(threads);
        expectSameSchedule(serial, sim::executePlan(dg, plan));
    }
    ThreadPool::setGlobalThreads(1);
}

// ---------------------------------------------------------------------
// Structural-graph unit coverage, independent of the engine.
// ---------------------------------------------------------------------

TEST(TaskGraphBuild, SnapshotMajorIdsAndAlwaysPresentRelink)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    const auto plan = accel.plan(dg, model::DgnnConfig{});
    const auto g = sim::buildTaskGraph(plan);
    ASSERT_EQ(g.bySnapshot.size(),
              static_cast<std::size_t>(plan.numSnapshots()));
    int prev_id = -1;
    for (const auto &st : g.bySnapshot) {
        // Ids ascend snapshot-major; dram opens and relink closes
        // every snapshot's block.
        ASSERT_GE(st.dram, 0);
        ASSERT_GE(st.relink, 0);
        EXPECT_GT(st.dram, prev_id);
        EXPECT_GT(st.gnn, st.dram);
        EXPECT_GT(st.relink, st.rnn);
        prev_id = st.relink;
    }
    for (const auto &[src, dst] : g.edges) {
        ASSERT_GE(src, 0);
        ASSERT_LT(dst, static_cast<int>(g.nodes.size()));
        EXPECT_LT(src, dst) << "edges must point forward in id order";
    }
}

TEST(TaskGraphBuild, SchedulerHonorsDurationsOnHandBuiltGraph)
{
    // Two lanes, three tasks: a->c dependency across lanes, b sharing
    // a's lane. The lane serializes a and b; c waits for a.
    sim::TaskGraph g;
    const int lane0 = g.addLane(sim::LaneKind::TileColumn, 0);
    const int lane1 = g.addLane(sim::LaneKind::NocColumn, 0);
    const int a = g.addTask(sim::TaskKind::GnnCompute, 0, lane0);
    const int b = g.addTask(sim::TaskKind::GnnCompute, 1, lane0);
    const int c = g.addTask(sim::TaskKind::SpatialComm, 0, lane1);
    g.addDep(a, c);
    g.nodes[static_cast<std::size_t>(a)].duration = 10;
    g.nodes[static_cast<std::size_t>(b)].duration = 5;
    g.nodes[static_cast<std::size_t>(c)].duration = 7;
    const auto s = sim::scheduleTaskGraph(g);
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(a)].start, 0u);
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(b)].start, 10u);
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(c)].start, 10u);
    EXPECT_EQ(s.makespan, 17u);
    EXPECT_EQ(s.lanes[static_cast<std::size_t>(lane0)].tasks, 2u);
    EXPECT_EQ(s.lanes[static_cast<std::size_t>(lane0)].busyCycles, 15u);
    EXPECT_EQ(s.lanes[static_cast<std::size_t>(lane1)].busyCycles, 7u);
    // Critical path: a (binding dep of c) then c.
    ASSERT_EQ(s.criticalPath.size(), 2u);
    EXPECT_EQ(s.criticalPath[0], a);
    EXPECT_EQ(s.criticalPath[1], c);
}

// ---------------------------------------------------------------------
// Plan JSON format 2: the serialized task graph and back-compat.
// ---------------------------------------------------------------------

TEST(TaskGraphJson, Format2EmbedsGraphAndRoundTripsByteStable)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{});
    plan.options.overlap = true;
    const std::string json = plan.toJson();
    EXPECT_NE(json.find("\"plan_format\":2"), std::string::npos);
    EXPECT_NE(json.find("\"overlap\":true"), std::string::npos);
    EXPECT_NE(json.find("\"task_graph\":"), std::string::npos);
    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_TRUE(parsed.options.overlap);
    EXPECT_EQ(parsed.toJson(), json);
    EXPECT_EQ(parsed.contentHash(), plan.contentHash());

    // The embedded section mirrors buildTaskGraph on the same plan.
    const auto g = sim::buildTaskGraph(plan);
    EXPECT_NE(json.find("\"edges\":["), std::string::npos);
    for (const auto &lane : g.lanes)
        EXPECT_NE(json.find("\"" + lane.name() + "\""),
                  std::string::npos)
            << lane.name();
}

TEST(TaskGraphJson, Format1DocumentsLoadWithOverlapOff)
{
    const auto dg = taskWorkload();
    core::DiTileAccelerator accel;
    auto plan = accel.plan(dg, model::DgnnConfig{});
    plan.options.overlap = true;
    std::string json = plan.toJson();

    // Surgically rewrite the document to what a format-1 writer would
    // have produced: no format-2 keys at all.
    auto erase_span = [&](std::size_t from, std::size_t to) {
        json.erase(from, to - from);
    };
    const auto fmt = json.find("\"plan_format\":2");
    ASSERT_NE(fmt, std::string::npos);
    json.replace(fmt, std::string("\"plan_format\":2").size(),
                 "\"plan_format\":1");
    const auto ov = json.find(",\"overlap\":true");
    ASSERT_NE(ov, std::string::npos);
    erase_span(ov, ov + std::string(",\"overlap\":true").size());
    const auto tg = json.find(",\"task_graph\":{");
    ASSERT_NE(tg, std::string::npos);
    // The section holds no nested objects-in-strings; scan to its
    // matching close brace.
    std::size_t depth = 0;
    std::size_t end = json.find('{', tg);
    for (; end < json.size(); ++end) {
        if (json[end] == '{')
            ++depth;
        else if (json[end] == '}' && --depth == 0)
            break;
    }
    ASSERT_LT(end, json.size());
    erase_span(tg, end + 1);

    const auto parsed = sim::ExecutionPlan::fromJson(json);
    EXPECT_FALSE(parsed.options.overlap);
    // Timing-relevant content survives: re-executing the degraded
    // document matches the original plan run with overlap off.
    auto staged = plan;
    staged.options.overlap = false;
    EXPECT_EQ(sim::executePlan(dg, parsed).totalCycles,
              sim::executePlan(dg, staged).totalCycles);
}

} // namespace
} // namespace ditile
