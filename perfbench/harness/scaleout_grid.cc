/**
 * @file
 * scaleout_grid: one op is one multi-chip grid point — DiTile plan,
 * sim::applyScaleOut, sim::runScaleOut — over (graph, chips,
 * inter-chip bandwidth). Set-up synthesizes the RD graphs; a pass is
 * the whole grid with one fresh PlanCache and SharedFrontEnd per graph,
 * shared across that graph's points as bench_scaleout shares its cache.
 */

#include <algorithm>

#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "core/plan_batch.hh"
#include "graph/datasets.hh"
#include "harness.hh"
#include "sim/execution_plan.hh"
#include "sim/scaleout.hh"

namespace perfbench {

using namespace ditile;

namespace {

struct GridPoint
{
    std::size_t graph = 0;
    int chips = 2;
    noc::InterChipLinkConfig link;
};

sim::RunResult
runPointOneShot(const graph::DynamicGraph &dg, const GridPoint &point,
                const model::DgnnConfig &model)
{
    core::DiTileAccelerator ditile;
    auto plan = ditile.plan(dg, model);
    sim::applyScaleOut(plan, dg, point.chips, point.link);
    return sim::runScaleOut(dg, plan, nullptr);
}

} // namespace

Report
runScaleoutGrid(const Options &options, Spans &spans)
{
    const int width = std::min(4, options.nproc);
    ThreadPool::setGlobalThreads(width);
    const model::DgnnConfig model;
    const std::size_t num_graphs = options.smoke ? 1 : 3;

    // Set-up: synthesize the graphs and lay out the grid.
    std::vector<graph::DynamicGraph> graphs;
    Report report;
    for (std::size_t g = 0; g < num_graphs; ++g) {
        graph::DatasetOptions dataset;
        dataset.scale = options.smoke ? 0.01 : 0.05;
        dataset.numSnapshots = options.smoke ? 4 : 8;
        dataset.seed = derivedSeed(options.seed, g);
        auto s = spans.scope("graph.synth_ms");
        graphs.push_back(graph::makeDataset("RD", dataset));
    }
    std::vector<GridPoint> grid;
    for (std::size_t g = 0; g < num_graphs; ++g)
        for (const int chips : {2, 4, 8})
            for (const double gbps : {25.0, 100.0, 400.0}) {
                GridPoint point;
                point.graph = g;
                point.chips = chips;
                point.link.bandwidthGbps = gbps;
                grid.push_back(point);
            }
    report.poolWidth = width;
    report.passOps = static_cast<long long>(grid.size());
    const auto ready = Clock::now();
    report.readyNs = ready.time_since_epoch().count();
    if (options.setupOnly)
        return report;
    for (const auto &dg : graphs)
        addGraphCounts(report, dg);

    const StopRule stop{options.seconds, options.smoke ? 1 : 100, ready};
    const int max_passes = options.smoke ? 1 : 64;
    long long ops = 0;
    int pass = 0;
    for (; pass < max_passes && !stop.done(ops); ++pass) {
        std::vector<sim::PlanCache> caches(num_graphs);
        std::vector<core::SharedFrontEnd> shared(num_graphs);
        for (std::size_t i = 0; i < grid.size(); ++i, ++ops) {
            spans.setOp(ops, pass);
            const GridPoint &point = grid[i];
            const graph::DynamicGraph &dg = graphs[point.graph];
            sim::PlanCache &cache = caches[point.graph];
            core::SharedFrontEnd &front = shared[point.graph];
            sim::RunResult result;
            const auto t0 = Clock::now();
            {
                auto op_span = spans.scope("op");
                core::DiTileAccelerator ditile;
                {
                    auto s = spans.scope("workload.loads_ms");
                    front.loads(dg, model);
                }
                {
                    auto s = spans.scope("tiling.alg1_ms");
                    front.strategy(dg, model, ditile.hardware(),
                                   ditile.options().parallelismStrategy);
                }
                sim::ExecutionPlan plan;
                {
                    auto s = spans.scope("core.plan_tail_ms");
                    plan = ditile.plan(dg, model, &cache, &front);
                }
                {
                    auto s = spans.scope("scaleout.partition_ms");
                    sim::applyScaleOut(plan, dg, point.chips, point.link);
                }
                auto s = spans.scope("scaleout.run_ms");
                result = sim::runScaleOut(dg, plan, &cache);
            }
            report.opMs.push_back(msBetween(t0, Clock::now()));

            Hasher hasher;
            hashRun(hasher, result);
            const std::string key = "g" + std::to_string(i);
            report.digests.emplace_back(key, hasher.hex());
            report.digestOps[key] = 1;
            if (pass == 0) {
                addCount(report, "model.cluster_cycles",
                         static_cast<double>(result.totalCycles));
                addRunCounts(report, result);
            }
        }
        if (pass == 0) {
            for (const auto &cache : caches)
                addPlanCacheCounts(report, cache);
            setGlobalCacheCounts(report);
            report.peakRssMb = peakRssMb();
        }
    }
    report.completePasses = pass;
    report.timedS = msBetween(ready, Clock::now()) / 1000.0;

    // Re-run every third grid point serially (pool width 1) with no
    // cache or shared front end; cluster results are bit-identical at
    // any width.
    ThreadPool::setGlobalThreads(1);
    spans.setOp(Spans::kVerifyOp, -1);
    Check check{"scaleout_grid.serial_one_shot_rerun", true, 0, ""};
    long long rechecked = 0;
    for (std::size_t i = 0; i < grid.size(); i += options.smoke ? 1 : 3) {
        const GridPoint &point = grid[i];
        Hasher hasher;
        hashRun(hasher, runPointOneShot(graphs[point.graph], point, model));
        ++rechecked;
        if (hasher.hex() != report.digests[i].second) {
            check.ok = false;
            check.failedOps += pass;
            check.detail += report.digests[i].first + " ";
        }
    }
    check.detail += std::to_string(rechecked) + " point(s) re-run";
    report.checks.push_back(check);
    return report;
}

} // namespace perfbench
