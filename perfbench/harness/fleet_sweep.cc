/**
 * @file
 * fleet_sweep: one op is one cold design-space sweep point — a fresh
 * WD graph, then plan + execute on all five accelerators with a fresh
 * PlanCache, as `ditile_sweep --all-accels` does per point.
 */

#include <functional>
#include <memory>
#include <optional>

#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "core/plan_batch.hh"
#include "graph/datasets.hh"
#include "harness.hh"
#include "sim/baselines.hh"

namespace perfbench {

using namespace ditile;

namespace {

struct Member
{
    std::function<std::unique_ptr<sim::Accelerator>()> make;
    std::string name;
    std::string planLayer;
    std::string executeLayer;
};

std::vector<Member>
baselineMembers()
{
    std::vector<Member> members;
    for (auto make : std::vector<std::function<
             std::unique_ptr<sim::Accelerator>()>>{
             [] { return sim::makeReady(); },
             [] { return sim::makeDgnnBooster(); },
             [] { return sim::makeRace(); },
             [] { return sim::makeMega(); }}) {
        const std::string name = make()->name();
        members.push_back({make, name, "sim.plan_ms." + name,
                           "sim.execute_ms." + name});
    }
    return members;
}

/** Sweep point i: dissimilarity cycles 0.02..0.10, T alternates 8/16. */
graph::DynamicGraph
makePoint(std::uint64_t run_seed, long long i, double scale)
{
    graph::DatasetOptions options;
    options.scale = scale;
    options.dissimilarity = 0.02 + 0.02 * static_cast<double>(i % 5);
    options.numSnapshots = (i % 2) != 0 ? 16 : 8;
    options.seed = derivedSeed(run_seed, static_cast<std::uint64_t>(i));
    return graph::makeDataset("WD", options);
}

} // namespace

Report
runFleetSweep(const Options &options, Spans &spans)
{
    ThreadPool::setGlobalThreads(1);
    const double scale = options.smoke ? 0.05 : 0.25;
    const long long pass_ops = options.smoke ? 4 : 100;
    const long long max_ops = options.smoke ? 4 : 150;
    const model::DgnnConfig model;
    const auto baselines = baselineMembers();
    const std::string ditile_name = core::DiTileAccelerator().name();
    const std::string ditile_execute = "sim.execute_ms." + ditile_name;

    Report report;
    report.poolWidth = 1;
    report.passOps = pass_ops;
    const auto ready = Clock::now();
    report.readyNs = ready.time_since_epoch().count();
    if (options.setupOnly)
        return report;

    const StopRule stop{options.seconds, pass_ops, ready};
    CpuRotation rotation;
    long long ops = 0;
    for (; ops < max_ops && !stop.done(ops); ++ops) {
        rotation.next();
        const bool first_pass = ops < pass_ops;
        spans.setOp(ops, first_pass ? 0 : 1);
        std::vector<sim::RunResult> results;
        sim::PlanCache cache;
        std::optional<graph::DynamicGraph> point;
        const auto t0 = Clock::now();
        {
            auto op_span = spans.scope("op");
            {
                auto s = spans.scope("graph.synth_ms");
                point.emplace(makePoint(options.seed, ops, scale));
            }
            const graph::DynamicGraph &dg = *point;
            for (const Member &member : baselines) {
                auto accel = member.make();
                sim::ExecutionPlan plan;
                {
                    auto s = spans.scope(member.planLayer);
                    plan = accel->plan(dg, model, &cache);
                }
                auto s = spans.scope(member.executeLayer);
                results.push_back(accel->execute(dg, plan));
            }
            core::DiTileAccelerator ditile;
            core::SharedFrontEnd shared;
            {
                auto s = spans.scope("workload.loads_ms");
                shared.loads(dg, model);
            }
            {
                auto s = spans.scope("tiling.alg1_ms");
                shared.strategy(dg, model, ditile.hardware(),
                                ditile.options().parallelismStrategy);
            }
            sim::ExecutionPlan plan;
            {
                auto s = spans.scope("core.plan_tail_ms");
                plan = ditile.plan(dg, model, &cache, &shared);
            }
            {
                auto s = spans.scope(ditile_execute);
                results.push_back(ditile.execute(dg, plan));
            }
        }
        report.opMs.push_back(msBetween(t0, Clock::now()));

        Hasher hasher;
        for (const auto &r : results)
            hashRun(hasher, r);
        const std::string key = "op" + std::to_string(ops);
        report.digests.emplace_back(key, hasher.hex());
        report.digestOps[key] = 1;
        if (first_pass) {
            addGraphCounts(report, *point);
            addPlanCacheCounts(report, cache);
            for (const auto &r : results) {
                addCount(report, "model.cycles." + r.acceleratorName,
                         static_cast<double>(r.totalCycles));
                addRunCounts(report, r);
            }
        }
        if (ops + 1 == pass_ops) {
            report.peakRssMb = peakRssMb();
            report.completePasses = 1;
            setGlobalCacheCounts(report);
        }
    }
    report.timedS = msBetween(ready, Clock::now()) / 1000.0;

    // Re-execute every tenth point through the uncached, unshared
    // one-shot path; the contract is bit-identical output.
    spans.setOp(Spans::kVerifyOp, -1);
    Check check{"fleet_sweep.one_shot_rerun", true, 0, ""};
    long long rechecked = 0;
    for (long long i = 0; i < ops; i += options.smoke ? 1 : 10) {
        const auto dg = makePoint(options.seed, i, scale);
        Hasher hasher;
        for (const Member &member : baselines)
            hashRun(hasher, member.make()->run(dg, model));
        hashRun(hasher, core::DiTileAccelerator().run(dg, model));
        ++rechecked;
        if (hasher.hex() != report.digests[static_cast<std::size_t>(i)]
                                .second) {
            check.ok = false;
            ++check.failedOps;
            check.detail += "op" + std::to_string(i) + " ";
        }
    }
    check.detail += std::to_string(rechecked) + " point(s) re-run";
    report.checks.push_back(check);
    return report;
}

} // namespace perfbench
