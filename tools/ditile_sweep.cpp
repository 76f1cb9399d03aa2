/**
 * @file
 * ditile_sweep — grid sweeps to CSV for plotting.
 *
 * Runs DiTile-DGNN (and optionally every baseline) over the cross
 * product of dissimilarity rates and snapshot counts on one dataset,
 * emitting one CSV row per run.
 *
 *   ditile_sweep --dataset=WD --dis=0.02,0.06,0.10,0.14 \
 *                --snapshots=4,8,16 [--all-accels] [--scale=F] \
 *                [--threads=N] [--faults=SPEC] [--digest-stats] \
 *                [--no-overlap] [--batch-plan=on|off] \
 *                [--chips=M] [--interchip-gbps=G] [--interchip-ns=L] \
 *                [--trace=FILE] [--metrics=FILE]
 *
 * --chips=M > 1 shards every run over an M-chip cluster through the
 * chunk partitioner and the inter-chip link model (sim/scaleout.hh);
 * the default M=1 is the unchanged single-chip path, byte-identical
 * to sweeps predating the flag.
 *
 * Runs execute through the task-graph overlap scheduler by default;
 * --no-overlap selects the staged timeline (the same task graph plus
 * barrier edges, never faster than overlap).
 *
 * Grid points that share generator parameters (same dissimilarity and
 * snapshot count, hence the same generated graph) are planned as one
 * batch: the group's first-arriving job generates the dataset and
 * builds the whole fleet's execution plans once — DiTile variants
 * drawing the graph-determined front-end prefix (workload loads +
 * Algorithm 1) from one SharedFrontEnd — and every member replays
 * those plans. --batch-plan=off makes every point its own group
 * (generate + plan per point, the pre-batching behavior); the sweep
 * CSV is byte-identical either way, batching only removes redundant
 * front-end work. Group state is freed as soon as its last member
 * finishes, so peak memory stays at a few live grid points.
 *
 * --trace=FILE captures a structured Chrome trace across the whole
 * sweep (each grid point on its own track group); --metrics=FILE
 * writes a per-point rollup CSV sidecar with the extended per-run
 * observability stats. The sweep CSV and the metrics sidecar are
 * bit-identical at any --threads width; in the trace, only the
 * shared-cache hit/miss instants can shift with thread contention
 * (which racing grid point pays the miss), every modeled span is
 * width-independent. With batching on, plan-stage spans live on the
 * group representative's track group (they happen once per group).
 *
 * Config points are independent, so with --threads=N they fan out
 * across the process-wide thread pool; rows are still emitted in
 * grid order and every number is bit-identical to --threads=1.
 *
 * A failing grid point (bad input, unsatisfiable fault schedule, ...)
 * does not abort the sweep: the rows of every successful point are
 * still flushed to stdout in grid order, the failing point and its
 * error are reported on stderr, and the process exits nonzero.
 *
 * SIGINT/SIGTERM interrupt the sweep gracefully: not-yet-run grid
 * points are skipped, and the rows of every completed point — plus
 * the metrics sidecar and trace file, when requested — are still
 * flushed before the process exits with status 130. A second signal
 * kills the process immediately.
 */

#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "core/plan_batch.hh"
#include "graph/datasets.hh"
#include "sim/baselines.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"
#include "sim/scaleout.hh"

using namespace ditile;

namespace {

std::vector<double>
parseList(const std::string &csv, double fallback)
{
    std::vector<double> values;
    std::stringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (item.empty())
            continue;
        char *endp = nullptr;
        const double v = std::strtod(item.c_str(), &endp);
        if (endp != item.c_str() + item.size())
            DITILE_THROW("invalid number '", item, "' in list '", csv,
                         "'");
        values.push_back(v);
    }
    if (values.empty())
        values.push_back(fallback);
    return values;
}

bool
parseBatchPlan(const CliFlags &flags)
{
    // Not getBool: "off" must disable (getBool treats any value other
    // than "0"/"false" as true).
    const auto v = flags.getString("batch-plan", "on");
    if (v == "on" || v == "1" || v == "true")
        return true;
    if (v == "off" || v == "0" || v == "false")
        return false;
    DITILE_FATAL("--batch-plan must be on or off, got '", v, "'");
}

int
runTool(const CliFlags &flags)
{
    const auto dataset = flags.getString("dataset", "WD");
    const auto dis_list = parseList(flags.getString("dis", ""), 0.10);
    const auto snap_list = parseList(flags.getString("snapshots", ""),
                                     8.0);
    const bool all_accels = flags.getBool("all-accels", false);
    const bool overlap = !flags.getBool("no-overlap", false);
    const bool batch_plan = parseBatchPlan(flags);
    const bool have_faults = flags.has("faults");
    const auto fault_spec =
        sim::FaultSpec::parse(flags.getString("faults", ""));
    const int chips = static_cast<int>(flags.getInt("chips", 1));
    noc::InterChipLinkConfig interchip;
    interchip.bandwidthGbps =
        flags.getDouble("interchip-gbps", interchip.bandwidthGbps);
    interchip.latencyNs =
        flags.getDouble("interchip-ns", interchip.latencyNs);
    ThreadPool::setGlobalThreads(
        static_cast<int>(flags.getInt("threads", 1)));
    const auto trace_file = flags.getString("trace", "");
    const auto metrics_file = flags.getString("metrics", "");
    if (trace_file == "1" || metrics_file == "1")
        DITILE_FATAL("--trace and --metrics need =FILE in ditile_sweep");
    Tracer &tracer = Tracer::global();
    if (!trace_file.empty() || !metrics_file.empty()) {
        tracer.reset();
        tracer.enable(!trace_file.empty(), !metrics_file.empty());
    }

    // One job per (dissimilarity, snapshot-count) grid point; each
    // job owns its row block, so jobs merge back in grid order. A job
    // that throws records the error instead of its rows.
    struct Job
    {
        double dis = 0.0;
        double snaps = 0.0;
        std::size_t group = 0;
        std::vector<std::vector<std::string>> rows;
        std::vector<std::vector<std::string>> metricRows;
        std::string error;
        bool interrupted = false;
    };
    installShutdownHandler();
    std::vector<Job> jobs;
    for (double dis : dis_list)
        for (double snaps : snap_list)
            jobs.push_back({dis, snaps, 0, {}, {}, {}});

    // Jobs with equal generator parameters regenerate the same graph
    // (makeDataset is deterministic in (dataset, scale, seed, dis,
    // snapshots)), so they share one planning group; the group key is
    // a conservative proxy for graph::structureHash equality that
    // needs no generation up front. --batch-plan=off degenerates to
    // one group per point. The shared graph + plans are built lazily
    // by the group's first-arriving job and freed by its last.
    struct GroupState
    {
        std::shared_ptr<const graph::DynamicGraph> dg;
        std::vector<sim::ExecutionPlan> plans; ///< Fleet order.
        std::string error; ///< Build failure, replicated to members.
    };
    struct Group
    {
        std::size_t rep = 0; ///< Lowest member index: trace track owner.
        std::mutex mutex;
        std::shared_ptr<GroupState> state;
        std::atomic<std::size_t> remaining{0};
    };
    std::map<std::pair<double, double>, std::size_t> group_index;
    std::deque<Group> groups;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        Job &job = jobs[j];
        const std::pair<double, double> key{job.dis, job.snaps};
        auto it = batch_plan ? group_index.find(key)
                             : group_index.end();
        if (it == group_index.end()) {
            if (batch_plan)
                group_index.emplace(key, groups.size());
            job.group = groups.size();
            groups.emplace_back();
            groups.back().rep = j;
        } else {
            job.group = it->second;
        }
        ++groups[job.group].remaining;
    }

    // One process-wide plan cache: accelerators sharing an update
    // algorithm on the same grid point (ReaDy and DGNN-Booster both
    // run Re-Alg) reuse one snapshot-plan set instead of replanning.
    sim::PlanCache plan_cache;

    // Generate the group's graph and plan the whole fleet against it.
    // Never throws: a failure is stored so every member of the group
    // reports it. Plan-stage trace spans land on the representative
    // job's track group regardless of which job arrives first.
    const auto buildGroupState = [&](const Job &job, std::size_t rep) {
        auto state = std::make_shared<GroupState>();
        try {
            graph::DatasetOptions options;
            options.scale = flags.getDouble("scale", 0.0);
            options.numSnapshots = static_cast<SnapshotId>(job.snaps);
            options.dissimilarity = job.dis;
            options.seed = static_cast<std::uint64_t>(
                flags.getInt("seed", 0));
            state->dg = std::make_shared<const graph::DynamicGraph>(
                graph::makeDataset(dataset, options));
            const model::DgnnConfig mconfig;

            std::vector<std::unique_ptr<sim::Accelerator>> fleet;
            if (all_accels) {
                fleet.push_back(sim::makeReady());
                fleet.push_back(sim::makeDgnnBooster());
                fleet.push_back(sim::makeRace());
                fleet.push_back(sim::makeMega());
            }
            fleet.push_back(
                std::make_unique<core::DiTileAccelerator>());
            // The shared front end memoizes the graph-determined
            // prefix (loads + Algorithm 1) across the DiTile plans of
            // this group; baselines plan as before.
            core::SharedFrontEnd shared;
            std::uint64_t accel_idx = 0;
            for (auto &accel : fleet) {
                Tracer::setTrackBase(
                    (static_cast<std::uint64_t>(rep) * fleet.size() +
                     accel_idx++) * Tracer::kTracksPerRun);
                sim::ExecutionPlan plan;
                if (auto *ditile =
                        dynamic_cast<core::DiTileAccelerator *>(
                            accel.get())) {
                    plan = ditile->plan(*state->dg, mconfig,
                                        &plan_cache, &shared);
                } else {
                    plan = accel->plan(*state->dg, mconfig,
                                       &plan_cache);
                }
                if (have_faults)
                    plan.faults = fault_spec;
                plan.options.overlap = overlap;
                if (chips > 1)
                    sim::applyScaleOut(plan, *state->dg, chips,
                                       interchip);
                state->plans.push_back(std::move(plan));
            }
        } catch (const std::exception &e) {
            state->error = e.what();
            state->plans.clear();
            state->dg.reset();
        }
        return state;
    };

    const auto runPoint = [&](std::size_t j, Job &job, Group &group) {
        if (shutdownRequested()) {
            // Skip cleanly; already-finished points still flush below.
            job.interrupted = true;
            return;
        }
        try {
            std::shared_ptr<GroupState> state;
            {
                // Later arrivals of the group wait here for the
                // build; they cannot proceed without the plans anyway.
                std::lock_guard<std::mutex> lock(group.mutex);
                if (!group.state)
                    group.state = buildGroupState(job, group.rep);
                state = group.state;
            }
            if (!state->error.empty()) {
                job.error = state->error;
                return;
            }
            const graph::DynamicGraph &dg = *state->dg;
            const std::size_t fleet_n = state->plans.size();
            for (std::size_t a = 0; a < fleet_n; ++a) {
                // Disjoint track group per (grid point, accelerator)
                // so concurrent jobs never share a trace track.
                Tracer::setTrackBase(
                    (static_cast<std::uint64_t>(j) * fleet_n + a) *
                    Tracer::kTracksPerRun);
                const auto r = sim::executePlan(dg, state->plans[a],
                                                &plan_cache);
                job.rows.push_back(
                    {dataset, Table::num(job.dis, 3),
                     Table::integer(static_cast<long long>(job.snaps)),
                     r.acceleratorName,
                     Table::integer(static_cast<long long>(
                         r.totalCycles)),
                     Table::integer(static_cast<long long>(
                         r.ops.totalArithmetic())),
                     Table::integer(static_cast<long long>(
                         r.dramTraffic.total())),
                     Table::integer(static_cast<long long>(
                         r.nocBytes)),
                     Table::num(r.energy.totalPj(), 0),
                     Table::num(r.peUtilization, 4)});
                if (!metrics_file.empty()) {
                    auto stat = [&](const char *name) {
                        return Table::integer(static_cast<long long>(
                            r.stats.get(name)));
                    };
                    job.metricRows.push_back(
                        {dataset, Table::num(job.dis, 3),
                         Table::integer(static_cast<long long>(
                             job.snaps)),
                         r.acceleratorName,
                         stat("noc.spatial_bytes"),
                         stat("noc.temporal_bytes"),
                         stat("noc.reuse_bytes"),
                         stat("dram.requests"),
                         stat("dram.row_hits"),
                         stat("dram.row_misses"),
                         stat("dram.row_conflicts"),
                         stat("engine.digest_full_fastpath"),
                         stat("engine.digest_rnn_fastpath"),
                         stat("relink.engaged_snapshots")});
                }
            }
        } catch (const std::exception &e) {
            job.rows.clear();
            job.metricRows.clear();
            job.error = e.what();
        }
    };

    // The CSV header goes out (and is flushed) before any point runs:
    // a sweep that dies mid-grid — or whose very first point fails —
    // still leaves a machine-readable CSV behind.
    Table table("sweep");
    table.setHeader({"dataset", "dissimilarity", "snapshots",
                     "accelerator", "cycles", "ops", "dram_bytes",
                     "noc_bytes", "energy_pj", "pe_utilization"});
    std::fputs(table.headerCsv().c_str(), stdout);
    std::fflush(stdout);

    parallelFor(jobs.size(), [&](std::size_t j) {
        Job &job = jobs[j];
        Group &group = groups[job.group];
        runPoint(j, job, group);
        // Free the shared graph + plans once the last member is done
        // so peak memory tracks live points, not the whole grid.
        if (group.remaining.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(group.mutex);
            group.state.reset();
        }
    });

    // Flush every successful point in grid order even when some
    // points failed, so a long sweep's partial CSV survives.
    int failed = 0;
    for (const auto &job : jobs)
        for (const auto &row : job.rows)
            table.addRow(row);
    std::fputs(table.rowsCsv().c_str(), stdout);
    std::fflush(stdout);
    // Stderr so the CSV on stdout stays byte-identical to the
    // uncached runs.
    for (const auto &job : jobs) {
        if (job.error.empty())
            continue;
        ++failed;
        std::fprintf(stderr,
                     "sweep point failed: dataset=%s dis=%.3f "
                     "snapshots=%d: %s\n",
                     dataset.c_str(), job.dis,
                     static_cast<int>(job.snaps), job.error.c_str());
    }
    if (!metrics_file.empty()) {
        Table sidecar("sweep metrics");
        sidecar.setHeader({"dataset", "dissimilarity", "snapshots",
                           "accelerator", "noc_spatial_bytes",
                           "noc_temporal_bytes", "noc_reuse_bytes",
                           "dram_requests", "dram_row_hits",
                           "dram_row_misses", "dram_row_conflicts",
                           "digest_full_fastpath",
                           "digest_rnn_fastpath",
                           "relink_engaged_snapshots"});
        for (const auto &job : jobs)
            for (const auto &row : job.metricRows)
                sidecar.addRow(row);
        std::FILE *out = std::fopen(metrics_file.c_str(), "w");
        if (!out)
            DITILE_FATAL("cannot write --metrics '", metrics_file, "'");
        std::fputs(sidecar.toCsv().c_str(), out);
        std::fclose(out);
        std::fprintf(stderr, "wrote metrics sidecar to %s\n",
                     metrics_file.c_str());
    }
    if (!trace_file.empty()) {
        tracer.writeChromeJson(trace_file);
        std::fprintf(stderr, "wrote Chrome trace to %s\n",
                     trace_file.c_str());
    }
    std::fprintf(stderr,
                 "batch planning: %zu point(s) in %zu group(s) "
                 "(batch-plan=%s)\n",
                 jobs.size(), groups.size(),
                 batch_plan ? "on" : "off");
    if (flags.getBool("digest-stats", false)) {
        sim::printCacheStats(stderr, plan_cache);
    } else {
        std::fprintf(stderr, "plan cache: %llu hits, %llu misses\n",
                     static_cast<unsigned long long>(
                         plan_cache.hits()),
                     static_cast<unsigned long long>(
                         plan_cache.misses()));
    }
    int interrupted = 0;
    for (const auto &job : jobs)
        if (job.interrupted)
            ++interrupted;
    if (interrupted > 0) {
        std::fprintf(stderr,
                     "sweep interrupted: %d of %zu point(s) skipped; "
                     "partial results flushed\n",
                     interrupted, jobs.size());
        return 130;
    }
    if (failed > 0) {
        std::fprintf(stderr, "%d of %zu sweep point(s) failed\n",
                     failed, jobs.size());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags = CliFlags::parse(argc, argv);
    try {
        return runTool(flags);
    } catch (const std::exception &e) {
        DITILE_FATAL(e.what());
    }
}
