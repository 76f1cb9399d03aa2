/**
 * @file
 * ditile_run — the command-line front end of the simulator.
 *
 * Runs one or all accelerators over a dataset or a synthetic
 * workload and reports a table, CSV, or a JSON record per run.
 *
 *   ditile_run --accel=all --dataset=WD
 *   ditile_run --accel=ditile --vertices=5000 --edges=40000 --json
 *   ditile_run --accel=ditile --variant=NoWos --rnn=gru
 *   ditile_run --snapshots-dir evolution_t0.el evolution_t1.el ...
 *
 * Flags:
 *   --accel=ditile|ready|booster|race|mega|all   (default ditile)
 *   --variant=full|NoPs|NoWos|NoRa|OnlyPs|OnlyWos|OnlyRa
 *   --dataset=PM|RD|MB|TW|WD|FK   --scale=F   (Table-1 workloads)
 *   --vertices=N --edges=M --features=F --dissimilarity=D
 *   --snapshots=T --seed=S
 *   --threads=N            (engine thread-pool width; default 1,
 *                           results identical at any width)
 *   --rnn=lstm|gru  --aggregator=gcn|sage|gin
 *   --detailed-tiles       (PE-level compute timing)
 *   --no-overlap           (staged timeline: the same task graph
 *                           plus barrier edges, so overlap never
 *                           reports a longer makespan than staged)
 *   --task-stats           (task-graph schedule summary: per-lane
 *                           occupancy + critical-path tasks; table
 *                           mode prints to stdout, --json/--csv modes
 *                           to stderr)
 *   --plan-out=FILE        (write the ExecutionPlan JSON before
 *                           executing; requires a single --accel)
 *   --plan-in=FILE         (skip planning: execute a previously
 *                           dumped plan against the same workload)
 *   --faults=SPEC          (deterministic fault injection; see
 *                           sim/fault_model.hh for the grammar, e.g.
 *                           "tile@1:r3c2;vlink@0:r1c2;dram@2:ch*".
 *                           Overrides the schedule in --plan-in)
 *   --chips=M              (shard the run over M chips through the
 *                           chunk partitioner + inter-chip links;
 *                           default 1 = the unchanged single-chip
 *                           path. Overrides the spec in --plan-in)
 *   --interchip-gbps=G     (inter-chip link bandwidth, default 100)
 *   --interchip-ns=L       (inter-chip link latency, default 350)
 *   --json / --csv         (output format; default ASCII table)
 *   --trace                (per-snapshot timeline table)
 *   --trace=FILE           (structured Chrome trace_event JSON; open
 *                           in chrome://tracing or Perfetto. Output is
 *                           byte-identical at any --threads width)
 *   --metrics              (hierarchical counter registry + extended
 *                           per-run stats; table mode prints to
 *                           stdout, --json/--csv modes to stderr)
 *   positional args: snapshot edge-list files (loads from disk)
 */

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/ditile_accelerator.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "sim/baselines.hh"
#include "sim/engine.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/scaleout.hh"

using namespace ditile;

namespace {

graph::DynamicGraph
buildWorkload(const CliFlags &flags)
{
    if (!flags.positional().empty()) {
        return graph::readSnapshotFiles(
            "disk", flags.positional(),
            static_cast<int>(flags.getInt("features", 128)));
    }
    if (flags.has("dataset")) {
        graph::DatasetOptions options;
        options.scale = flags.getDouble("scale", 0.0);
        options.numSnapshots = static_cast<SnapshotId>(
            flags.getInt("snapshots", 8));
        options.dissimilarity = flags.getDouble("dissimilarity", 0.0);
        options.seed = static_cast<std::uint64_t>(
            flags.getInt("seed", 0));
        return graph::makeDataset(flags.getString("dataset", "WD"),
                                  options);
    }
    graph::EvolutionConfig config;
    config.name = "synthetic";
    config.numVertices = static_cast<VertexId>(
        flags.getInt("vertices", 2000));
    config.numEdges = flags.getInt("edges", 16000);
    config.numSnapshots = static_cast<SnapshotId>(
        flags.getInt("snapshots", 8));
    config.dissimilarity = flags.getDouble("dissimilarity", 0.10);
    config.featureDim = static_cast<int>(flags.getInt("features",
                                                      128));
    config.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
    return graph::generateDynamicGraph(config);
}

model::DgnnConfig
buildModel(const CliFlags &flags)
{
    model::DgnnConfig config;
    const auto rnn = flags.getString("rnn", "lstm");
    if (rnn == "gru")
        config.rnn = model::RnnKind::Gru;
    else if (rnn != "lstm")
        DITILE_FATAL("unknown --rnn '", rnn, "'");
    const auto agg = flags.getString("aggregator", "gcn");
    if (agg == "sage")
        config.aggregator = model::GnnAggregator::SageMean;
    else if (agg == "gin")
        config.aggregator = model::GnnAggregator::GinSum;
    else if (agg != "gcn")
        DITILE_FATAL("unknown --aggregator '", agg, "'");
    return config;
}

std::vector<std::unique_ptr<sim::Accelerator>>
buildAccelerators(const CliFlags &flags)
{
    const auto which = flags.getString("accel", "ditile");
    auto hw = sim::AcceleratorConfig::defaults();
    std::vector<std::unique_ptr<sim::Accelerator>> accelerators;
    auto add_ditile = [&] {
        auto options = core::DiTileOptions::fromVariant(
            flags.getString("variant", "full"));
        options.detailedTileTiming =
            flags.getBool("detailed-tiles", false);
        accelerators.push_back(
            std::make_unique<core::DiTileAccelerator>(hw, options));
    };
    if (which == "all") {
        accelerators.push_back(sim::makeReady(hw));
        accelerators.push_back(sim::makeDgnnBooster(hw));
        accelerators.push_back(sim::makeRace(hw));
        accelerators.push_back(sim::makeMega(hw));
        add_ditile();
    } else if (which == "ditile") {
        add_ditile();
    } else if (which == "ready") {
        accelerators.push_back(sim::makeReady(hw));
    } else if (which == "booster") {
        accelerators.push_back(sim::makeDgnnBooster(hw));
    } else if (which == "race") {
        accelerators.push_back(sim::makeRace(hw));
    } else if (which == "mega") {
        accelerators.push_back(sim::makeMega(hw));
    } else {
        DITILE_FATAL("unknown --accel '", which, "'");
    }
    return accelerators;
}

std::string
resultToJson(const sim::RunResult &r, const graph::DynamicGraph &dg)
{
    JsonObject obj;
    obj.add("accelerator", r.acceleratorName);
    obj.add("workload", r.workloadName);
    obj.add("vertices", static_cast<long long>(dg.numVertices()));
    obj.add("avg_edges", dg.avgEdges());
    obj.add("snapshots", static_cast<long long>(dg.numSnapshots()));
    obj.add("dissimilarity", dg.avgDissimilarity());
    obj.add("total_cycles", static_cast<long long>(r.totalCycles));
    obj.add("compute_cycles", static_cast<long long>(r.computeCycles));
    obj.add("onchip_comm_cycles",
            static_cast<long long>(r.onChipCommCycles));
    obj.add("offchip_cycles", static_cast<long long>(r.offChipCycles));
    obj.add("config_cycles", static_cast<long long>(r.configCycles));
    obj.add("total_ops",
            static_cast<long long>(r.ops.totalArithmetic()));
    obj.add("dram_bytes", static_cast<long long>(r.dramTraffic.total()));
    obj.add("noc_bytes", static_cast<long long>(r.nocBytes));
    obj.add("energy_pj", r.energy.totalPj());
    obj.add("pe_utilization", r.peUtilization);
    if (r.resilience.enabled) {
        JsonObject res;
        res.add("tile_faults", static_cast<long long>(
                    r.resilience.injectedTileFaults));
        res.add("link_faults", static_cast<long long>(
                    r.resilience.injectedLinkFaults));
        res.add("bypass_faults", static_cast<long long>(
                    r.resilience.injectedBypassFaults));
        res.add("dram_faults", static_cast<long long>(
                    r.resilience.injectedDramFaults));
        res.add("degraded_snapshots", static_cast<long long>(
                    r.resilience.degradedSnapshots));
        res.add("remapped_vertices", static_cast<long long>(
                    r.resilience.remappedVertices));
        res.add("rerouted_messages", static_cast<long long>(
                    r.resilience.reroutedMessages));
        res.add("retried_messages", static_cast<long long>(
                    r.resilience.retriedMessages));
        res.add("noc_retry_backoff_cycles", static_cast<long long>(
                    r.resilience.nocRetryBackoffCycles));
        res.add("dram_retry_requests", static_cast<long long>(
                    r.resilience.dramRetryRequests));
        res.add("dram_retry_bytes", static_cast<long long>(
                    r.resilience.dramRetryBytes));
        res.add("dram_retry_cycles", static_cast<long long>(
                    r.resilience.dramRetryCycles));
        res.add("degraded_capacity_fraction",
                r.resilience.degradedCapacityFraction);
        obj.addRaw("resilience", res.toString(1));
    }
    obj.addStats("stats", r.stats);
    return obj.toString();
}

void
printResilience(const sim::RunResult &r)
{
    const auto &rr = r.resilience;
    Table table(r.acceleratorName + ": resilience report");
    table.setHeader({"Metric", "Value"});
    table.addRow({"injected tile faults",
                  Table::integer(static_cast<long long>(
                      rr.injectedTileFaults))});
    table.addRow({"injected link faults",
                  Table::integer(static_cast<long long>(
                      rr.injectedLinkFaults))});
    table.addRow({"injected bypass faults",
                  Table::integer(static_cast<long long>(
                      rr.injectedBypassFaults))});
    table.addRow({"injected DRAM faults",
                  Table::integer(static_cast<long long>(
                      rr.injectedDramFaults))});
    table.addRow({"degraded snapshots",
                  Table::integer(static_cast<long long>(
                      rr.degradedSnapshots))});
    table.addRow({"remapped vertices",
                  Table::integer(static_cast<long long>(
                      rr.remappedVertices))});
    table.addRow({"rerouted messages",
                  Table::integer(static_cast<long long>(
                      rr.reroutedMessages))});
    table.addRow({"retried messages",
                  Table::integer(static_cast<long long>(
                      rr.retriedMessages))});
    table.addRow({"NoC retry backoff cycles",
                  Table::integer(static_cast<long long>(
                      rr.nocRetryBackoffCycles))});
    table.addRow({"DRAM retry requests",
                  Table::integer(static_cast<long long>(
                      rr.dramRetryRequests))});
    table.addRow({"DRAM retry bytes",
                  Table::integer(static_cast<long long>(
                      rr.dramRetryBytes))});
    table.addRow({"DRAM retry cycles",
                  Table::integer(static_cast<long long>(
                      rr.dramRetryCycles))});
    table.addRow({"degraded capacity fraction",
                  Table::percent(rr.degradedCapacityFraction)});
    table.print();
    if (!rr.events.empty()) {
        Table events(r.acceleratorName + ": recovery events");
        events.setHeader({"t", "Kind", "Detail"});
        for (const auto &e : rr.events) {
            events.addRow({Table::integer(e.snapshot), e.kind,
                           e.detail});
        }
        events.print();
    }
}

void
printTaskStats(const sim::RunResult &r, FILE *stream)
{
    const auto &tg = r.taskGraph;
    Table summary(r.acceleratorName + ": task-graph schedule");
    summary.setHeader({"Metric", "Value"});
    summary.addRow({"tasks", Table::integer(static_cast<long long>(
                                 tg.numTasks))});
    summary.addRow({"edges", Table::integer(static_cast<long long>(
                                 tg.numEdges))});
    summary.addRow({"makespan", Table::integer(static_cast<long long>(
                                    tg.makespan))});
    std::fputs(summary.toString().c_str(), stream);
    Table lanes(r.acceleratorName + ": resource lanes");
    lanes.setHeader({"Lane", "Tasks", "Busy cycles", "Occupancy"});
    for (const auto &lane : tg.lanes) {
        lanes.addRow({lane.name,
                      Table::integer(static_cast<long long>(
                          lane.tasks)),
                      Table::integer(static_cast<long long>(
                          lane.busyCycles)),
                      Table::percent(tg.makespan > 0
                          ? static_cast<double>(lane.busyCycles) /
                              static_cast<double>(tg.makespan)
                          : 0.0)});
    }
    std::fputs(lanes.toString().c_str(), stream);
    Table crit(r.acceleratorName + ": critical path");
    crit.setHeader({"Task", "Kind", "t", "Lane", "Start", "Finish"});
    for (const auto &task : tg.tasks) {
        if (!task.critical)
            continue;
        crit.addRow({Table::integer(task.id), task.kind,
                     Table::integer(task.snapshot), task.lane,
                     Table::integer(static_cast<long long>(task.start)),
                     Table::integer(static_cast<long long>(
                         task.finish))});
    }
    std::fputs(crit.toString().c_str(), stream);
}

int
runTool(const CliFlags &flags)
{
    ThreadPool::setGlobalThreads(
        static_cast<int>(flags.getInt("threads", 1)));
    const auto dg = buildWorkload(flags);
    const auto mconfig = buildModel(flags);

    const bool json = flags.getBool("json", false);
    const bool csv = flags.getBool("csv", false);
    // Bare --trace keeps the legacy timeline table; --trace=FILE
    // additionally captures the structured Chrome trace.
    const auto trace_arg = flags.getString("trace", "");
    const bool trace = trace_arg == "1";
    const std::string trace_file = trace ? "" : trace_arg;
    const bool metrics = flags.getBool("metrics", false);
    Tracer &tracer = Tracer::global();
    if (!trace_file.empty() || metrics) {
        tracer.reset();
        tracer.enable(!trace_file.empty(), metrics);
    }
    const auto plan_in = flags.getString("plan-in", "");
    const auto plan_out = flags.getString("plan-out", "");
    const bool overlap = !flags.getBool("no-overlap", false);
    const bool task_stats = flags.getBool("task-stats", false);
    const bool have_faults = flags.has("faults");
    const auto fault_spec =
        sim::FaultSpec::parse(flags.getString("faults", ""));
    const bool have_chips = flags.has("chips");
    const int chips = static_cast<int>(flags.getInt("chips", 1));
    noc::InterChipLinkConfig link;
    link.bandwidthGbps =
        flags.getDouble("interchip-gbps", link.bandwidthGbps);
    link.latencyNs = flags.getDouble("interchip-ns", link.latencyNs);

    // Collect results first: either replay a dumped plan, or plan +
    // execute the selected accelerators (optionally dumping the plan).
    std::vector<sim::RunResult> results;
    if (!plan_in.empty()) {
        std::ifstream in(plan_in);
        if (!in)
            DITILE_FATAL("cannot open --plan-in '", plan_in, "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        try {
            auto plan = sim::ExecutionPlan::fromJson(buffer.str());
            if (have_faults)
                plan.faults = fault_spec;
            // The command line decides the timeline model, overriding
            // whatever the dumped plan recorded.
            plan.options.overlap = overlap;
            if (have_chips)
                sim::applyScaleOut(plan, dg, chips, link);
            results.push_back(sim::executePlan(dg, plan));
        } catch (const std::runtime_error &e) {
            DITILE_FATAL("failed to load plan '", plan_in, "': ",
                         e.what());
        }
    } else {
        auto accelerators = buildAccelerators(flags);
        if (!plan_out.empty() && accelerators.size() != 1)
            DITILE_FATAL("--plan-out requires a single --accel");
        std::uint64_t run_idx = 0;
        for (auto &acc : accelerators) {
            // Disjoint track group per accelerator run.
            Tracer::setTrackBase(run_idx++ * Tracer::kTracksPerRun);
            auto plan = acc->plan(dg, mconfig);
            if (have_faults)
                plan.faults = fault_spec;
            plan.options.overlap = overlap;
            // Before --plan-out so the dumped JSON records the spec.
            if (chips > 1)
                sim::applyScaleOut(plan, dg, chips, link);
            if (!plan_out.empty()) {
                std::ofstream out(plan_out);
                if (!out)
                    DITILE_FATAL("cannot write --plan-out '", plan_out,
                                 "'");
                out << plan.toJson() << "\n";
            }
            results.push_back(acc->execute(dg, plan));
        }
    }

    Table table("ditile_run: " + dg.name());
    table.setHeader({"Accelerator", "Cycles", "Ops", "DRAM bytes",
                     "NoC bytes", "Energy (uJ)", "PE util"});
    bool first_json = true;
    for (const sim::RunResult &r : results) {
        if (r.resilience.enabled && !json && !csv)
            printResilience(r);
        if (task_stats && r.taskGraph.enabled)
            printTaskStats(r, (json || csv) ? stderr : stdout);
        if (trace && !json) {
            Table timeline(r.acceleratorName +
                           ": per-snapshot timeline");
            timeline.setHeader({"t", "col", "DRAM done", "GNN comp",
                                "spatial comm", "GNN done",
                                "RNN comp", "temporal comm",
                                "RNN done"});
            for (const auto &tr : r.trace) {
                timeline.addRow({
                    Table::integer(tr.snapshot),
                    Table::integer(tr.column),
                    Table::integer(static_cast<long long>(
                        tr.dramDone)),
                    Table::integer(static_cast<long long>(
                        tr.gnnComputeCycles)),
                    Table::integer(static_cast<long long>(
                        tr.spatialCommCycles)),
                    Table::integer(static_cast<long long>(
                        tr.gnnDone)),
                    Table::integer(static_cast<long long>(
                        tr.rnnComputeCycles)),
                    Table::integer(static_cast<long long>(
                        tr.temporalCommCycles)),
                    Table::integer(static_cast<long long>(
                        tr.rnnDone)),
                });
            }
            timeline.print();
        }
        if (json) {
            std::printf("%s%s", first_json ? "[\n" : ",\n",
                        resultToJson(r, dg).c_str());
            first_json = false;
            continue;
        }
        table.addRow({r.acceleratorName,
                      Table::integer(static_cast<long long>(
                          r.totalCycles)),
                      Table::sci(static_cast<double>(
                          r.ops.totalArithmetic())),
                      Table::sci(static_cast<double>(
                          r.dramTraffic.total())),
                      Table::sci(static_cast<double>(r.nocBytes)),
                      Table::num(r.energy.totalPj() / 1e6, 2),
                      Table::percent(r.peUtilization)});
    }
    if (json) {
        std::printf("\n]\n");
    } else if (csv) {
        std::fputs(table.toCsv().c_str(), stdout);
    } else {
        table.print();
    }
    if (!trace_file.empty()) {
        tracer.writeChromeJson(trace_file);
        std::fprintf(stderr, "wrote Chrome trace to %s\n",
                     trace_file.c_str());
        Table rollup("trace rollup by stage");
        rollup.setHeader({"Category", "Name", "Count", "Total dur"});
        for (const auto &row : tracer.rollup()) {
            rollup.addRow({row.cat, row.name,
                           Table::integer(static_cast<long long>(
                               row.count)),
                           Table::integer(static_cast<long long>(
                               row.totalDur))});
        }
        std::fputs(rollup.toString().c_str(),
                   (json || csv) ? stderr : stdout);
    }
    if (metrics) {
        Table registry("metrics registry");
        registry.setHeader({"Metric", "Value"});
        for (const auto &[path, value] : tracer.metrics())
            registry.addRow({path, Table::integer(value)});
        std::fputs(registry.toString().c_str(),
                   (json || csv) ? stderr : stdout);
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
