/**
 * @file
 * Shared execution-engine implementation.
 *
 * ### Plan replay, parallel evaluation, serial semantics
 *
 * The engine executes an ExecutionPlan: every planning decision (the
 * mapping, the policy knobs, the per-snapshot redundancy-free plans,
 * the reconfiguration schedule) is pure data computed before the first
 * simulated cycle. runEngine() is the legacy one-shot entry point and
 * simply assembles a plan (buildEnginePlan) and replays it, so the two
 * paths are bit-identical by construction.
 *
 * Snapshots mapped to different tile columns are independent by
 * construction (paper §4): given the plan's per-snapshot work sets,
 * everything per snapshot — op/byte accounting, the per-tile compute
 * distribution, the detailed tile timing and the NoC replays — is a
 * pure function of that snapshot. Only three things chain across
 * snapshots: the DRAM device state (row buffers + completion cursor),
 * the Re-Link controller's engaged span, and the result accumulators.
 *
 * executePlan therefore runs in stages:
 *
 *   1. *parallel* per-snapshot evaluation into one SnapshotWork slot
 *      per snapshot (snapshot_eval.cc; per-tile sub-models fan out a
 *      second level),
 *   2. *serial* DRAM replay and Re-Link decisions in snapshot order,
 *   3. *parallel* spatial NoC replay for snapshots whose span was
 *      only known after stage 2 (adaptive Re-Link),
 *   4. *serial* merge of every accumulator in canonical snapshot
 *      order, then the timeline.
 *
 * The timeline is one Comp/Comm task DAG (task_graph.cc), annotated
 * with the per-task durations and scheduled by the deterministic list
 * scheduler (scheduler.cc). Overlap mode schedules the DAG as built,
 * so independent phases pipeline. Staged mode (default here,
 * `--no-overlap` in the CLIs) is the same DAG plus barrier edges
 * (addStagedBarriers), so overlap <= staged follows from edge
 * inclusion.
 *
 * All accumulators merged in stage 4 are integers and the per-index
 * slots make the schedule invisible, so results are bit-identical to
 * the single-threaded path at any thread count (asserted by
 * parallel_test.cc). Width comes from ThreadPool::global(), i.e. the
 * --threads flag; the default of 1 runs the loop inline.
 */

#include "sim/engine.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "noc/network.hh"
#include "noc/relink_controller.hh"
#include "sim/engine_internal.hh"
#include "sim/execution_plan.hh"
#include "sim/fault_model.hh"
#include "sim/scaleout.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"
#include "workload/balance.hh"
#include "workload/digest.hh"

namespace ditile::sim {

using detail::DramObs;
using detail::SnapshotWork;

RunResult
executePlan(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
            PlanCache *scaleout_cache)
{
    if (plan.scaleout.enabled())
        return runScaleOut(dg, plan, scaleout_cache);

    const AcceleratorConfig &hw = plan.hw;
    const model::DgnnConfig &model_config = plan.modelConfig;
    const MappingSpec &mapping = plan.mapping;
    const EngineOptions &options = plan.options;

    const SnapshotId num_snapshots = dg.numSnapshots();
    const VertexId num_vertices = dg.numVertices();
    const int feature_dim = dg.featureDim();
    const auto bpv = static_cast<ByteCount>(model_config.bytesPerValue);
    const auto z_bytes =
        static_cast<ByteCount>(model_config.gnnOutputDim()) * bpv;
    const auto h_bytes =
        static_cast<ByteCount>(model_config.lstmHidden) * bpv;

    DITILE_ASSERT(plan.snapshots != nullptr,
                  "execution plan has no snapshot plans");
    // A replayed plan (--plan-in) may have been made for another
    // workload; refuse it with a typed error instead of indexing past
    // the graph.
    const graph::VertexPartition &partition = mapping.spatialOnly
        ? mapping.tilePartition : mapping.rowPartition;
    const auto columns =
        static_cast<SnapshotId>(mapping.snapshotColumn.size());
    if (plan.numSnapshots() != num_snapshots ||
        partition.numVertices() != num_vertices ||
        (!mapping.spatialOnly && columns != num_snapshots)) {
        DITILE_THROW("execution plan does not match workload '",
                     dg.name(), "': plan has ", plan.numSnapshots(),
                     " snapshots, ", partition.numVertices(),
                     " vertices and ", columns,
                     " snapshot columns; workload has ", num_snapshots,
                     " snapshots and ", num_vertices, " vertices");
    }
    const std::vector<model::SnapshotPlan> &snapshot_plans =
        *plan.snapshots;

    dram::DramModel dram_model(hw.dram);

    // Stable address regions so row-buffer locality behaves like a real
    // allocation would.
    dram::RegionAllocator regions;
    const auto feature_bytes_total = static_cast<ByteCount>(num_vertices) *
        static_cast<ByteCount>(feature_dim) * bpv;
    const std::uint64_t weight_base = regions.allocate(16u << 20);
    const std::uint64_t adjacency_base = regions.allocate(
        static_cast<ByteCount>(dg.maxEdges()) * 16 + 4096);
    const std::uint64_t feature_base =
        regions.allocate(feature_bytes_total + 4096);
    const std::uint64_t intermediate_base = regions.allocate(
        static_cast<ByteCount>(num_vertices) * z_bytes * 4 + 4096);
    const std::uint64_t output_base = regions.allocate(
        static_cast<ByteCount>(num_vertices) * (z_bytes + 2 * h_bytes)
        + 4096);

    RunResult result;
    result.acceleratorName = plan.acceleratorName;
    result.workloadName = dg.name();

    const double tile_macs = hw.macsPerTile();
    const OpCount rnn_vertex_macs =
        model::rnnMacsPerVertex(model_config);
    const bool adaptive_relink = plan.relink.adaptive &&
        hw.noc.topology == noc::TopologyKind::Reconfigurable;

    // Resolve the planned vertex->slot assignment once per mapping:
    // the hot loops index a flat array instead of re-checking the
    // mapping kind and remap state per vertex visit.
    const int compute_slots = mapping.spatialOnly ? hw.totalTiles()
                                                  : hw.tileRows;
    std::vector<int> base_owner(static_cast<std::size_t>(num_vertices));
    for (VertexId v = 0; v < num_vertices; ++v) {
        base_owner[static_cast<std::size_t>(v)] = mapping.spatialOnly
            ? mapping.tilePartition.owner(v)
            : mapping.rowPartition.owner(v);
    }
    const bool use_digest = workload::digestEnabled();

    // Per-layer dimension sums for the digest fast paths.
    OpCount sum_in_dims = 0;
    OpCount sum_in_out_dims = 0;
    for (int l = 0; l < model_config.numGcnLayers(); ++l) {
        const auto in_dim = static_cast<OpCount>(
            model_config.gcnInputDim(l, feature_dim));
        const auto out_dim =
            static_cast<OpCount>(model_config.gcnOutputDim(l));
        sum_in_dims += in_dim;
        sum_in_out_dims += in_dim * out_dim;
    }

    ThreadPool &pool = ThreadPool::global();
    std::vector<SnapshotWork> work(
        static_cast<std::size_t>(num_snapshots));

    // Observability gates, read once: a disabled tracer costs two
    // relaxed loads per run and leaves every output byte-identical.
    // Everything recorded below is emitted from *serial* sections out
    // of per-snapshot slots, so traces and extended stats are
    // bit-identical at any thread width (see common/trace.hh).
    Tracer &tracer = Tracer::global();
    const bool obs_trace = tracer.traceEnabled();
    const bool obs_metrics = tracer.metricsEnabled();
    const bool obs = obs_trace || obs_metrics;
    const std::uint64_t track_base = Tracer::trackBase();

    // ---- Fault resolution + degraded-mode BDW re-deal. ----
    // A non-empty fault schedule resolves into per-snapshot fault
    // state; snapshots whose column lost tiles get their vertex
    // assignment re-dealt (Algorithm 2 over the survivors). All fault
    // state is pure per-snapshot data computed up front, so the
    // parallel stages below stay bit-identical at any thread width.
    std::unique_ptr<FaultModel> fault_model;
    if (!plan.faults.empty()) {
        fault_model = std::make_unique<FaultModel>(plan.faults, hw,
                                                   num_snapshots);
    }
    const FaultModel *fm = fault_model.get();
    std::vector<std::vector<int>> owner_remap(
        static_cast<std::size_t>(num_snapshots));
    std::vector<int> dead_slots(
        static_cast<std::size_t>(num_snapshots), 0);
    std::vector<std::uint64_t> remap_moved(
        static_cast<std::size_t>(num_snapshots), 0);
    if (fm) {
        warnOnce("fault injection active for '", dg.name(),
                 "': executing in degraded mode");
        // The digest already holds every snapshot's Eq.-17 loads
        // (bit-identical to computeSnapshotLoads), so the pre-pass
        // shares the one construction with the balancer instead of
        // re-walking L x E per degraded snapshot.
        std::shared_ptr<const workload::LoadDigest> fault_loads;
        if (use_digest) {
            fault_loads = workload::DigestCache::global().loads(
                dg, model_config.numGcnLayers());
        }
        parallelFor(static_cast<std::size_t>(num_snapshots),
                    [&](std::size_t i) {
            const auto t = static_cast<SnapshotId>(i);
            const FaultSet &fs = fm->at(t);
            if (!fs.anyTile())
                return;
            const int col = mapping.spatialOnly
                ? 0 : mapping.snapshotColumn[i];
            std::vector<bool> failed(
                static_cast<std::size_t>(compute_slots), false);
            int dead = 0;
            for (int s = 0; s < compute_slots; ++s) {
                const TileId tile = mapping.spatialOnly
                    ? static_cast<TileId>(s)
                    : static_cast<TileId>(s * hw.tileCols + col);
                if (fs.deadTile[static_cast<std::size_t>(tile)]) {
                    failed[static_cast<std::size_t>(s)] = true;
                    ++dead;
                }
            }
            if (dead == 0)
                return;
            dead_slots[i] = dead;
            std::vector<double> scratch_loads;
            const std::vector<double> *loads;
            if (fault_loads) {
                loads = &fault_loads->snapshotLoads[i];
            } else {
                scratch_loads = workload::computeSnapshotLoads(
                    dg.snapshot(t), model_config.numGcnLayers());
                loads = &scratch_loads;
            }
            auto remapped = workload::remapFailedParts(
                *loads, base_owner, failed, compute_slots);
            for (std::size_t v = 0; v < base_owner.size(); ++v) {
                if (remapped[v] != base_owner[v])
                    ++remap_moved[i];
            }
            owner_remap[i] = std::move(remapped);
        }, &pool);
    }

    // Partition digest for the full-recompute fast paths. It
    // summarizes the *planned* assignment, so degraded snapshots whose
    // owners were re-dealt take the scratch loops regardless.
    std::shared_ptr<const workload::PartitionDigest> pdigest;
    if (use_digest) {
        for (const auto &sp : snapshot_plans) {
            if (sp.fullRecompute ||
                static_cast<VertexId>(sp.rnnVertices.size()) ==
                    num_vertices) {
                pdigest = workload::DigestCache::global().partition(
                    dg, base_owner, compute_slots);
                break;
            }
        }
    }

    // ---- Stage 1: parallel per-snapshot evaluation. ----
    const detail::EvalContext ctx{
        dg, plan, snapshot_plans,
        bpv, z_bytes, h_bytes, feature_bytes_total,
        weight_base, adjacency_base, feature_base, intermediate_base,
        output_base,
        compute_slots, tile_macs, rnn_vertex_macs, adaptive_relink,
        sum_in_dims, sum_in_out_dims,
        base_owner, owner_remap, fm, pdigest.get(), pool};
    parallelFor(static_cast<std::size_t>(num_snapshots),
                [&](std::size_t i) {
        detail::evaluateSnapshot(ctx, i, work[i]);
    }, &pool);

    // ---- Stage 2: serial DRAM replay + Re-Link decisions. ----
    // Row-buffer state and the completion cursor chain snapshot to
    // snapshot; the controller's engaged span likewise.
    noc::RelinkController relink_controller(hw.tileRows);
    std::vector<int> relink_span(
        static_cast<std::size_t>(num_snapshots), hw.noc.reLinkSpan);
    std::vector<Cycle> dram_done(
        static_cast<std::size_t>(num_snapshots));
    std::vector<std::uint64_t> dram_retry_requests(
        static_cast<std::size_t>(num_snapshots), 0);
    std::vector<ByteCount> dram_retry_bytes(
        static_cast<std::size_t>(num_snapshots), 0);
    std::vector<Cycle> dram_retry_cycles(
        static_cast<std::size_t>(num_snapshots), 0);
    std::vector<DramObs> dram_obs(
        obs ? static_cast<std::size_t>(num_snapshots) : 0);
    Cycle dram_cursor = 0;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        SnapshotWork &w = work[i];
        for (auto &request : w.requests)
            request.issueCycle = dram_cursor;
        const Cycle stream_begin = dram_cursor;
        const auto dram_res = dram_model.service(w.requests);
        if (obs) {
            DramObs &d = dram_obs[i];
            d.begin = stream_begin;
            d.requests = w.requests.size();
            d.rowHits = dram_res.rowHits;
            d.rowMisses = dram_res.rowMisses;
            d.rowConflicts = dram_res.rowConflicts;
            d.readBytes = dram_res.readBytes;
            d.writeBytes = dram_res.writeBytes;
        }
        dram_cursor = std::max(dram_cursor, dram_res.completionCycle);
        result.energyEvents.dramBytes += dram_res.totalBytes();
        result.energyEvents.dramActivates +=
            dram_res.rowMisses + dram_res.rowConflicts;
        if (fm && fm->at(t).anyDram()) {
            // Transient channel errors: a seeded fraction of this
            // snapshot's reads fails ECC and is re-read after the
            // primary stream completes. Sampling is keyed off the
            // (plan seed, snapshot) pair only, so the retry set is
            // independent of thread width and replay order.
            const FaultSet &fs = fm->at(t);
            const double p = clamp(
                plan.faults.dramRetryFraction *
                    static_cast<double>(fs.dramFaultChannels) /
                    static_cast<double>(hw.dram.channels),
                0.0, 1.0);
            Rng rng(mix64(plan.faults.seed ^
                          (0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(t) + 1))));
            std::vector<dram::DramRequest> retries;
            for (const auto &request : w.requests) {
                if (request.write || request.bytes == 0)
                    continue;
                if (rng.bernoulli(p))
                    retries.push_back(request);
            }
            if (!retries.empty()) {
                for (auto &request : retries)
                    request.issueCycle = dram_cursor;
                const auto retry_res = dram_model.service(retries);
                if (obs) {
                    DramObs &d = dram_obs[i];
                    d.requests += retries.size();
                    d.rowHits += retry_res.rowHits;
                    d.rowMisses += retry_res.rowMisses;
                    d.rowConflicts += retry_res.rowConflicts;
                    d.readBytes += retry_res.readBytes;
                    d.writeBytes += retry_res.writeBytes;
                }
                dram_retry_requests[i] = retries.size();
                dram_retry_bytes[i] = retry_res.totalBytes();
                dram_retry_cycles[i] =
                    retry_res.completionCycle > dram_cursor
                        ? retry_res.completionCycle - dram_cursor : 0;
                dram_cursor = std::max(dram_cursor,
                                       retry_res.completionCycle);
                result.energyEvents.dramBytes += retry_res.totalBytes();
                result.energyEvents.dramActivates +=
                    retry_res.rowMisses + retry_res.rowConflicts;
            }
        }
        dram_done[i] = dram_cursor;
        if (w.spatialPending) {
            // Stuck-open bypass columns force span-1 routing for the
            // traffic crossing them; the controller prices that into
            // its engage/bypass decision as a per-message blend.
            double stuck_open = 0.0;
            if (fm && hw.tileCols > 0) {
                const auto &nf = fm->at(t).noc;
                int stuck = 0;
                for (int c = 0; c < hw.tileCols; ++c) {
                    if (nf.spanOverride(c) == 1)
                        ++stuck;
                }
                stuck_open = static_cast<double>(stuck) /
                    static_cast<double>(hw.tileCols);
            }
            const auto decision = relink_controller.decide(
                w.spatialDistances, hw.noc.routerLatencyCycles,
                stuck_open);
            relink_span[i] = decision.span;
            result.energyEvents.reconfigEvents +=
                decision.reconfigEvents;
        }
    }

    // ---- Stage 3: deferred spatial replays, span now known. ----
    if (adaptive_relink) {
        parallelFor(static_cast<std::size_t>(num_snapshots),
                    [&](std::size_t i) {
            SnapshotWork &w = work[i];
            if (!w.spatialPending)
                return;
            const auto t = static_cast<SnapshotId>(i);
            const noc::NocFaults *noc_faults =
                fm && fm->at(t).anyNoc() ? &fm->at(t).noc : nullptr;
            noc::NocConfig noc_config = hw.noc;
            noc_config.reLinkSpan = relink_span[i];
            w.spatial = noc::simulateTraffic(noc_config,
                                             std::move(w.spatialMsgs),
                                             noc_faults);
            w.spatialMsgs.clear();
        }, &pool);
    }

    // ---- Stage 4: ordered reduction into the result record. ----
    // Every accumulator is an integer count, merged in ascending
    // snapshot order, so this reproduces the serial loop exactly.
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const SnapshotWork &w = work[i];
        result.ops += w.ops;
        result.dramTraffic += w.dramTraffic;
        result.energyEvents.localBufferBytes += w.localBufferBytes;
        result.nocBytes += w.spatial.totalBytes;
        result.nocBytesSpatial += w.spatial.totalBytes;
        result.energyEvents.nocLinkBytes += w.spatial.hopBytes;
        result.energyEvents.nocRouterBytes += w.spatial.routerBytes;
        if (w.hasTemporal) {
            result.nocBytes += w.temporal.totalBytes;
            result.nocBytesTemporal +=
                w.temporal.bytesByClass[static_cast<int>(
                    noc::TrafficClass::Temporal)];
            result.nocBytesReuse += w.temporal.bytesByClass[
                static_cast<int>(noc::TrafficClass::Reuse)];
            result.energyEvents.nocLinkBytes += w.temporal.hopBytes;
            result.energyEvents.nocRouterBytes += w.temporal.routerBytes;
            if (options.reuseFifoForwarding)
                result.energyEvents.reuseFifoBytes += w.reuseTotal;
        }
    }

    // ---- Timeline: annotate the plan's task DAG with the durations
    // the evaluation stages produced and let the deterministic
    // scheduler propagate ready times. Staged mode is the same DAG
    // plus barrier edges (addStagedBarriers); overlap lets independent
    // phases pipeline and runs the Re-Link reconfiguration chain on
    // its own lane instead of after the last RNN phase. ----
    TaskGraph tg = buildTaskGraph(plan);
    if (!options.overlap)
        addStagedBarriers(tg, plan);
    auto node = [&](int id) -> TaskNode & {
        return tg.nodes[static_cast<std::size_t>(id)];
    };
    result.trace.resize(static_cast<std::size_t>(num_snapshots));
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const SnapshotWork &w = work[i];
        auto &tr = result.trace[i];
        tr.snapshot = t;
        tr.column = mapping.spatialOnly
            ? 0 : mapping.snapshotColumn[i];
        tr.dramDone = dram_done[i];
        tr.gnnComputeCycles = w.gnnCompute;
        tr.rnnComputeCycles = w.rnnCompute;
        tr.spatialCommCycles = w.spatial.makespan;
        tr.temporalCommCycles = w.temporal.makespan;
        result.computeCycles += w.gnnCompute + w.rnnCompute;
        result.onChipCommCycles +=
            w.spatial.makespan + w.temporal.makespan;

        const auto &st = tg.bySnapshot[i];
        node(st.dram).duration =
            dram_done[i] - (t > 0 ? dram_done[i - 1] : 0);
        node(st.gnn).duration = w.gnnCompute;
        node(st.spatial).duration = w.spatial.makespan;
        if (st.temporal != -1)
            node(st.temporal).duration = w.temporal.makespan;
        node(st.rnn).duration = w.rnnCompute;
        node(st.relink).duration = hw.perSnapshotConfigCycles;
    }
    result.configCycles = static_cast<Cycle>(num_snapshots) *
        hw.perSnapshotConfigCycles;

    const ScheduleResult sched = scheduleTaskGraph(tg);
    auto start = [&](int id) {
        return sched.tasks[static_cast<std::size_t>(id)].start;
    };
    auto finish = [&](int id) {
        return sched.tasks[static_cast<std::size_t>(id)].finish;
    };
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        const auto &st = tg.bySnapshot[i];
        // The DRAM chain reproduces dram_done exactly; the GNN phase
        // is complete once compute, spatial traffic and the off-chip
        // stream have all landed.
        result.trace[i].gnnDone = std::max(
            {finish(st.gnn), finish(st.spatial), dram_done[i]});
        result.trace[i].rnnDone = finish(st.rnn);
    }
    result.totalCycles = sched.makespan;

    // Task-graph stats describe overlap schedules only; staged runs
    // report none, so their JSON and metrics carry no task sections.
    if (options.overlap) {
        TaskGraphStats &ts = result.taskGraph;
        ts.enabled = true;
        ts.numTasks = tg.nodes.size();
        ts.numEdges = tg.edges.size();
        ts.makespan = sched.makespan;
        ts.lanes.reserve(tg.lanes.size());
        for (std::size_t li = 0; li < tg.lanes.size(); ++li) {
            ts.lanes.push_back({tg.lanes[li].name(),
                                sched.lanes[li].tasks,
                                sched.lanes[li].busyCycles});
        }
        std::vector<bool> critical(tg.nodes.size(), false);
        for (const int id : sched.criticalPath)
            critical[static_cast<std::size_t>(id)] = true;
        ts.tasks.reserve(tg.nodes.size());
        for (const TaskNode &n : tg.nodes) {
            const auto ni = static_cast<std::size_t>(n.id);
            ts.tasks.push_back(
                {n.id, taskKindToken(n.kind), n.snapshot,
                 tg.lanes[static_cast<std::size_t>(n.lane)].name(),
                 start(n.id), finish(n.id),
                 static_cast<bool>(critical[ni])});
        }
    }
    result.offChipCycles = dram_cursor;

    // ---- Utilization: busy MAC-cycles over the MAC-cycles offered by
    // the tiles assigned to each compute phase (critical-path window x
    // full per-tile array). Imbalance and statically-partitioned idle
    // regions both show up as lost capacity. ----
    const double busy = static_cast<double>(result.ops.totalMacs());
    const int active_tiles = mapping.spatialOnly ? hw.totalTiles()
                                                 : hw.tileRows;
    double capacity = 0.0;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto i = static_cast<std::size_t>(t);
        // Dead tiles offer no capacity; fault-free runs see the
        // unmodified tile count (dead_slots stays all-zero).
        capacity +=
            static_cast<double>(active_tiles - dead_slots[i]) *
            tile_macs *
            (options.gnnMacFraction *
                 static_cast<double>(work[i].gnnCompute) +
             options.rnnMacFraction *
                 static_cast<double>(work[i].rnnCompute));
    }
    result.peUtilization = capacity > 0.0 ? busy / capacity : 0.0;

    // ---- Energy assembly. ----
    result.energyEvents.macs = result.ops.totalMacs();
    result.energyEvents.aluOps = result.ops.elementwiseOps;
    result.energyEvents.activations = result.ops.activationOps;
    // Operand traffic into the MAC arrays after register-level reuse
    // (added on top of any staging traffic the detailed tile model
    // accumulated).
    result.energyEvents.localBufferBytes += result.ops.totalMacs() * 2;
    // Everything staged through the distributed buffers: off-chip data
    // both directions plus inter-tile payloads.
    result.energyEvents.distBufferBytes =
        result.energyEvents.dramBytes * 2 + result.nocBytes;
    // Mode-switch events per snapshot, on top of any adaptive Re-Link
    // toggles counted during the NoC phases.
    result.energyEvents.reconfigEvents +=
        plan.relink.reconfigEventsPerSnapshot *
        static_cast<std::uint64_t>(num_snapshots);
    result.energy = energy::computeEnergy(result.energyEvents,
                                          hw.energyTable);
    result.energy.computePj *= options.computeEnergyScale;
    result.energy.onChipCommPj *= options.onChipEnergyScale;
    result.energy.offChipCommPj *= options.offChipEnergyScale;

    // ---- Resilience report. ----
    if (fm) {
        ResilienceReport &rr = result.resilience;
        rr.enabled = true;
        rr.injectedTileFaults = fm->tileFaults();
        rr.injectedLinkFaults = fm->linkFaults();
        rr.injectedBypassFaults = fm->bypassFaults();
        rr.injectedDramFaults = fm->dramFaults();
        rr.degradedSnapshots = fm->degradedSnapshots();
        double offline = 0.0;
        for (SnapshotId t = 0; t < num_snapshots; ++t) {
            const auto i = static_cast<std::size_t>(t);
            const SnapshotWork &w = work[i];
            const std::uint64_t rerouted = w.spatial.reroutedMessages +
                w.temporal.reroutedMessages;
            const std::uint64_t retried = w.spatial.retriedMessages +
                w.temporal.retriedMessages;
            const Cycle backoff = w.spatial.retryBackoffCycles +
                w.temporal.retryBackoffCycles;
            rr.remappedVertices += remap_moved[i];
            rr.reroutedMessages += rerouted;
            rr.retriedMessages += retried;
            rr.nocRetryBackoffCycles += backoff;
            rr.dramRetryRequests += dram_retry_requests[i];
            rr.dramRetryBytes += dram_retry_bytes[i];
            rr.dramRetryCycles += dram_retry_cycles[i];
            offline += static_cast<double>(dead_slots[i]) /
                static_cast<double>(active_tiles);
            if (dead_slots[i] > 0) {
                rr.events.push_back(
                    {t, "tile-remap",
                     std::to_string(dead_slots[i]) +
                         " compute slot(s) offline; re-dealt " +
                         std::to_string(remap_moved[i]) + " vertices"});
            }
            if (rerouted > 0) {
                rr.events.push_back(
                    {t, "noc-reroute",
                     std::to_string(rerouted) +
                         " message(s) took non-minimal routes around "
                         "dead links"});
            }
            if (retried > 0) {
                rr.events.push_back(
                    {t, "noc-retry",
                     std::to_string(retried) + " message(s) paid " +
                         std::to_string(backoff) +
                         " backoff cycles on unavoidable dead links"});
            }
            if (dram_retry_requests[i] > 0) {
                rr.events.push_back(
                    {t, "dram-retry",
                     std::to_string(dram_retry_requests[i]) +
                         " read request(s) re-streamed (" +
                         std::to_string(dram_retry_bytes[i]) +
                         " bytes)"});
            }
        }
        rr.degradedCapacityFraction = num_snapshots > 0
            ? offline / static_cast<double>(num_snapshots) : 0.0;
    }

    // ---- Detail stats. ----
    result.stats.set("cycles.total",
                     static_cast<double>(result.totalCycles));
    result.stats.set("cycles.compute",
                     static_cast<double>(result.computeCycles));
    result.stats.set("cycles.onchip_comm",
                     static_cast<double>(result.onChipCommCycles));
    result.stats.set("cycles.offchip",
                     static_cast<double>(result.offChipCycles));
    result.stats.set("cycles.config",
                     static_cast<double>(result.configCycles));
    result.stats.set("pe.utilization", result.peUtilization);
    result.stats.set("ops.total",
                     static_cast<double>(result.ops.totalArithmetic()));
    result.stats.set("dram.bytes",
                     static_cast<double>(result.dramTraffic.total()));
    result.stats.set("noc.bytes", static_cast<double>(result.nocBytes));
    result.stats.merge(result.energy.toStats());
    if (fm)
        result.stats.merge(result.resilience.toStats());

    // ---- Observability: extended stats, metrics, trace spans. ----
    // Everything here is re-derived from per-snapshot slots that the
    // ordered reduction already pinned, so the emission is a pure
    // serial walk: bit-identical at any thread width.
    if (obs) {
        std::uint64_t digest_full_fastpath = 0;
        std::uint64_t digest_rnn_fastpath = 0;
        std::uint64_t scratch_snapshots = 0;
        std::uint64_t noc_messages = 0;
        std::uint64_t dram_requests = 0;
        std::uint64_t row_hits = 0;
        std::uint64_t row_misses = 0;
        std::uint64_t row_conflicts = 0;
        ByteCount dram_read = 0;
        ByteCount dram_write = 0;
        std::uint64_t relink_engaged = 0;
        for (SnapshotId t = 0; t < num_snapshots; ++t) {
            const auto i = static_cast<std::size_t>(t);
            const model::SnapshotPlan &splan = snapshot_plans[i];
            const bool digest_snapshot =
                pdigest && owner_remap[i].empty();
            const bool full_fp = digest_snapshot &&
                splan.fullRecompute && !options.detailedTileTiming;
            digest_full_fastpath += full_fp ? 1 : 0;
            digest_rnn_fastpath += digest_snapshot &&
                    static_cast<VertexId>(splan.rnnVertices.size()) ==
                        num_vertices
                ? 1 : 0;
            scratch_snapshots += full_fp ? 0 : 1;
            noc_messages += work[i].spatial.numMessages +
                work[i].temporal.numMessages;
            const DramObs &d = dram_obs[i];
            dram_requests += d.requests;
            row_hits += d.rowHits;
            row_misses += d.rowMisses;
            row_conflicts += d.rowConflicts;
            dram_read += d.readBytes;
            dram_write += d.writeBytes;
            if (adaptive_relink && relink_span[i] > 1)
                ++relink_engaged;
        }
        if (obs_metrics) {
            // Per-run extended stats (appended, so the stats JSON with
            // metrics off keeps today's exact field sequence).
            result.stats.set("noc.spatial_bytes",
                             static_cast<double>(result.nocBytesSpatial));
            result.stats.set("noc.temporal_bytes",
                             static_cast<double>(result.nocBytesTemporal));
            result.stats.set("noc.reuse_bytes",
                             static_cast<double>(result.nocBytesReuse));
            result.stats.set("noc.messages",
                             static_cast<double>(noc_messages));
            result.stats.set("dram.requests",
                             static_cast<double>(dram_requests));
            result.stats.set("dram.row_hits",
                             static_cast<double>(row_hits));
            result.stats.set("dram.row_misses",
                             static_cast<double>(row_misses));
            result.stats.set("dram.row_conflicts",
                             static_cast<double>(row_conflicts));
            result.stats.set("dram.read_bytes",
                             static_cast<double>(dram_read));
            result.stats.set("dram.write_bytes",
                             static_cast<double>(dram_write));
            result.stats.set("engine.digest_full_fastpath",
                             static_cast<double>(digest_full_fastpath));
            result.stats.set("engine.digest_rnn_fastpath",
                             static_cast<double>(digest_rnn_fastpath));
            result.stats.set("engine.scratch_snapshots",
                             static_cast<double>(scratch_snapshots));
            result.stats.set("relink.engaged_snapshots",
                             static_cast<double>(relink_engaged));
            if (result.taskGraph.enabled) {
                result.stats.set(
                    "taskgraph.tasks",
                    static_cast<double>(result.taskGraph.numTasks));
                result.stats.set(
                    "taskgraph.edges",
                    static_cast<double>(result.taskGraph.numEdges));
                result.stats.set(
                    "taskgraph.lanes",
                    static_cast<double>(result.taskGraph.lanes.size()));
                result.stats.set(
                    "taskgraph.critical_tasks",
                    static_cast<double>(sched.criticalPath.size()));
            }
            // Process-wide registry totals across runs.
            tracer.addMetric("engine.runs", 1);
            tracer.addMetric("engine.snapshots", num_snapshots);
            tracer.addMetric("engine.digest_full_fastpath",
                             static_cast<long long>(digest_full_fastpath));
            tracer.addMetric("engine.digest_rnn_fastpath",
                             static_cast<long long>(digest_rnn_fastpath));
            tracer.addMetric("engine.scratch_snapshots",
                             static_cast<long long>(scratch_snapshots));
            tracer.addMetric("noc.spatial_bytes",
                             static_cast<long long>(result.nocBytesSpatial));
            tracer.addMetric("noc.temporal_bytes",
                             static_cast<long long>(
                                 result.nocBytesTemporal));
            tracer.addMetric("noc.reuse_bytes",
                             static_cast<long long>(result.nocBytesReuse));
            tracer.addMetric("dram.row_hits",
                             static_cast<long long>(row_hits));
            tracer.addMetric("dram.row_misses",
                             static_cast<long long>(row_misses));
            tracer.addMetric("dram.row_conflicts",
                             static_cast<long long>(row_conflicts));
            tracer.addMetric("relink.engaged_snapshots",
                             static_cast<long long>(relink_engaged));
            if (result.taskGraph.enabled) {
                tracer.addMetric("taskgraph.scheduled_tasks",
                                 static_cast<long long>(
                                     result.taskGraph.numTasks));
            }
            if (fm) {
                tracer.addMetric("fault.recovery_events",
                                 static_cast<long long>(
                                     result.resilience.events.size()));
            }
        }
        if (obs_trace) {
            const std::string &an = plan.acceleratorName;
            tracer.nameTrack(track_base + Tracer::kDramTrack,
                             an + ": dram");
            tracer.nameTrack(track_base + Tracer::kNocTrack,
                             an + ": noc");
            tracer.nameTrack(track_base + Tracer::kCacheTrack,
                             an + ": cache");
            if (fm) {
                tracer.nameTrack(track_base + Tracer::kFaultTrack,
                                 an + ": faults");
            }
            auto column_track = [&](int col) {
                const auto off = std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(col),
                    Tracer::kTracksPerRun - Tracer::kColumnTrackBase -
                        1);
                return track_base + Tracer::kColumnTrackBase + off;
            };
            std::vector<bool> col_named(
                static_cast<std::size_t>(std::max(1, hw.tileCols)),
                false);
            for (SnapshotId t = 0; t < num_snapshots; ++t) {
                const auto i = static_cast<std::size_t>(t);
                const SnapshotWork &w = work[i];
                const auto &row = result.trace[i];
                const std::uint64_t ct = column_track(row.column);
                if (!col_named[static_cast<std::size_t>(row.column)]) {
                    col_named[static_cast<std::size_t>(row.column)] =
                        true;
                    tracer.nameTrack(
                        ct, mapping.spatialOnly
                            ? an + ": grid"
                            : an + ": col " +
                                std::to_string(row.column));
                }
                // Span geometry: overlap mode reads the scheduler's
                // start times directly; staged mode reconstructs the
                // spans backwards from the modeled completion cycles
                // the timeline assembly pinned. Timestamps are
                // virtual either way.
                Cycle gnn_ts, spat_ts, rnn_ts, temp_ts;
                if (options.overlap) {
                    const auto &st = tg.bySnapshot[i];
                    gnn_ts = start(st.gnn);
                    spat_ts = start(st.spatial);
                    rnn_ts = start(st.rnn);
                    temp_ts = st.temporal != -1 ? start(st.temporal)
                                                : rnn_ts;
                } else {
                    gnn_ts = row.gnnDone - w.gnnCompute;
                    spat_ts = row.gnnDone - w.spatial.makespan;
                    rnn_ts = row.rnnDone - w.rnnCompute;
                    temp_ts = rnn_ts - w.temporal.makespan;
                }
                const Cycle phase_start = std::min(gnn_ts, spat_ts);
                const Cycle begin = std::min(phase_start, temp_ts);

                TraceEvent snap;
                snap.cat = "engine";
                snap.name = "snapshot " + std::to_string(t);
                snap.track = ct;
                snap.ts = begin;
                snap.dur = row.rnnDone - begin;
                snap.ord = t;
                snap.addArg("snapshot", t).addArg("column", row.column);
                tracer.record(std::move(snap));
                if (w.gnnCompute > 0) {
                    TraceEvent e;
                    e.cat = "engine";
                    e.name = "gnn-compute";
                    e.track = ct;
                    e.ts = gnn_ts;
                    e.dur = w.gnnCompute;
                    e.ord = t;
                    tracer.record(std::move(e));
                }
                if (w.spatial.makespan > 0 || w.spatial.totalBytes > 0) {
                    TraceEvent e;
                    e.cat = "noc";
                    e.name = "spatial-comm";
                    e.track = ct;
                    e.ts = spat_ts;
                    e.dur = w.spatial.makespan;
                    e.ord = t;
                    e.addArg("bytes", static_cast<long long>(
                                 w.spatial.totalBytes))
                        .addArg("messages", static_cast<long long>(
                                    w.spatial.numMessages));
                    tracer.record(std::move(e));
                }
                if (w.rnnCompute > 0) {
                    TraceEvent e;
                    e.cat = "engine";
                    e.name = "rnn-compute";
                    e.track = ct;
                    e.ts = rnn_ts;
                    e.dur = w.rnnCompute;
                    e.ord = t;
                    tracer.record(std::move(e));
                }
                if (w.hasTemporal && (w.temporal.makespan > 0 ||
                                      w.temporal.totalBytes > 0)) {
                    TraceEvent e;
                    e.cat = "noc";
                    e.name = "temporal-comm";
                    e.track = ct;
                    e.ts = temp_ts;
                    e.dur = w.temporal.makespan;
                    e.ord = t;
                    e.addArg("temporal_bytes", static_cast<long long>(
                                 w.temporal.bytesByClass[
                                     static_cast<int>(
                                         noc::TrafficClass::Temporal)]))
                        .addArg("reuse_bytes", static_cast<long long>(
                                    w.temporal.bytesByClass[
                                        static_cast<int>(
                                            noc::TrafficClass::Reuse)]));
                    tracer.record(std::move(e));
                }
                // Per-class traffic samples render as counter series.
                TraceEvent cls;
                cls.phase = 'C';
                cls.cat = "noc";
                cls.name = "noc-bytes";
                cls.track = track_base + Tracer::kNocTrack;
                cls.ts = row.gnnDone;
                cls.ord = t;
                cls.addArg("spatial", static_cast<long long>(
                               w.spatial.totalBytes))
                    .addArg("temporal", static_cast<long long>(
                                w.temporal.bytesByClass[
                                    static_cast<int>(
                                        noc::TrafficClass::Temporal)]))
                    .addArg("reuse", static_cast<long long>(
                                w.temporal.bytesByClass[
                                    static_cast<int>(
                                        noc::TrafficClass::Reuse)]));
                tracer.record(std::move(cls));
                if (adaptive_relink) {
                    TraceEvent e;
                    e.phase = 'i';
                    e.cat = "noc";
                    e.name = "relink-span";
                    e.track = track_base + Tracer::kNocTrack;
                    e.ts = phase_start;
                    e.ord = t;
                    e.addArg("span", relink_span[i]);
                    tracer.record(std::move(e));
                }
                const DramObs &d = dram_obs[i];
                TraceEvent stream;
                stream.cat = "dram";
                stream.name = "dram-stream";
                stream.track = track_base + Tracer::kDramTrack;
                stream.ts = d.begin;
                stream.dur = row.dramDone - d.begin;
                stream.ord = t;
                stream.addArg("snapshot", t)
                    .addArg("requests",
                            static_cast<long long>(d.requests))
                    .addArg("row_hits",
                            static_cast<long long>(d.rowHits))
                    .addArg("row_misses",
                            static_cast<long long>(d.rowMisses))
                    .addArg("row_conflicts",
                            static_cast<long long>(d.rowConflicts))
                    .addArg("read_bytes",
                            static_cast<long long>(d.readBytes))
                    .addArg("write_bytes",
                            static_cast<long long>(d.writeBytes));
                tracer.record(std::move(stream));
                if (dram_retry_requests[i] > 0) {
                    TraceEvent e;
                    e.phase = 'i';
                    e.cat = "dram";
                    e.name = "dram-retry";
                    e.track = track_base + Tracer::kDramTrack;
                    e.ts = row.dramDone;
                    e.ord = t;
                    e.addArg("requests", static_cast<long long>(
                                 dram_retry_requests[i]))
                        .addArg("bytes", static_cast<long long>(
                                    dram_retry_bytes[i]))
                        .addArg("cycles", static_cast<long long>(
                                    dram_retry_cycles[i]));
                    tracer.record(std::move(e));
                }
            }
            if (fm) {
                std::uint64_t k = 0;
                for (const auto &ev : result.resilience.events) {
                    TraceEvent e;
                    e.phase = 'i';
                    e.cat = "fault";
                    e.name = ev.kind;
                    e.track = track_base + Tracer::kFaultTrack;
                    e.ts = result.trace[static_cast<std::size_t>(
                                            ev.snapshot)]
                               .rnnDone;
                    e.ord = k++;
                    e.addArg("snapshot", ev.snapshot)
                        .addArg("detail", ev.detail);
                    tracer.record(std::move(e));
                }
            }
        }
    }
    return result;
}

RunResult
runEngine(const graph::DynamicGraph &dg,
          const model::DgnnConfig &model_config,
          const AcceleratorConfig &hw, const MappingSpec &mapping,
          const EngineOptions &options,
          const std::string &accelerator_name)
{
    return executePlan(dg, buildEnginePlan(dg, model_config, hw,
                                           mapping, options,
                                           accelerator_name));
}

} // namespace ditile::sim
