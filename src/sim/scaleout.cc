/**
 * @file
 * ChipCluster execution: shard, replay per chip, schedule the cluster
 * task graph.
 */

#include "sim/scaleout.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/execution_plan.hh"
#include "sim/plan_cache.hh"
#include "sim/scheduler.hh"
#include "sim/task_graph.hh"
#include "workload/chunk_partition.hh"

namespace ditile::sim {

namespace {

/** Cluster node ids are snapshot-major: every snapshot but the last
 * holds `chips` ChipCompute nodes then `chips` InterChipComm nodes;
 * the last snapshot holds only the compute nodes. */
int
computeNodeId(SnapshotId t, int chip, int chips)
{
    return static_cast<int>(t) * 2 * chips + chip;
}

int
commNodeId(SnapshotId t, int chip, int chips)
{
    return static_cast<int>(t) * 2 * chips + chips + chip;
}

/** Chunk owner of a global vertex under the recorded assignment. */
int
chipOfVertex(const ScaleOutSpec &spec, VertexId v)
{
    return spec.chipOfChunk[static_cast<std::size_t>(
        v / spec.chunkSpan)];
}

void
validateSpec(const ScaleOutSpec &spec, VertexId num_vertices)
{
    DITILE_ASSERT(spec.chips > 1, "scale-out run needs chips > 1");
    if (spec.chunkSpan < 1)
        DITILE_THROW("scale-out chunk span must be >= 1");
    const auto expected = static_cast<std::size_t>(
        (num_vertices + spec.chunkSpan - 1) / spec.chunkSpan);
    if (spec.chipOfChunk.size() != expected) {
        DITILE_THROW("scale-out assignment covers ",
                     spec.chipOfChunk.size(), " chunk(s), workload has ",
                     expected);
    }
    for (const int c : spec.chipOfChunk) {
        if (c < 0 || c >= spec.chips)
            DITILE_THROW("scale-out assignment names chip ", c,
                         " outside [0, ", spec.chips, ")");
    }
}

/** Restrict a global vertex partition to a shard (owners kept). */
graph::VertexPartition
restrictPartition(const graph::VertexPartition &global,
                  const std::vector<VertexId> &global_ids)
{
    if (global.numParts() == 0)
        return {};
    graph::VertexPartition shard(
        static_cast<VertexId>(global_ids.size()), global.numParts());
    for (std::size_t i = 0; i < global_ids.size(); ++i) {
        const int owner = global.owner(global_ids[i]);
        if (owner != kInvalidTile)
            shard.assign(static_cast<VertexId>(i), owner);
    }
    return shard;
}

} // namespace

ChipShards::ChipShards(const graph::DynamicGraph &dg,
                       const ScaleOutSpec &spec)
    : dg_(dg), chips_(spec.chips)
{
    const VertexId num_vertices = dg.numVertices();
    const auto t_count = static_cast<std::size_t>(dg.numSnapshots());
    const auto chips_sz = static_cast<std::size_t>(chips_);
    validateSpec(spec, num_vertices);

    // Local ids ascend with global ids inside every chip, so a
    // filtered global row is already a sorted shard row and a
    // canonical global edge maps to a canonical local one.
    chipOf_.resize(static_cast<std::size_t>(num_vertices));
    localId_.resize(static_cast<std::size_t>(num_vertices));
    globalIds_.resize(chips_sz);
    for (VertexId v = 0; v < num_vertices; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        chipOf_[vi] = chipOfVertex(spec, v);
        auto &ids = globalIds_[static_cast<std::size_t>(chipOf_[vi])];
        localId_[vi] = static_cast<VertexId>(ids.size());
        ids.push_back(v);
    }
    for (int c = 0; c < chips_; ++c) {
        if (globalIds_[static_cast<std::size_t>(c)].empty())
            DITILE_THROW("scale-out assignment leaves chip ", c,
                         " empty");
    }

    // One pass over the deltas: intra-chip changes become the shard
    // deltas, cross-chip changes step both endpoints' egress (each
    // chip ships its endpoint's state to the other side).
    changes_.assign(chips_sz, std::vector<Changes>(t_count));
    egress_.assign(t_count * chips_sz, 0);
    built_.assign(chips_sz, false);
    for (std::size_t t = 1; t < t_count; ++t) {
        std::uint64_t *step = egress_.data() + t * chips_sz;
        const auto bucket = [&](const graph::Edge &e, bool added) {
            const auto ui = static_cast<std::size_t>(e.first);
            const auto vi = static_cast<std::size_t>(e.second);
            const auto cu = static_cast<std::size_t>(chipOf_[ui]);
            const auto cv = static_cast<std::size_t>(chipOf_[vi]);
            if (cu == cv) {
                Changes &ch = changes_[cu][t];
                (added ? ch.added : ch.removed)
                    .emplace_back(std::min(localId_[ui], localId_[vi]),
                                  std::max(localId_[ui], localId_[vi]));
            } else {
                // Unsigned wrap-around: summing the steps onto
                // snapshot 0's counts makes ~0 a decrement.
                const std::uint64_t d = added ? 1 : ~std::uint64_t{0};
                step[cu] += d;
                step[cv] += d;
            }
        };
        const graph::GraphDelta &delta =
            dg.delta(static_cast<SnapshotId>(t));
        for (const auto &e : delta.addedEdges())
            bucket(e, true);
        for (const auto &e : delta.removedEdges())
            bucket(e, false);
    }
}

const std::vector<VertexId> &
ChipShards::globalIds(int chip) const
{
    return globalIds_[static_cast<std::size_t>(chip)];
}

/** Append global vertex v's same-chip neighbors in g as local ids;
 * returns the number of cross-chip entries skipped. */
std::uint64_t
ChipShards::appendRow(const graph::Csr &g, int chip, VertexId v,
                      std::vector<VertexId> &adj) const
{
    std::uint64_t skipped = 0;
    for (const VertexId u : g.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(u);
        if (chipOf_[ui] == chip)
            adj.push_back(localId_[ui]);
        else
            ++skipped;
    }
    return skipped;
}

/** Snapshot 0 of chip `chip`'s shard by one filtered row walk; the
 * skipped entries are the chip's snapshot-0 egress. */
graph::Csr
ChipShards::filterRows(int chip)
{
    const graph::Csr &g = dg_.snapshot(0);
    const std::vector<VertexId> &ids = globalIds(chip);
    const auto n = static_cast<VertexId>(ids.size());
    std::vector<EdgeId> row_ptr(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> adj;
    std::uint64_t &egress = egress_[static_cast<std::size_t>(chip)];
    egress = 0;
    for (VertexId lv = 0; lv < n; ++lv) {
        egress += appendRow(g, chip, ids[static_cast<std::size_t>(lv)],
                            adj);
        row_ptr[static_cast<std::size_t>(lv) + 1] =
            static_cast<EdgeId>(adj.size());
    }
    return graph::Csr::fromRows(n, std::move(row_ptr), std::move(adj));
}

/** The next shard snapshot from `prev`: rows of local vertices outside
 * `touched` (sorted) are copied in runs; touched rows are re-filtered
 * from the global snapshot g. */
graph::Csr
ChipShards::patchRows(const graph::Csr &prev, const graph::Csr &g,
                      int chip,
                      const std::vector<VertexId> &touched) const
{
    const std::vector<VertexId> &ids = globalIds(chip);
    const VertexId n = prev.numVertices();
    const std::vector<EdgeId> &prev_ptr = prev.rowPtr();
    const std::vector<VertexId> &prev_adj = prev.adjacency();
    std::vector<EdgeId> row_ptr(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> adj;
    adj.reserve(prev_adj.size() + 2 * touched.size());
    const auto copy_run = [&](VertexId begin, VertexId end) {
        const auto b = static_cast<std::size_t>(begin);
        const auto e = static_cast<std::size_t>(end);
        const EdgeId shift =
            static_cast<EdgeId>(adj.size()) - prev_ptr[b];
        adj.insert(adj.end(), prev_adj.begin() + prev_ptr[b],
                   prev_adj.begin() + prev_ptr[e]);
        for (std::size_t i = b; i < e; ++i)
            row_ptr[i + 1] = prev_ptr[i + 1] + shift;
    };
    VertexId run_begin = 0;
    for (const VertexId lv : touched) {
        copy_run(run_begin, lv);
        appendRow(g, chip, ids[static_cast<std::size_t>(lv)], adj);
        row_ptr[static_cast<std::size_t>(lv) + 1] =
            static_cast<EdgeId>(adj.size());
        run_begin = lv + 1;
    }
    copy_run(run_begin, n);
    return graph::Csr::fromRows(n, std::move(row_ptr), std::move(adj));
}

graph::DynamicGraph
ChipShards::build(int chip)
{
    const auto ci = static_cast<std::size_t>(chip);
    const auto t_count = static_cast<std::size_t>(dg_.numSnapshots());
    std::vector<graph::Csr> snaps;
    std::vector<graph::GraphDelta> deltas;
    snaps.reserve(t_count);
    deltas.reserve(t_count - 1);
    snaps.push_back(filterRows(chip));
    for (std::size_t t = 1; t < t_count; ++t) {
        const Changes &ch = changes_[ci][t];
        deltas.push_back(
            graph::GraphDelta::fromChanges(ch.added, ch.removed));
        graph::Csr next = patchRows(
            snaps.back(), dg_.snapshot(static_cast<SnapshotId>(t)), chip,
            deltas.back().affectedVertices());
        snaps.push_back(std::move(next));
    }
    built_[ci] = true;
    return graph::DynamicGraph(
        dg_.name() + "#chip" + std::to_string(chip), std::move(snaps),
        std::move(deltas), dg_.featureDim());
}

std::vector<std::uint64_t>
ChipShards::egressAdj() const
{
    DITILE_ASSERT(std::all_of(built_.begin(), built_.end(),
                              [](bool b) { return b; }),
                  "egress counts need every chip's shard built");
    std::vector<std::uint64_t> egress = egress_;
    const auto chips_sz = static_cast<std::size_t>(chips_);
    for (std::size_t i = chips_sz; i < egress.size(); ++i)
        egress[i] += egress[i - chips_sz];
    return egress;
}

void
applyScaleOut(ExecutionPlan &plan, const graph::DynamicGraph &dg,
              int chips, const noc::InterChipLinkConfig &link)
{
    if (chips <= 1) {
        plan.scaleout = ScaleOutSpec{};
        return;
    }
    workload::ChunkPartitionOptions options;
    options.chips = chips;
    const workload::ChunkPartition cp =
        workload::buildChunkPartition(dg, options);
    plan.scaleout.chips = chips;
    plan.scaleout.link = link;
    plan.scaleout.chunkSpan = cp.chunkSpan;
    plan.scaleout.chipOfChunk = cp.chipOfChunk;
}

TaskGraph
buildClusterTaskGraph(const ExecutionPlan &plan)
{
    const int chips = plan.scaleout.chips;
    const SnapshotId num_snapshots = plan.numSnapshots();
    TaskGraph g;

    // Lanes in canonical order: chip compute lanes ascending, then the
    // per-chip egress link lanes ascending.
    std::vector<int> chip_lane(static_cast<std::size_t>(chips));
    std::vector<int> link_lane(static_cast<std::size_t>(chips));
    for (int c = 0; c < chips; ++c)
        chip_lane[static_cast<std::size_t>(c)] =
            g.addLane(LaneKind::Chip, c);
    for (int c = 0; c < chips; ++c)
        link_lane[static_cast<std::size_t>(c)] =
            g.addLane(LaneKind::InterChipLink, c);

    // Nodes snapshot-major so ids ascend with t within every kind.
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        for (int c = 0; c < chips; ++c) {
            g.addTask(TaskKind::ChipCompute, t,
                      chip_lane[static_cast<std::size_t>(c)]);
        }
        if (t + 1 < num_snapshots) {
            for (int c = 0; c < chips; ++c) {
                g.addTask(TaskKind::InterChipComm, t,
                          link_lane[static_cast<std::size_t>(c)]);
            }
        }
    }

    // Dependencies. Overlap: a chip's boundary exchange waits only for
    // that chip's own snapshot, and the next snapshot of every *other*
    // chip waits for the exchange — so a finished chip streams its
    // halo while slower chips still compute. Staged (--no-overlap)
    // adds the barrier edges: every exchange waits for every chip's
    // snapshot and gates every chip's next snapshot, a strict superset
    // of the overlap dependencies (staged makespan >= overlap).
    const bool overlap = plan.options.overlap;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        for (int c = 0; c < chips; ++c) {
            if (t > 0) {
                g.addDep(computeNodeId(t - 1, c, chips),
                         computeNodeId(t, c, chips));
            }
            if (t + 1 < num_snapshots) {
                if (overlap) {
                    g.addDep(computeNodeId(t, c, chips),
                             commNodeId(t, c, chips));
                } else {
                    for (int o = 0; o < chips; ++o)
                        g.addDep(computeNodeId(t, o, chips),
                                 commNodeId(t, c, chips));
                }
                for (int o = 0; o < chips; ++o) {
                    if (overlap && o == c)
                        continue;
                    g.addDep(commNodeId(t, c, chips),
                             computeNodeId(t + 1, o, chips));
                }
            }
        }
    }
    return g;
}

RunResult
runScaleOut(const graph::DynamicGraph &dg, const ExecutionPlan &plan,
            PlanCache *cache)
{
    const ScaleOutSpec &spec = plan.scaleout;
    const int chips = spec.chips;
    const auto chips_sz = static_cast<std::size_t>(chips);
    const SnapshotId num_snapshots = dg.numSnapshots();
    ChipShards shards(dg, spec);

    // ---- Build, plan and execute the M per-chip shards serially,
    // dropping each before the next. Shards share `cache` (or a
    // run-local one), keyed per shard by the shard graph's structure
    // hash, so equal shards plan once.
    PlanCache local_cache;
    PlanCache *shard_cache = cache ? cache : &local_cache;
    const std::uint64_t track_base = Tracer::trackBase();
    std::vector<RunResult> chip_results;
    chip_results.reserve(chips_sz);
    for (int c = 0; c < chips; ++c) {
        const graph::DynamicGraph shard = shards.build(c);
        MappingSpec shard_mapping;
        shard_mapping.spatialOnly = plan.mapping.spatialOnly;
        shard_mapping.snapshotColumn = plan.mapping.snapshotColumn;
        shard_mapping.rowPartition =
            restrictPartition(plan.mapping.rowPartition,
                              shards.globalIds(c));
        shard_mapping.tilePartition =
            restrictPartition(plan.mapping.tilePartition,
                              shards.globalIds(c));

        // Disjoint trace track group per chip, restored on exit.
        const Tracer::TrackBaseScope track_scope(
            track_base +
            static_cast<std::uint64_t>(c) * Tracer::kTracksPerRun);
        ExecutionPlan chip_plan = buildEnginePlan(
            shard, plan.modelConfig, plan.hw, shard_mapping,
            plan.options, plan.acceleratorName, shard_cache);
        chip_plan.faults = plan.faults;
        chip_results.push_back(executePlan(shard, chip_plan));
    }
    const std::vector<std::uint64_t> egress_adj = shards.egressAdj();

    // ---- Cluster timeline: annotate the cluster DAG and schedule.
    // ChipCompute durations are the chip's monotonized per-snapshot
    // completion increments (overlap inside a chip can finish a later
    // snapshot's trace row early; the chip still occupies its lane in
    // snapshot order), with the chip's timeline tail (config, DRAM
    // drain) folded into its last snapshot so a comm-free cluster
    // reproduces each chip's own makespan exactly.
    const noc::InterChipLink link(spec.link, plan.hw.frequencyGhz);
    const auto z_bytes =
        static_cast<ByteCount>(plan.modelConfig.gnnOutputDim()) *
        static_cast<ByteCount>(plan.modelConfig.bytesPerValue);
    TaskGraph tg = buildClusterTaskGraph(plan);
    ByteCount interchip_payload = 0;
    ByteCount interchip_wire = 0;
    std::uint64_t interchip_transfers = 0;
    Cycle interchip_busy = 0;
    for (int c = 0; c < chips; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const RunResult &r = chip_results[ci];
        Cycle prev = 0;
        for (SnapshotId t = 0; t < num_snapshots; ++t) {
            const auto ti = static_cast<std::size_t>(t);
            Cycle done = std::max(prev, r.trace[ti].rnnDone);
            if (t + 1 == num_snapshots)
                done = std::max(done, r.totalCycles);
            tg.nodes[static_cast<std::size_t>(
                          computeNodeId(t, c, chips))]
                .duration = done - prev;
            prev = done;
        }
        for (SnapshotId t = 0; t + 1 < num_snapshots; ++t) {
            // The exchange after snapshot t ships the states snapshot
            // t+1's boundary aggregation needs: one GNN-output-wide
            // value per cross-chip adjacency entry sourced on c.
            const ByteCount payload =
                egress_adj[(static_cast<std::size_t>(t) + 1) *
                               chips_sz +
                           ci] *
                z_bytes;
            const Cycle dur = link.transferCycles(payload);
            tg.nodes[static_cast<std::size_t>(commNodeId(t, c, chips))]
                .duration = dur;
            interchip_payload += payload;
            interchip_wire += link.wireBytes(payload);
            interchip_busy += dur;
            if (payload > 0)
                ++interchip_transfers;
        }
    }
    const ScheduleResult sched = scheduleTaskGraph(tg);

    // ---- Merge the per-chip results under the cluster timeline.
    RunResult result;
    result.acceleratorName = plan.acceleratorName;
    result.workloadName = dg.name();
    result.totalCycles = sched.makespan;
    double busy_mac_cycles = 0.0;
    for (const RunResult &r : chip_results) {
        result.computeCycles =
            std::max(result.computeCycles, r.computeCycles);
        result.onChipCommCycles =
            std::max(result.onChipCommCycles, r.onChipCommCycles);
        result.offChipCycles =
            std::max(result.offChipCycles, r.offChipCycles);
        result.configCycles =
            std::max(result.configCycles, r.configCycles);
        result.ops += r.ops;
        result.dramTraffic += r.dramTraffic;
        result.energyEvents += r.energyEvents;
        result.energy += r.energy;
        result.nocBytes += r.nocBytes;
        result.nocBytesTemporal += r.nocBytesTemporal;
        result.nocBytesSpatial += r.nocBytesSpatial;
        result.nocBytesReuse += r.nocBytesReuse;
        result.stats.merge(r.stats);
        busy_mac_cycles +=
            r.peUtilization * static_cast<double>(r.totalCycles);
        // Chip-major trace: chip 0's T rows, then chip 1's, ...
        result.trace.insert(result.trace.end(), r.trace.begin(),
                            r.trace.end());
        if (r.resilience.enabled) {
            const auto &in = r.resilience;
            auto &out = result.resilience;
            out.enabled = true;
            out.injectedTileFaults += in.injectedTileFaults;
            out.injectedLinkFaults += in.injectedLinkFaults;
            out.injectedBypassFaults += in.injectedBypassFaults;
            out.injectedDramFaults += in.injectedDramFaults;
            out.degradedSnapshots += in.degradedSnapshots;
            out.remappedVertices += in.remappedVertices;
            out.reroutedMessages += in.reroutedMessages;
            out.retriedMessages += in.retriedMessages;
            out.nocRetryBackoffCycles += in.nocRetryBackoffCycles;
            out.dramRetryRequests += in.dramRetryRequests;
            out.dramRetryBytes += in.dramRetryBytes;
            out.dramRetryCycles += in.dramRetryCycles;
            out.degradedCapacityFraction +=
                in.degradedCapacityFraction /
                static_cast<double>(chips);
            out.events.insert(out.events.end(), in.events.begin(),
                              in.events.end());
        }
    }
    // Cluster utilization: busy MACs over M chips for the cluster
    // makespan (a stalled chip waiting on the interconnect counts as
    // idle capacity, which is the point of the metric).
    result.peUtilization = sched.makespan > 0
        ? busy_mac_cycles /
            (static_cast<double>(sched.makespan) *
             static_cast<double>(chips))
        : 0.0;

    std::uint64_t cross_adj = 0;
    for (const std::uint64_t e : egress_adj)
        cross_adj += e;
    result.stats.set("scaleout.chips", static_cast<double>(chips));
    result.stats.set("scaleout.cross_adjacencies",
                     static_cast<double>(cross_adj));
    result.stats.set("interchip.payload_bytes",
                     static_cast<double>(interchip_payload));
    result.stats.set("interchip.wire_bytes",
                     static_cast<double>(interchip_wire));
    result.stats.set("interchip.transfers",
                     static_cast<double>(interchip_transfers));
    result.stats.set("interchip.busy_cycles",
                     static_cast<double>(interchip_busy));

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
             sched.tasks[ni].start, sched.tasks[ni].finish,
             static_cast<bool>(critical[ni])});
    }
    return result;
}

} // namespace ditile::sim
