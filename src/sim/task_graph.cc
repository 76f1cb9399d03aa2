/**
 * @file
 * Structural task-graph construction from an ExecutionPlan.
 */

#include "sim/task_graph.hh"

#include <algorithm>

#include "sim/execution_plan.hh"
#include "sim/scaleout.hh"

namespace ditile::sim {

const char *
taskKindToken(TaskKind kind)
{
    switch (kind) {
    case TaskKind::GnnCompute: return "gnn";
    case TaskKind::RnnCompute: return "rnn";
    case TaskKind::SpatialComm: return "spatial";
    case TaskKind::TemporalComm: return "temporal";
    case TaskKind::DramStream: return "dram";
    case TaskKind::RelinkReconfig: return "relink";
    case TaskKind::ChipCompute: return "chip";
    case TaskKind::InterChipComm: return "interchip";
    }
    return "gnn";
}

const char *
laneKindToken(LaneKind kind)
{
    switch (kind) {
    case LaneKind::TileColumn: return "tile-col";
    case LaneKind::RnnEngine: return "rnn-engine";
    case LaneKind::NocColumn: return "noc-col";
    case LaneKind::TemporalLink: return "temporal-link";
    case LaneKind::DramChannel: return "dram";
    case LaneKind::RelinkController: return "relink";
    case LaneKind::Chip: return "chip";
    case LaneKind::InterChipLink: return "interchip";
    }
    return "tile-col";
}

std::string
ResourceLane::name() const
{
    return std::string(laneKindToken(kind)) + ":" +
        std::to_string(index);
}

int
TaskGraph::addLane(LaneKind kind, int index)
{
    lanes.push_back({kind, index});
    return static_cast<int>(lanes.size()) - 1;
}

int
TaskGraph::addTask(TaskKind kind, SnapshotId snapshot, int lane)
{
    TaskNode node;
    node.id = static_cast<int>(nodes.size());
    node.kind = kind;
    node.snapshot = snapshot;
    node.lane = lane;
    nodes.push_back(node);
    return node.id;
}

void
TaskGraph::addDep(int src, int dst)
{
    edges.emplace_back(src, dst);
}

TaskGraph
buildTaskGraph(const ExecutionPlan &plan)
{
    // Scale-out plans schedule whole chips, not tile columns: the
    // cluster-level DAG is the plan's task graph.
    if (plan.scaleout.enabled())
        return buildClusterTaskGraph(plan);
    TaskGraph g;
    const SnapshotId num_snapshots = plan.numSnapshots();
    const MappingSpec &mapping = plan.mapping;
    const bool spatial_only = mapping.spatialOnly;
    // Tolerant column lookup: serialization may build the graph for
    // plans whose mapping has not been validated against a workload.
    auto col_of = [&](SnapshotId t) {
        const auto i = static_cast<std::size_t>(t);
        return spatial_only || i >= mapping.snapshotColumn.size()
            ? 0 : mapping.snapshotColumn[i];
    };
    auto boundary_at = [&](SnapshotId t) {
        return !spatial_only && t > 0 && col_of(t - 1) != col_of(t);
    };

    // ---- Lanes, in a canonical order derived from the mapping only:
    // the singleton devices first, then the used columns ascending.
    const int dram_lane = g.addLane(LaneKind::DramChannel, 0);
    const int relink_lane = g.addLane(LaneKind::RelinkController, 0);
    std::vector<int> used_cols;
    for (SnapshotId t = 0; t < num_snapshots; ++t)
        used_cols.push_back(col_of(t));
    if (used_cols.empty())
        used_cols.push_back(0);
    std::sort(used_cols.begin(), used_cols.end());
    used_cols.erase(std::unique(used_cols.begin(), used_cols.end()),
                    used_cols.end());
    const int max_col = used_cols.back();
    std::vector<int> tile_lane(static_cast<std::size_t>(max_col) + 1,
                               -1);
    std::vector<int> rnn_lane(static_cast<std::size_t>(max_col) + 1,
                              -1);
    std::vector<int> noc_lane(static_cast<std::size_t>(max_col) + 1,
                              -1);
    for (const int c : used_cols) {
        const auto ci = static_cast<std::size_t>(c);
        tile_lane[ci] = g.addLane(LaneKind::TileColumn, c);
        if (!spatial_only)
            rnn_lane[ci] = g.addLane(LaneKind::RnnEngine, c);
        noc_lane[ci] = g.addLane(LaneKind::NocColumn, c);
    }
    int temporal_lane = -1;
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        if (boundary_at(t)) {
            temporal_lane = g.addLane(LaneKind::TemporalLink, 0);
            break;
        }
    }

    // ---- Tasks, snapshot-major so ids ascend with t in every kind.
    g.bySnapshot.resize(static_cast<std::size_t>(num_snapshots));
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto ci = static_cast<std::size_t>(col_of(t));
        auto &st = g.bySnapshot[static_cast<std::size_t>(t)];
        st.dram = g.addTask(TaskKind::DramStream, t, dram_lane);
        st.gnn = g.addTask(TaskKind::GnnCompute, t, tile_lane[ci]);
        st.spatial = g.addTask(TaskKind::SpatialComm, t, noc_lane[ci]);
        if (boundary_at(t)) {
            st.temporal = g.addTask(TaskKind::TemporalComm, t,
                                    temporal_lane);
        }
        st.rnn = g.addTask(TaskKind::RnnCompute, t,
                           spatial_only ? tile_lane[0] : rnn_lane[ci]);
        // Always present so the structure is independent of the
        // hardware's per-snapshot switch cost (which may be zero).
        st.relink = g.addTask(TaskKind::RelinkReconfig, t, relink_lane);
    }

    // ---- Dependencies: the data edges only, i.e.
    //   - the DRAM stream chain (device cursor),
    //   - the Re-Link reconfiguration chain (controller sequencer),
    //   - RNN[t-1] -> RNN[t] (the temporal hidden-state chain),
    //   - GNN/Spatial/DRAM[t] -> RNN[t] (the snapshot's own inputs),
    //   - TemporalComm[t] between RNN[t-1] and RNN[t] on boundaries,
    //   - under spatial-only mapping, RNN[t-1] -> GNN/Spatial[t]
    //     (snapshots run sequentially over the whole grid),
    //   - under globalGnnBarrier, every GNN/Spatial/DRAM task ->
    //     RNN[0]; the RNN chain propagates the barrier onward.
    // Column occupancy needs no edges here: same-column GNN tasks are
    // all ready at cycle 0 and their lane pops them in id (=
    // snapshot) order. Staged mode's stricter occupancy is
    // addStagedBarriers.
    for (SnapshotId t = 0; t < num_snapshots; ++t) {
        const auto &st = g.bySnapshot[static_cast<std::size_t>(t)];
        if (t > 0) {
            const auto &pv =
                g.bySnapshot[static_cast<std::size_t>(t) - 1];
            g.addDep(pv.dram, st.dram);
            if (spatial_only) {
                g.addDep(pv.rnn, st.gnn);
                g.addDep(pv.rnn, st.spatial);
            }
            if (st.temporal != -1)
                g.addDep(pv.rnn, st.temporal);
            g.addDep(pv.rnn, st.rnn);
            g.addDep(pv.relink, st.relink);
        }
        g.addDep(st.gnn, st.rnn);
        g.addDep(st.spatial, st.rnn);
        g.addDep(st.dram, st.rnn);
        if (st.temporal != -1)
            g.addDep(st.temporal, st.rnn);
    }
    if (!spatial_only && plan.options.globalGnnBarrier &&
        num_snapshots > 0) {
        const int rnn0 = g.bySnapshot[0].rnn;
        for (SnapshotId t = 1; t < num_snapshots; ++t) {
            const auto &st = g.bySnapshot[static_cast<std::size_t>(t)];
            g.addDep(st.gnn, rnn0);
            g.addDep(st.spatial, rnn0);
            g.addDep(st.dram, rnn0);
        }
    }
    return g;
}

void
addStagedBarriers(TaskGraph &g, const ExecutionPlan &plan)
{
    const auto &snapshots = g.bySnapshot;
    if (snapshots.empty())
        return;
    // A column takes its next snapshot only once the previous one's
    // whole GNN phase (compute, spatial traffic and off-chip stream)
    // is done. Spatial-only mapping needs nothing here: its staged
    // chain is already the rnn[t-1] -> gnn/spatial[t] edges.
    if (!plan.mapping.spatialOnly) {
        std::vector<const TaskGraph::SnapshotTasks *> prev_on_lane(
            g.lanes.size(), nullptr);
        for (const auto &st : snapshots) {
            const TaskGraph::SnapshotTasks *&pv = prev_on_lane[
                static_cast<std::size_t>(
                    g.nodes[static_cast<std::size_t>(st.gnn)].lane)];
            if (pv) {
                for (const int src : {pv->gnn, pv->spatial, pv->dram}) {
                    g.addDep(src, st.gnn);
                    g.addDep(src, st.spatial);
                }
            }
            pv = &st;
        }
    }
    // The config budget is paid serially after the last RNN phase.
    g.addDep(snapshots.back().rnn, snapshots.front().relink);
}

} // namespace ditile::sim
