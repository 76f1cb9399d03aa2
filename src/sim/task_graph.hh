/**
 * @file
 * Comp/Comm task DAG built from an ExecutionPlan.
 *
 * Every single-chip run is timed on this graph: explicit dependencies
 * between typed tasks bound to per-device resource lanes, so GNN
 * compute, RNN compute, NoC traffic, DRAM streaming and Re-Link
 * reconfiguration overlap whenever their data dependencies allow (the
 * pipelining idea of PiPAD / DGNN-Booster applied to the paper's
 * timing model). The staged timeline is the same graph plus the
 * barrier edges of addStagedBarriers(), so overlap <= staged follows
 * from edge inclusion.
 *
 * The graph is *structural*: it is a pure function of the plan (the
 * mapping, the policy knobs and the snapshot count), never of realized
 * durations or fault outcomes. Durations are filled in by the engine
 * after its evaluation stages, and the deterministic list scheduler
 * (scheduler.hh) turns the annotated graph into start/finish times.
 *
 * Canonical task ids are snapshot-major: for each snapshot t the tasks
 * are enumerated DramStream, GnnCompute, SpatialComm, TemporalComm
 * (boundary snapshots only), RnnCompute, RelinkReconfig. Ids therefore
 * ascend with t within every kind, which is what makes the scheduler's
 * (ready_cycle, id) tie-break reproduce snapshot order on every lane.
 */

#ifndef DITILE_SIM_TASK_GRAPH_HH
#define DITILE_SIM_TASK_GRAPH_HH

#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace ditile::sim {

struct ExecutionPlan;

/** What a task models; one per engine sub-model phase. */
enum class TaskKind
{
    GnnCompute,     ///< Critical-tile GNN phase of one snapshot.
    RnnCompute,     ///< Critical-tile RNN phase of one snapshot.
    SpatialComm,    ///< GNN-phase spatial NoC traffic.
    TemporalComm,   ///< RNN-boundary temporal + reuse NoC traffic.
    DramStream,     ///< Off-chip stream of one snapshot.
    RelinkReconfig, ///< Per-snapshot Re-Link switch budget.
    ChipCompute,    ///< One chip's full snapshot in a scale-out
                    ///< cluster (sim/scaleout.hh).
    InterChipComm,  ///< Cross-chip boundary exchange after one
                    ///< snapshot.
};

/** Canonical serialization token ("gnn", "rnn", "spatial", ...). */
const char *taskKindToken(TaskKind kind);

/**
 * Exclusive device a task occupies while it runs. Lanes serialize the
 * tasks bound to them; distinct lanes run concurrently.
 */
enum class LaneKind
{
    TileColumn,      ///< One tile column's MAC arrays (the whole grid
                     ///< under spatial-only mapping).
    RnnEngine,       ///< One column's RNN issue slot. Neither
                     ///< timeline mode re-blocks a column on its RNN
                     ///< phase (the temporal chain already serializes
                     ///< RNN globally), so RNN compute gets its own
                     ///< lane regardless of rnnSeparateResource.
    NocColumn,       ///< One column's share of the NoC.
    TemporalLink,    ///< Cross-column boundary links. Never binds: the
                     ///< RNN chain already serializes boundaries.
    DramChannel,     ///< The off-chip channel group (the DRAM model
                     ///< serializes streams through one cursor).
    RelinkController,///< The Re-Link controller's reconfig sequencer.
    Chip,            ///< One whole chip of a scale-out cluster.
    InterChipLink,   ///< One chip's egress inter-chip link.
};

/** Canonical serialization token ("tile-col", "rnn-engine", ...). */
const char *laneKindToken(LaneKind kind);

/** One exclusive resource lane. */
struct ResourceLane
{
    LaneKind kind = LaneKind::TileColumn;
    int index = 0; ///< Column / channel id; 0 for singleton devices.

    /** Canonical display name, e.g. "tile-col:3" or "dram:0". */
    std::string name() const;
};

/** One schedulable task. */
struct TaskNode
{
    int id = 0;
    TaskKind kind = TaskKind::GnnCompute;
    SnapshotId snapshot = 0;
    int lane = 0;       ///< Index into TaskGraph::lanes.
    Cycle duration = 0; ///< Filled by the engine; 0 until annotated.
};

/**
 * The full DAG: lanes, nodes in canonical id order, and dependency
 * edges (src must finish before dst may start) in emission order.
 */
struct TaskGraph
{
    std::vector<ResourceLane> lanes;
    std::vector<TaskNode> nodes;
    std::vector<std::pair<int, int>> edges;

    /** Task ids of one snapshot; -1 where the task does not exist. */
    struct SnapshotTasks
    {
        int dram = -1;
        int gnn = -1;
        int spatial = -1;
        int temporal = -1;
        int rnn = -1;
        int relink = -1;
    };
    std::vector<SnapshotTasks> bySnapshot;

    int addLane(LaneKind kind, int index);
    int addTask(TaskKind kind, SnapshotId snapshot, int lane);
    void addDep(int src, int dst);
};

/**
 * Build the structural task graph for a plan: the true data
 * dependencies only, which is the overlap timeline. Durations are
 * zero; the engine annotates them from its evaluation stages. These
 * are the edges plan JSON serializes, in both timeline modes.
 */
TaskGraph buildTaskGraph(const ExecutionPlan &plan);

/**
 * Turn a single-chip buildTaskGraph() result into the staged
 * (`--no-overlap`) timeline by adding barrier edges:
 *   - column mappings: the previous same-column snapshot's GNN,
 *     spatial and DRAM tasks gate this snapshot's GNN and spatial
 *     tasks (column occupancy with DRAM gating);
 *   - every mapping: RNN[T-1] -> RelinkReconfig[0], so the config
 *     budget is paid serially after the last RNN phase.
 * Staged is the overlap DAG plus edges, so with the same durations
 * the overlap makespan is never longer. The single-chip counterpart
 * of buildClusterTaskGraph's `--no-overlap` edges.
 */
void addStagedBarriers(TaskGraph &graph, const ExecutionPlan &plan);

} // namespace ditile::sim

#endif // DITILE_SIM_TASK_GRAPH_HH
