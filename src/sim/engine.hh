/**
 * @file
 * Shared phase-level execution engine.
 *
 * All five accelerator models (DiTile-DGNN and the four baselines) are
 * instances of this engine with different mappings, algorithms,
 * topologies and resource policies, exactly mirroring the paper's
 * iso-resource comparison: identical multiplier counts, buffer
 * capacities and bandwidth, different architecture styles.
 *
 * The engine executes one snapshot at a time through three coupled
 * sub-models:
 *   1. the DRAM model streams the snapshot's off-chip traffic
 *      (overlapped with on-chip execution, paper §7.1),
 *   2. per-tile MAC counts give compute cycles (critical tile),
 *   3. the NoC model replays the generated spatial/temporal/reuse
 *      messages for on-chip communication time (overlapped with
 *      compute).
 * Temporal dependencies chain the RNN phases across snapshots; column
 * occupancy serializes snapshots mapped to the same tiles.
 */

#ifndef DITILE_SIM_ENGINE_HH
#define DITILE_SIM_ENGINE_HH

#include <vector>

#include "graph/dynamic_graph.hh"
#include "graph/partition.hh"
#include "model/dgnn_config.hh"
#include "model/incremental.hh"
#include "sim/accel_config.hh"
#include "sim/run_result.hh"

namespace ditile::sim {

/**
 * How work is placed onto the tile grid.
 */
struct MappingSpec
{
    /**
     * Vertex -> row partition (temporal/hybrid parallelism): the tile
     * executing vertex v of snapshot t is (rowPartition[v],
     * snapshotColumn[t]).
     */
    graph::VertexPartition rowPartition;

    /** Snapshot -> column assignment, size T. */
    std::vector<int> snapshotColumn;

    /**
     * Pure spatial parallelism (MEGA): vertices partitioned over the
     * whole grid, every tile processes every snapshot, snapshots run
     * sequentially, and no temporal communication leaves a tile.
     */
    bool spatialOnly = false;

    /** Vertex -> tile partition used when spatialOnly. */
    graph::VertexPartition tilePartition;
};

/**
 * Policy knobs distinguishing the accelerator styles.
 */
struct EngineOptions
{
    model::AlgoKind algo = model::AlgoKind::DiTileAlg;
    model::AccountingParams accounting;

    /**
     * Fraction of each tile's MAC array usable by the GNN / RNN
     * kernels. 1.0 means the whole (flexibly shared) array; static
     * kernel partitioning (ReaDy, RACE) uses fractions < 1.
     */
    double gnnMacFraction = 1.0;
    double rnnMacFraction = 1.0;

    /**
     * Descriptive only: the accelerator has a dedicated RNN engine
     * (ReaDy, DGNN-Booster, RACE). No timing reads it. Under column
     * mappings the task DAG runs every RNN phase on its own lane, so
     * it never blocks a tile column in either timeline mode. Kept
     * because plan format 2 serializes it as "rnn_separate_resource".
     */
    bool rnnSeparateResource = false;

    /**
     * Global synchronization between the GNN phase of every snapshot
     * and the RNN chain (DGNN-Booster's per-batch dispatch).
     */
    bool globalGnnBarrier = false;

    /**
     * Reuse traffic between consecutive snapshots is forwarded through
     * the reuse FIFO path (DiTile); otherwise reused state re-streams
     * from the distributed buffers with spatial-class routing.
     */
    bool reuseFifoForwarding = false;

    /** Re-Link reconfigurations charged per snapshot (DiTile only). */
    std::uint64_t reconfigEventsPerSnapshot = 0;

    /**
     * Fraction of the algorithmic off-chip traffic that actually
     * crosses the memory bus. ReaDy's ReRAM processing-in-memory
     * absorbs a large share in-situ (< 1); MEGA's whole-grid spatial
     * partitioning duplicates boundary fetches (> 1). The Figure-8
     * accounting stays unscaled — this models the architecture, not
     * the algorithm.
     */
    double dramTrafficScale = 1.0;

    /**
     * Technology/implementation energy multipliers relative to the
     * baseline 45 nm ASIC table: analog ReRAM MACs pay ADC/DAC
     * conversion, FPGA fabric pays LUT overhead per op, crossbars and
     * long-haul meshes pay more per on-chip byte, ReRAM cell
     * reprogramming and board DRAM pay more per off-chip byte.
     */
    double computeEnergyScale = 1.0;
    double onChipEnergyScale = 1.0;
    double offChipEnergyScale = 1.0;

    /**
     * Time compute phases with the detailed tile microarchitecture
     * model (per-vertex list scheduling on the PE array, PPU drain,
     * local-buffer stalls) instead of the flat ops/MACs conversion.
     * Slower; intra-tile imbalance and dispatch overheads appear.
     */
    bool detailedTileTiming = false;

    /**
     * Let the Re-Link controller pick the vertical bypass span per
     * snapshot from the spatial traffic's distance profile instead of
     * using the static NocConfig::reLinkSpan (Reconfigurable topology
     * only). Controller switch toggles are charged as reconfiguration
     * events.
     */
    bool adaptiveRelink = false;

    /**
     * Timeline mode. Both modes schedule one task DAG: typed tasks
     * (GNN/RNN compute, spatial/temporal comm, DRAM streaming, Re-Link
     * reconfig) on per-device resource lanes, with the same per-task
     * durations. Staged mode (false, `--no-overlap` in the CLIs) adds
     * barrier edges to that DAG (addStagedBarriers in task_graph.hh);
     * overlap schedules it as built, so independent phases pipeline.
     * Staged is the overlap DAG plus edges, so overlap never reports a
     * longer makespan. Only overlap runs fill RunResult::taskGraph.
     * The library default stays staged, unlike the CLIs, because the
     * benches and the perfbench digests are recorded on it.
     */
    bool overlap = false;
};

/**
 * Execute one DGNN inference and return the full result record.
 */
RunResult runEngine(const graph::DynamicGraph &dg,
                    const model::DgnnConfig &model_config,
                    const AcceleratorConfig &hw,
                    const MappingSpec &mapping,
                    const EngineOptions &options,
                    const std::string &accelerator_name);

} // namespace ditile::sim

#endif // DITILE_SIM_ENGINE_HH
