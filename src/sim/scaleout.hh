/**
 * @file
 * Multi-chip scale-out: shard one global ExecutionPlan over a
 * ChipCluster of M DiTile chips behind an inter-chip interconnect.
 *
 * The global plan carries a ScaleOutSpec (plan_format 3): the chip
 * count, the InterChipLink parameters, and the recorded chunk→chip
 * assignment from the DGC-style chunk partitioner
 * (workload/chunk_partition.hh). Execution shards the workload into
 * per-chip induced subgraphs (ChipShards, built from the snapshot
 * deltas), instantiates one per-chip ExecutionPlan
 * each (restricting the global mapping to the shard and re-deriving
 * the redundancy-free snapshot plans through the shared PlanCache,
 * keyed per shard by its structure hash), executes every chip through
 * the unchanged single-chip engine, and assembles the cluster timeline
 * as a task graph: ChipCompute nodes chained per chip, InterChipComm
 * nodes on per-chip link lanes carrying the boundary state between
 * consecutive snapshots. The deterministic list scheduler propagates
 * ready times, so cross-chip traffic overlaps other chips' compute
 * exactly like on-chip comm overlaps compute in the PR-7 DAG; with
 * --no-overlap the comm nodes gain barrier edges and the timeline
 * degrades to compute-all / exchange-all phases (never faster).
 *
 * Host cost: O(V + changes) to index and bucket the deltas, then per
 * chip O(shard V + shard adjacency + touched degree) per snapshot to
 * build its shard, plus that chip's plan and execute. Chips run one at
 * a time (build, plan, execute, drop): executePlan already spreads a
 * chip's snapshots over the pool, so running chips in parallel gained
 * nothing when measured and raised peak RSS (ROADMAP item 2(c)).
 *
 * Determinism: chips execute in serial chip order (each chip's engine
 * parallelism is already bit-identical at any width), the partitioner
 * assignment is recorded in the plan, and the cluster schedule is the
 * deterministic scheduler's output — so M-chip results are
 * bit-identical at any --threads width. chips == 1 plans carry no
 * ScaleOutSpec section and never enter this layer, keeping the
 * single-chip path byte-identical.
 */

#ifndef DITILE_SIM_SCALEOUT_HH
#define DITILE_SIM_SCALEOUT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "graph/dynamic_graph.hh"
#include "noc/interchip.hh"

namespace ditile::sim {

struct ExecutionPlan;
struct RunResult;
struct TaskGraph;
class PlanCache;

/**
 * Scale-out section of an ExecutionPlan. Default-constructed means
 * single chip: the plan serializes as format 2 and executes through
 * the unchanged single-chip path.
 */
struct ScaleOutSpec
{
    int chips = 1;
    noc::InterChipLinkConfig link;

    /** Vertices per chunk of the recorded assignment. */
    VertexId chunkSpan = 1;

    /** Chunk -> chip assignment recorded by the partitioner. */
    std::vector<int> chipOfChunk;

    bool enabled() const { return chips > 1; }
};

/**
 * The per-chip induced subgraphs of a chips > 1 workload. Chip c's
 * shard holds the vertices the recorded assignment places on c,
 * renumbered to local ids in ascending global order, and every
 * intra-chip edge.
 *
 * The shards come from the snapshot deltas, not from edge rescans.
 * Construction indexes the vertex universe (O(V)) and walks every
 * dg.delta(t) once (O(changes)): intra-chip changes become the shard
 * deltas in local ids, and cross-chip changes step the egress counts.
 * build(c) makes snapshot 0 by one filtered walk of the chip's global
 * rows. Each later snapshot copies the previous shard rows and
 * re-filters only the vertices that the chip's delta touches, so it
 * costs O(shard V + shard adjacency + touched global degree) with no
 * sort. The shard deltas go to DynamicGraph as they are, with no
 * re-diff.
 *
 * This relies on dg.delta(t) being the exact difference of snapshots
 * t-1 and t, as the partition-digest patch path already does.
 */
class ChipShards
{
  public:
    /**
     * Index dg under `spec`; dg must outlive this object. Throws
     * InputError when the assignment does not cover dg's vertices,
     * names a chip outside the spec, or leaves a chip empty.
     */
    ChipShards(const graph::DynamicGraph &dg, const ScaleOutSpec &spec);

    int chips() const { return chips_; }

    /** Global ids of chip c's vertices, ascending; index = local id. */
    const std::vector<VertexId> &globalIds(int chip) const;

    /** Chip c's shard graph, named "<workload>#chip<c>". */
    graph::DynamicGraph build(int chip);

    /**
     * Cross-chip adjacency entries sourced on each chip per snapshot,
     * row-major [T * chips]: a cross-chip edge counts once on each
     * endpoint's chip. Valid once build() has run for every chip
     * (snapshot 0's counts fall out of its filtered walk).
     */
    std::vector<std::uint64_t> egressAdj() const;

  private:
    /** One chip's intra-chip changes into one snapshot, local ids. */
    struct Changes
    {
        std::vector<graph::Edge> added;
        std::vector<graph::Edge> removed;
    };

    std::uint64_t appendRow(const graph::Csr &g, int chip, VertexId v,
                            std::vector<VertexId> &adj) const;
    graph::Csr filterRows(int chip);
    graph::Csr patchRows(const graph::Csr &prev, const graph::Csr &g,
                         int chip,
                         const std::vector<VertexId> &touched) const;

    const graph::DynamicGraph &dg_;
    int chips_;
    std::vector<int> chipOf_;
    std::vector<VertexId> localId_;
    std::vector<std::vector<VertexId>> globalIds_;
    std::vector<std::vector<Changes>> changes_; ///< [chip][t]
    /** Row 0: snapshot 0's counts per chip; row t >= 1: the signed
     * step into t, stored wrapped. */
    std::vector<std::uint64_t> egress_;
    std::vector<bool> built_;
};

/**
 * Attach a scale-out spec to a plan: runs the chunk partitioner over
 * the workload and records the assignment. chips <= 1 clears the spec
 * (plan serializes and executes exactly as before). Throws InputError
 * on infeasible configurations (more chips than vertices).
 */
void applyScaleOut(ExecutionPlan &plan, const graph::DynamicGraph &dg,
                   int chips, const noc::InterChipLinkConfig &link);

/**
 * Execute a chips > 1 plan as a ChipCluster (see file comment).
 * `cache` (optional) shares the per-shard snapshot-plan sets across
 * chips and across repeated runs; when null a run-local cache still
 * shares them across this run's chips.
 */
RunResult runScaleOut(const graph::DynamicGraph &dg,
                      const ExecutionPlan &plan, PlanCache *cache);

/**
 * Structural cluster-level task graph for a chips > 1 plan: per-chip
 * ChipCompute chains plus InterChipComm nodes on per-chip link lanes,
 * pure function of (chips, snapshot count, overlap). Durations are
 * zero; runScaleOut annotates them.
 */
TaskGraph buildClusterTaskGraph(const ExecutionPlan &plan);

} // namespace ditile::sim

#endif // DITILE_SIM_SCALEOUT_HH
