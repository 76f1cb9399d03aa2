/**
 * @file
 * SlotArrays: flat structure-of-arrays backing store for the per-slot
 * workload summaries (ROADMAP item 5's SoA rework).
 *
 * The PartitionDigest used to hold vector<vector<...>> per-snapshot
 * rows; every consumer walked them through two indirections and every
 * patch step re-allocated rows. SlotArrays keeps the same counters as
 * three contiguous planes plus the static per-slot census:
 *
 *       slotVertexCount   [S]            (static across snapshots)
 *       degreeSum         [T * S]        row t = snapshot t
 *       cross             [T * S * S]    row-major (src, dst) per t
 *       distanceHist      [T * (S/2+1)]  ring-minimal distance bins
 *
 * so a snapshot's row is one pointer + length, patch steps are one
 * memcpy + delta walk, and the scratch kernels below iterate the CSR
 * arrays directly (unit-stride over adjacency, accumulate-then-merge)
 * instead of constructing per-vertex spans.
 *
 * The companion edge→owner index materializes owner(adj[e]) for every
 * adjacency entry once per (snapshot, assignment): the CSR-style
 * "edge→slot" array that turns the cross-owner counting loop into a
 * branch-free scatter-increment over a dense int32 array. All
 * counters are integers, so every kernel here is bit-identical to the
 * retired map-of-struct walks by construction.
 */

#ifndef DITILE_WORKLOAD_SLOT_ARRAYS_HH
#define DITILE_WORKLOAD_SLOT_ARRAYS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hh"
#include "graph/dynamic_graph.hh"

namespace ditile::workload {

/** Flat SoA planes for per-slot, per-snapshot workload counters. */
struct SlotArrays
{
    int slots = 0;
    SnapshotId snapshots = 0;
    int histBins = 0;

    std::vector<std::uint64_t> slotVertexCount; ///< [S]
    std::vector<std::uint64_t> degreeSum;       ///< [T*S]
    std::vector<std::uint64_t> cross;           ///< [T*S*S]
    std::vector<std::uint64_t> distanceHist;    ///< [T*histBins]

    /** Dimension and zero every plane for T snapshots x S slots. */
    void resize(SnapshotId snapshot_count, int slot_count);

    std::span<const std::uint64_t>
    degreeSumRow(SnapshotId t) const
    {
        const auto s = static_cast<std::size_t>(slots);
        return {degreeSum.data() + static_cast<std::size_t>(t) * s, s};
    }

    std::span<const std::uint64_t>
    crossRow(SnapshotId t) const
    {
        const auto ss = static_cast<std::size_t>(slots) *
            static_cast<std::size_t>(slots);
        return {cross.data() + static_cast<std::size_t>(t) * ss, ss};
    }

    std::span<const std::uint64_t>
    distanceHistRow(SnapshotId t) const
    {
        const auto b = static_cast<std::size_t>(histBins);
        return {distanceHist.data() + static_cast<std::size_t>(t) * b,
                b};
    }

    std::uint64_t *
    degreeSumRowMut(SnapshotId t)
    {
        return degreeSum.data() +
            static_cast<std::size_t>(t) * static_cast<std::size_t>(slots);
    }

    std::uint64_t *
    crossRowMut(SnapshotId t)
    {
        return cross.data() + static_cast<std::size_t>(t) *
            static_cast<std::size_t>(slots) *
            static_cast<std::size_t>(slots);
    }

    std::uint64_t *
    distanceHistRowMut(SnapshotId t)
    {
        return distanceHist.data() +
            static_cast<std::size_t>(t) *
            static_cast<std::size_t>(histBins);
    }
};

/**
 * Materialize the edge→owner index: edge_owner[e] = owners[adj[e]]
 * for every stored adjacency entry e of g. One unit-stride gather
 * pass; the output array is indexed by the same CSR edge positions as
 * g.adjacency().
 */
void buildEdgeOwnerIndex(const graph::Csr &g,
                         const std::vector<int> &owners,
                         std::vector<std::int32_t> &edge_owner);

/**
 * Scratch slot-census kernel over one snapshot: per-slot degree sums
 * and the directed cross-owner adjacency counts (cross[src*S+dst] =
 * entries (center v, neighbor u) with owner(u)=src, owner(v)=dst,
 * src != dst). Counts every adjacency entry unconditionally into the
 * dense matrix, then zeroes the diagonal — same final state as the
 * retired branchy walk, with no branch in the inner loop.
 *
 * deg_sum must have S entries and cross S*S; both are overwritten.
 */
void countSlotEdges(const graph::Csr &g, const std::vector<int> &owners,
                    const std::int32_t *edge_owner, int slots,
                    std::uint64_t *deg_sum, std::uint64_t *cross);

/** How many snapshots a census patched from the delta vs. counted
 * from scratch. */
struct CensusSteps
{
    std::uint64_t incremental = 0;
    std::uint64_t scratch = 0;
};

/**
 * Slot census of every snapshot of dg: resizes `arrays` to T x S and
 * fills slotVertexCount, degreeSum and cross (distanceHist stays
 * zero). Snapshot 0, and any snapshot whose delta is large
 * (changes * 4 > adjacencies), runs the countSlotEdges scratch walk;
 * every other snapshot copies row t-1 forward (two memcpys) and
 * applies +/-1 per changed edge of dg.delta(t). The counters are
 * integers and an exact delta changes each by exactly its edges, so
 * both paths give the same rows. O(V + E) per scratch snapshot,
 * O(S^2 + changes) per patched one.
 */
CensusSteps countSlotCensus(const graph::DynamicGraph &dg,
                            const std::vector<int> &owners, int slots,
                            SlotArrays &arrays);

/**
 * Ring-minimal vertical-distance histogram over the nonzero
 * off-diagonal cells of one cross matrix. hist must have S/2+1
 * entries; overwritten.
 */
void distanceHistogram(const std::uint64_t *cross, int slots,
                       std::uint64_t *hist);

} // namespace ditile::workload

#endif // DITILE_WORKLOAD_SLOT_ARRAYS_HH
