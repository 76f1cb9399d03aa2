/**
 * @file
 * SlotArrays scratch kernels.
 *
 * The kernels iterate the CSR bulk arrays (rowPtr / adjacency)
 * directly: the only per-element work left in the inner loops is a
 * gather (owners[adj[e]]) or a scatter-increment (cross[idx]++), both
 * branch-free. The former vectorizes as a gather where the target
 * supports it; the latter is inherently serial per element but runs
 * on a dense array with no hash probe and no conditional, which is
 * what the flat layout buys.
 */

#include "workload/slot_arrays.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace ditile::workload {

void
SlotArrays::resize(SnapshotId snapshot_count, int slot_count)
{
    slots = slot_count;
    snapshots = snapshot_count;
    histBins = slot_count / 2 + 1;
    const auto t = static_cast<std::size_t>(snapshot_count);
    const auto s = static_cast<std::size_t>(slot_count);
    slotVertexCount.assign(s, 0);
    degreeSum.assign(t * s, 0);
    cross.assign(t * s * s, 0);
    distanceHist.assign(t * static_cast<std::size_t>(histBins), 0);
}

void
buildEdgeOwnerIndex(const graph::Csr &g, const std::vector<int> &owners,
                    std::vector<std::int32_t> &edge_owner)
{
    const std::vector<VertexId> &adj = g.adjacency();
    const std::size_t m = adj.size();
    edge_owner.resize(m);
    const VertexId *__restrict a = adj.data();
    const int *__restrict own = owners.data();
    std::int32_t *__restrict out = edge_owner.data();
    for (std::size_t e = 0; e < m; ++e)
        out[e] = static_cast<std::int32_t>(
            own[static_cast<std::size_t>(a[e])]);
}

void
countSlotEdges(const graph::Csr &g, const std::vector<int> &owners,
               const std::int32_t *edge_owner, int slots,
               std::uint64_t *deg_sum, std::uint64_t *cross)
{
    const auto s_slots = static_cast<std::size_t>(slots);
    std::memset(deg_sum, 0, s_slots * sizeof(std::uint64_t));
    std::memset(cross, 0, s_slots * s_slots * sizeof(std::uint64_t));

    const std::vector<EdgeId> &row_ptr = g.rowPtr();
    const EdgeId *__restrict rp = row_ptr.data();
    const int *__restrict own = owners.data();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const auto ov = static_cast<std::size_t>(
            own[static_cast<std::size_t>(v)]);
        const EdgeId begin = rp[v];
        const EdgeId end = rp[v + 1];
        deg_sum[ov] += static_cast<std::uint64_t>(end - begin);
        // Accumulate every entry — diagonal included — so the loop
        // carries no compare; the diagonal is discarded below.
        for (EdgeId e = begin; e < end; ++e) {
            ++cross[static_cast<std::size_t>(
                        edge_owner[static_cast<std::size_t>(e)]) *
                        s_slots +
                    ov];
        }
    }
    for (std::size_t d = 0; d < s_slots; ++d)
        cross[d * s_slots + d] = 0;
}

CensusSteps
countSlotCensus(const graph::DynamicGraph &dg,
                const std::vector<int> &owners, int slots,
                SlotArrays &arrays)
{
    DITILE_ASSERT(slots >= 1);
    DITILE_ASSERT(owners.size() ==
                  static_cast<std::size_t>(dg.numVertices()));
    const SnapshotId t_count = dg.numSnapshots();
    const auto s_slots = static_cast<std::size_t>(slots);
    arrays.resize(t_count, slots);
    for (const int owner : owners) {
        DITILE_ASSERT(owner >= 0 && owner < slots,
                      "vertex owner outside the slot range");
        ++arrays.slotVertexCount[static_cast<std::size_t>(owner)];
    }

    // Edge→owner index of the current snapshot, rebuilt only on the
    // scratch path (the patch path touches just the delta's edges).
    std::vector<std::int32_t> edge_owner;
    CensusSteps steps;
    for (SnapshotId t = 0; t < t_count; ++t) {
        const graph::Csr &g = dg.snapshot(t);
        std::uint64_t *deg_sum = arrays.degreeSumRowMut(t);
        std::uint64_t *cross = arrays.crossRowMut(t);

        const bool patch = t > 0 &&
            static_cast<EdgeId>(dg.delta(t).numChanges()) * 4 <=
                g.numAdjacencies();
        if (!patch) {
            buildEdgeOwnerIndex(g, owners, edge_owner);
            countSlotEdges(g, owners, edge_owner.data(), slots, deg_sum,
                           cross);
            ++steps.scratch;
            continue;
        }
        // Contiguous planes: the carry-forward is two memcpys from
        // snapshot t-1's rows.
        std::memcpy(deg_sum, arrays.degreeSumRowMut(t - 1),
                    s_slots * sizeof(std::uint64_t));
        std::memcpy(cross, arrays.crossRowMut(t - 1),
                    s_slots * s_slots * sizeof(std::uint64_t));
        const auto apply = [&](const graph::Edge &e, std::uint64_t up,
                               std::uint64_t down) {
            const auto ou = static_cast<std::size_t>(
                owners[static_cast<std::size_t>(e.first)]);
            const auto ov = static_cast<std::size_t>(
                owners[static_cast<std::size_t>(e.second)]);
            deg_sum[ou] += up - down;
            deg_sum[ov] += up - down;
            if (ou != ov) {
                cross[ou * s_slots + ov] += up - down;
                cross[ov * s_slots + ou] += up - down;
            }
        };
        const graph::GraphDelta &delta = dg.delta(t);
        for (const auto &e : delta.addedEdges())
            apply(e, 1, 0);
        for (const auto &e : delta.removedEdges())
            apply(e, 0, 1);
        ++steps.incremental;
    }
    return steps;
}

void
distanceHistogram(const std::uint64_t *cross, int slots,
                  std::uint64_t *hist)
{
    const auto s_slots = static_cast<std::size_t>(slots);
    const auto bins = s_slots / 2 + 1;
    std::memset(hist, 0, bins * sizeof(std::uint64_t));
    for (int src = 0; src < slots; ++src) {
        for (int dst = 0; dst < slots; ++dst) {
            if (src == dst ||
                cross[static_cast<std::size_t>(src) * s_slots +
                      static_cast<std::size_t>(dst)] == 0) {
                continue;
            }
            const int fwd = (dst - src + slots) % slots;
            ++hist[static_cast<std::size_t>(
                std::min(fwd, slots - fwd))];
        }
    }
}

} // namespace ditile::workload
