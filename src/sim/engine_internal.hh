/**
 * @file
 * Engine internals shared by the evaluation, timing and observability
 * translation units (not part of the public sim API).
 *
 * The engine is split along its stage seams: snapshot_eval.cc owns
 * the parallel per-snapshot evaluation (stage 1), engine.cc owns the
 * serial device replays and the task-graph timeline (both modes), and
 * everything they exchange lives here as plain data.
 */

#ifndef DITILE_SIM_ENGINE_INTERNAL_HH
#define DITILE_SIM_ENGINE_INTERNAL_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "dram/dram_model.hh"
#include "noc/network.hh"
#include "sim/engine.hh"

namespace ditile {
class ThreadPool;
namespace workload {
struct PartitionDigest;
}
} // namespace ditile

namespace ditile::sim {

struct ExecutionPlan;
class FaultModel;

namespace detail {

/**
 * Dense slot x slot -> bytes accumulator for message aggregation.
 *
 * Replaces the previous hash-map accumulator: the hot loops touch the
 * same few slot pairs millions of times, so a flat array add is one
 * indexed load/store instead of a hash probe. The drain order is a
 * deterministic hash scatter of the (src, dst) tile pair: the greedy
 * link scheduler in noc::simulateTraffic models simultaneous
 * injection from all tiles, which an interleaved message sequence
 * represents and a per-source burst (plain ascending order) does not.
 * Unlike the old unordered_map drain, the permutation is pinned by
 * mix64 rather than inherited from stdlib hash internals, so the
 * sequence is reproducible across platforms and accumulation orders.
 * Callers guard the diagonal where it is meaningless (same-slot
 * gathers stay on-tile) and map slots to tile ids at emit time.
 *
 * The touched-cell list makes every post-accumulation pass
 * O(nonzero) instead of O(slots^2): add() records the first write to
 * each cell, emit() drains only that list (the sort order pins the
 * output regardless of list order), and reset() zeroes only what was
 * written, so draining a sparse snapshot no longer rescans the full
 * matrix (ROADMAP item 5's SoA drain).
 */
class DenseTraffic
{
  public:
    explicit DenseTraffic(int slots) { reset(slots); }

    /** Re-dimension and zero, reusing retained storage (arena use). */
    void
    reset(int slots)
    {
        if (slots == slots_) {
            // Arena path: only the touched cells are dirty.
            for (const std::size_t idx : touched_)
                bytes_[idx] = 0;
        } else {
            slots_ = slots;
            bytes_.assign(static_cast<std::size_t>(slots) *
                              static_cast<std::size_t>(slots),
                          0);
        }
        touched_.clear();
    }

    void
    add(int src, int dst, ByteCount bytes)
    {
        if (bytes == 0)
            return;
        const std::size_t idx =
            static_cast<std::size_t>(src) *
                static_cast<std::size_t>(slots_) +
            static_cast<std::size_t>(dst);
        ByteCount &cell = bytes_[idx];
        if (cell == 0)
            touched_.push_back(idx);
        cell += bytes;
    }

    /** Nonzero cells, i.e. messages emit() will produce. */
    std::size_t
    nonzero() const
    {
        std::size_t count = 0;
        for (const std::size_t idx : touched_)
            count += bytes_[idx] != 0 ? 1 : 0;
        return count;
    }

    /**
     * Zero the diagonal cells, dropping them from the touched list.
     * Lets hot loops accumulate every (src, dst) pair branch-free and
     * discard the meaningless same-slot cells once, after the loop.
     * Must run after accumulation finishes (a later add() to a
     * cleared cell would re-enter the touched list).
     */
    void
    clearDiagonal()
    {
        std::size_t kept = 0;
        for (const std::size_t idx : touched_) {
            const auto s = static_cast<std::size_t>(slots_);
            if (idx / s == idx % s)
                bytes_[idx] = 0;
            else
                touched_[kept++] = idx;
        }
        touched_.resize(kept);
    }

    /**
     * Flush nonzero cells in mix64(src tile, dst tile) order, mapping
     * each endpoint through its own slot->tile function (the temporal
     * boundary places src and dst in different tile columns). The
     * mix64 sort makes the touched-list accumulation order
     * invisible: the drain order is a deterministic hash scatter of
     * the (src, dst) tile pair, which models simultaneous injection
     * for the greedy link scheduler and is reproducible across
     * platforms and thread widths.
     */
    template <typename SrcTile, typename DstTile>
    void
    emit(std::vector<noc::Message> &out, noc::TrafficClass cls,
         Cycle inject, SrcTile &&src_tile, DstTile &&dst_tile) const
    {
        std::vector<std::pair<std::uint64_t, noc::Message>> cells;
        cells.reserve(touched_.size());
        for (const std::size_t idx : touched_) {
            const ByteCount bytes = bytes_[idx];
            if (bytes == 0)
                continue;
            const auto s = static_cast<std::size_t>(slots_);
            noc::Message m;
            m.src = src_tile(static_cast<int>(idx / s));
            m.dst = dst_tile(static_cast<int>(idx % s));
            m.bytes = bytes;
            m.injectCycle = inject;
            m.cls = cls;
            // mix64 is a bijection, so keys are unique and the
            // sort needs no tie-break.
            const std::uint64_t key = mix64(
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(m.src))
                 << 32) |
                static_cast<std::uint32_t>(m.dst));
            cells.emplace_back(key, m);
        }
        std::sort(cells.begin(), cells.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        out.reserve(out.size() + cells.size());
        for (const auto &[key, m] : cells)
            out.push_back(m);
    }

  private:
    int slots_ = 0;
    std::vector<ByteCount> bytes_;
    std::vector<std::size_t> touched_; ///< First-write cell indices.
};

/** Cycles to execute `macs` MACs on `units` MAC units. */
inline Cycle
computeCycles(OpCount macs, double units)
{
    if (macs == 0)
        return 0;
    DITILE_ASSERT(units >= 1.0, "compute phase has no MAC units");
    return static_cast<Cycle>(
        static_cast<double>(macs) / units + 0.999999);
}

/**
 * Everything one snapshot contributes to the run, produced by the
 * parallel evaluation stage and merged in canonical order afterwards.
 */
struct SnapshotWork
{
    model::OpsBreakdown ops;
    model::DramBreakdown dramTraffic;

    /** Off-chip requests; issue cycles patched in the serial stage. */
    std::vector<dram::DramRequest> requests;

    Cycle gnnCompute = 0;
    Cycle rnnCompute = 0;
    ByteCount localBufferBytes = 0; ///< Detailed-tile staging traffic.

    /** Pending spatial messages (adaptive Re-Link defers the replay). */
    std::vector<noc::Message> spatialMsgs;
    std::vector<int> spatialDistances; ///< Vertical hops per message.
    bool spatialPending = false;
    noc::NocResult spatial;

    bool hasTemporal = false;
    noc::NocResult temporal;
    ByteCount reuseTotal = 0;
};

/**
 * Per-snapshot DRAM observability, filled in the serial replay so the
 * trace can attribute row behavior per stream.
 */
struct DramObs
{
    Cycle begin = 0;
    std::uint64_t requests = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    ByteCount readBytes = 0;
    ByteCount writeBytes = 0;
};

/**
 * Read-only inputs the per-snapshot evaluation needs, resolved once
 * per run by executePlan. All referenced objects outlive the stage-1
 * parallelFor.
 */
struct EvalContext
{
    const graph::DynamicGraph &dg;
    const ExecutionPlan &plan;
    const std::vector<model::SnapshotPlan> &snapshotPlans;

    ByteCount bpv = 0;
    ByteCount zBytes = 0;
    ByteCount hBytes = 0;
    ByteCount featureBytesTotal = 0;
    std::uint64_t weightBase = 0;
    std::uint64_t adjacencyBase = 0;
    std::uint64_t featureBase = 0;
    std::uint64_t intermediateBase = 0;
    std::uint64_t outputBase = 0;

    int computeSlots = 0;
    double tileMacs = 0.0;
    OpCount rnnVertexMacs = 0;
    bool adaptiveRelink = false;
    OpCount sumInDims = 0;
    OpCount sumInOutDims = 0;

    const std::vector<int> &baseOwner;
    const std::vector<std::vector<int>> &ownerRemap;
    const FaultModel *faultModel = nullptr;
    const workload::PartitionDigest *pdigest = nullptr;
    ThreadPool &pool;
};

/**
 * Stage 1 for one snapshot: accounting, off-chip request synthesis,
 * compute distribution, NoC replays. Pure per-snapshot function of
 * the context; runs under parallelFor. A thread-local scratch arena
 * (slot accumulators, traffic matrices, changed bitmaps) is reused
 * across snapshots instead of reallocating per iteration.
 */
void evaluateSnapshot(const EvalContext &ctx, std::size_t i,
                      SnapshotWork &w);

} // namespace detail

} // namespace ditile::sim

#endif // DITILE_SIM_ENGINE_INTERNAL_HH
