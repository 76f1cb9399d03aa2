/**
 * @file
 * Content-hash-keyed cache of IncrementalPlanner outputs.
 *
 * The per-snapshot SnapshotPlans are the expensive part of planning
 * (damped multi-layer frontier expansion over every snapshot), and
 * they depend only on (graph content, model shape, update algorithm).
 * Accelerators and ablation variants that share those inputs — the
 * seven Fig-11b DiTile variants, or ReaDy and DGNN-Booster's common
 * Re-Alg — can therefore share one plan set. The cache keys on a
 * content hash of the planning inputs, so it works across separately
 * constructed but identical workloads (e.g. sweep grid points that
 * regenerate the same dataset).
 *
 * The cache holds two common/content_cache.hh ContentCache instances,
 * the same rule set the workload digests and the communication-model
 * memo use: lookups lock, misses build outside the lock (the first
 * finished writer wins; losers reuse the published value).
 *
 *   - "plan-cache" (metrics "cache.plan.*"): the snapshot-plan sets
 *     above, with an optional capacity enforced only at the caller's
 *     serial points.
 *   - "chip-phase" (metrics "cache.chip_phase.*"): the link-free half
 *     of a multi-chip run (sim::ChipPhase, see sim/scaleout.hh) —
 *     every chip's RunResult and the egress counts — keyed on the
 *     graph's structure hash, the scale-out spec without its link,
 *     the chip-relevant plan sections and the tracer's plane states.
 *     A link sweep over one (graph, chips, plan) therefore runs the
 *     chips once. Unbounded (setCapacity() bounds only the plan
 *     sets); only runScaleOut() fills it, so single-chip callers —
 *     ditile_serve among them — never grow it.
 *
 * hits(), misses() and size() sum both instances.
 */

#ifndef DITILE_SIM_PLAN_CACHE_HH
#define DITILE_SIM_PLAN_CACHE_HH

#include <cstdio>
#include <memory>
#include <vector>

#include "common/content_cache.hh"
#include "graph/dynamic_graph.hh"
#include "model/incremental.hh"

namespace ditile::sim {

struct ChipPhase;

class PlanCache
{
  public:
    using SnapshotPlans = std::vector<model::SnapshotPlan>;
    using ChipPhaseCache =
        ContentCache<std::uint64_t, std::shared_ptr<const ChipPhase>>;

    /** Build a plan set directly, bypassing any cache. */
    static std::shared_ptr<const SnapshotPlans>
    buildSnapshotPlans(const graph::DynamicGraph &dg,
                       const model::DgnnConfig &config,
                       model::AlgoKind algo);

    /**
     * Content hash of one planning input set: graph structure (every
     * adjacency list of every snapshot), model shape, and algorithm.
     */
    static std::uint64_t planKey(const graph::DynamicGraph &dg,
                                 const model::DgnnConfig &config,
                                 model::AlgoKind algo);

    /** Return the cached plan set for the inputs, planning on miss. */
    std::shared_ptr<const SnapshotPlans>
    obtain(const graph::DynamicGraph &dg,
           const model::DgnnConfig &config, model::AlgoKind algo);

    /**
     * Whether a plan set for `key` is published: a hit prediction for
     * the serving tier's serial admission step.
     */
    bool contains(std::uint64_t key) const { return cache_.contains(key); }

    /**
     * Bound the number of published plan sets; 0 (the default) means
     * unbounded. obtain() never evicts, so a plan set pinned by an
     * in-flight batch is never yanked mid-execution; evictToCapacity()
     * drops the least-recently-touched sets at a serial point and
     * returns their keys so callers can invalidate hit predictions.
     */
    void setCapacity(std::size_t capacity) { cache_.setCapacity(capacity); }
    std::size_t capacity() const { return cache_.capacity(); }
    void touch(std::uint64_t key) { cache_.touch(key); }
    std::vector<std::uint64_t>
    evictToCapacity()
    {
        return cache_.evictToCapacity();
    }

    /** The scale-out chip-phase memo (see file comment). */
    ChipPhaseCache &chipPhases() { return chipPhases_; }

    std::uint64_t
    hits() const
    {
        return cache_.hits() + chipPhases_.hits();
    }

    std::uint64_t
    misses() const
    {
        return cache_.misses() + chipPhases_.misses();
    }

    std::uint64_t evictions() const { return cache_.evictions(); }
    std::size_t size() const { return cache_.size() + chipPhases_.size(); }

    void
    clear()
    {
        cache_.clear();
        chipPhases_.clear();
    }

  private:
    ContentCache<std::uint64_t, std::shared_ptr<const SnapshotPlans>>
        cache_{"plan-cache", "cache.plan"};
    ChipPhaseCache chipPhases_{"chip-phase", "cache.chip_phase"};
};

/**
 * Print one consolidated cache-stats block to `out` covering every
 * caching layer a run exercises: the given PlanCache, the global
 * workload DigestCache, and the global CommModelCache memo. Shared
 * by ditile_sweep --digest-stats and the benches so the stderr
 * format stays in one place (CI parses it).
 */
void printCacheStats(std::FILE *out, const PlanCache &plan_cache);

} // namespace ditile::sim

#endif // DITILE_SIM_PLAN_CACHE_HH
