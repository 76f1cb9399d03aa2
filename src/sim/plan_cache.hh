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
 * The memo itself is one common/content_cache.hh ContentCache, the
 * same rule set the workload digests and the communication-model
 * memo use: lookups lock, misses plan outside the lock (the first
 * finished writer wins; losers reuse the published set), and an
 * optional capacity is enforced only at the caller's serial points.
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

class PlanCache
{
  public:
    using SnapshotPlans = std::vector<model::SnapshotPlan>;

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

    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    std::uint64_t evictions() const { return cache_.evictions(); }
    std::size_t size() const { return cache_.size(); }
    void clear() { cache_.clear(); }

  private:
    ContentCache<std::uint64_t, std::shared_ptr<const SnapshotPlans>>
        cache_{"plan-cache", "cache.plan"};
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
