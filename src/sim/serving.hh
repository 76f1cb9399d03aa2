/**
 * @file
 * Re-entrant plan+execute entry for concurrent tenants.
 *
 * The batch CLIs call Accelerator::plan()/execute() from one thread
 * per accelerator object, which lets the concrete accelerators keep
 * convenience state from the last run (DiTileAccelerator::lastPlan()
 * et al.). The serving tier breaks that assumption: one logical
 * accelerator answers queries for many tenants concurrently inside a
 * parallelFor batch.
 *
 * ConcurrentRunner restores re-entrancy by construction instead of by
 * locking: every infer() builds a *fresh* accelerator instance from
 * the injected factory, so all mutable planner state is confined to
 * the call. The expensive part of planning — the per-snapshot
 * SnapshotPlans — is shared through the internally synchronized
 * PlanCache, so a fresh instance per call costs only the cheap
 * front-end passes on cache hits. executePlan() itself is already
 * safe for concurrent callers: it is a pure replay over const inputs,
 * and its internal parallelFor nests safely in the global pool.
 *
 * Every infer() call plans and executes. The serving tier avoids the
 * call altogether for a query on a quiet tenant by reusing that
 * tenant's last result (see "Result reuse" in serve/server.hh).
 */

#ifndef DITILE_SIM_SERVING_HH
#define DITILE_SIM_SERVING_HH

#include <atomic>
#include <functional>
#include <memory>

#include "sim/accelerator.hh"
#include "sim/fault_model.hh"
#include "sim/plan_cache.hh"

namespace ditile::sim {

/** Builds a fresh accelerator instance per call. */
using AcceleratorFactory =
    std::function<std::unique_ptr<Accelerator>()>;

/**
 * Thread-safe inference front end over one accelerator family and one
 * shared PlanCache.
 */
class ConcurrentRunner
{
  public:
    explicit ConcurrentRunner(AcceleratorFactory factory);

    /**
     * Plan (through the shared cache) and execute one inference.
     * Safe to call concurrently from pool workers; results are a pure
     * function of (dg, config, faults), independent of interleaving.
     * A non-empty fault spec is spliced into the execution plan; a
     * spec that does not resolve against the hardware throws
     * InputError from inside execution — typed and recoverable, which
     * the serving tier turns into `err exec` plus breaker feedback.
     */
    RunResult infer(const graph::DynamicGraph &dg,
                    const model::DgnnConfig &config,
                    const FaultSpec &faults = FaultSpec{});

    /**
     * Whether a plan for these inputs is already cached. Only
     * meaningful from serial program points: under concurrency the
     * answer may be stale by the time infer() runs.
     */
    bool planned(const graph::DynamicGraph &dg,
                 const model::DgnnConfig &config) const;

    /**
     * The cache key infer() will use for these inputs, or 0 while the
     * algorithm is still unlatched (empty cache, nothing predicted).
     * Serial points only, like planned().
     */
    std::uint64_t planKeyFor(const graph::DynamicGraph &dg,
                             const model::DgnnConfig &config) const;

    /**
     * The update algorithm latched from the first built plan, as an
     * int for checkpointing; -1 while unknown. latchAlgo() restores a
     * checkpointed value so hit predictions survive a restart with a
     * cold cache (pass -1 to leave unlatched).
     */
    int algoIfKnown() const;
    void latchAlgo(int algo);

    PlanCache &planCache() { return cache_; }
    const PlanCache &planCache() const { return cache_; }

    /**
     * Execute through the task-graph overlap scheduler (default) or
     * the legacy staged timeline. The serving tier reports latency to
     * tenants, so it defaults to the pipelined model; set false to
     * reproduce the staged reference. Configure from serial program
     * points only (not synchronized against in-flight infer calls).
     */
    void setOverlap(bool overlap) { overlap_ = overlap; }
    bool overlap() const { return overlap_; }

  private:
    AcceleratorFactory factory_;
    model::AlgoKind algo_;
    std::atomic<bool> algoKnown_{false};
    bool overlap_ = true;
    PlanCache cache_;
};

} // namespace ditile::sim

#endif // DITILE_SIM_SERVING_HH
