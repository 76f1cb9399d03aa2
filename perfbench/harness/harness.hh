/**
 * @file
 * Shared pieces of the benchmark harness: run options, the span
 * recorder that times library calls from outside, output digests, and
 * the per-run report every workload fills in.
 *
 * A workload runs a set-up, then a timed phase of ops (closed loop,
 * one client), then verification. Ops are grouped into passes: a pass
 * is the workload's fixed unit of work (the first 100 sweep points,
 * one Zipf schedule, one scale-out grid), so peak RSS, per-layer
 * times and counts are taken over fixed work while the timed phase
 * runs for the requested seconds.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/dynamic_graph.hh"
#include "sim/plan_cache.hh"
#include "sim/run_result.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two time points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Command-line options of the harness binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool setupOnly = false; ///< Run the set-up, report, exit.
    int nproc = 1;          ///< CPUs this process may run on.
    std::string workDir;    ///< Scratch files (WAL, checkpoints).
    std::string spansPath;  ///< Span dump of a traced run.
};

/** Seed of the i-th generated input of a run (never 0). */
std::uint64_t derivedSeed(std::uint64_t run_seed, std::uint64_t index);

/**
 * Spans around library calls, recorded only in the traced run. A
 * disabled recorder costs one branch per call site.
 */
class Spans
{
  public:
    /** Op id of set-up spans; verification spans use kVerifyOp. */
    static constexpr long long kSetupOp = -1;
    static constexpr long long kVerifyOp = -2;

    struct Span
    {
        int layer = 0;
        int parent = -1; ///< Index of the enclosing span, -1 at top.
        long long op = kSetupOp;
        int pass = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** Ends its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Spans *owner, int index) : owner_(owner), index_(index) {}
        ~Scope()
        {
            if (owner_ != nullptr)
                owner_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *owner_ = nullptr;
        int index_ = -1;
    };

    explicit Spans(bool enabled);

    bool enabled() const { return enabled_; }

    /** Attribute the spans that follow to op `op` of pass `pass`. */
    void setOp(long long op, int pass)
    {
        op_ = op;
        pass_ = pass;
    }

    /** Open a span named `layer` under the innermost open span. */
    [[nodiscard]] Scope scope(const std::string &layer)
    {
        if (!enabled_)
            return Scope();
        return Scope(this, open(layer));
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::string> &layerNames() const { return names_; }

    /** Write every span as tab-separated lines (name, times, ids). */
    void write(const std::string &path) const;

  private:
    int open(const std::string &layer);
    void close(int index);

    bool enabled_;
    long long op_ = kSetupOp;
    int pass_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, int> ids_;
};

/** FNV-1a over the fields fed to it. */
class Hasher
{
  public:
    void u64(std::uint64_t v);
    void str(const std::string &s);
    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/**
 * Feed a run's modeled output: cycles, ops, DRAM/NoC/inter-chip
 * bytes, energy events and the per-snapshot trace. Metrics-plane
 * extras in RunResult::stats are left out, so traced and untraced
 * runs hash alike.
 */
void hashRun(Hasher &hasher, const ditile::sim::RunResult &run);

/** CPUs this process may run on (its affinity mask). */
std::vector<int> allowedCpus();

/**
 * Moves the calling thread to the next CPU this process may use. The
 * single-threaded workloads call it once per block of ops so that one
 * CPU slowed by co-tenants for a while does not decide a whole run.
 */
class CpuRotation
{
  public:
    CpuRotation();
    void next();

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Peak resident set of this process so far (VmHWM), in MB. */
double peakRssMb();

/** Nearest-rank percentile of unsorted samples; 0 when empty. */
double percentile(std::vector<double> samples, double pct);

/** One internal correctness check (re-execution, recovery). */
struct Check
{
    std::string name;
    bool ok = true;
    long long failedOps = 0;
    std::string detail;
};

/** Everything a workload reports back to main(). */
struct Report
{
    int poolWidth = 1;
    std::int64_t readyNs = 0; ///< steady_clock at the first timed op.
    double timedS = 0.0;
    std::vector<double> opMs;
    std::vector<double> queryMs; ///< serve_zipf only.
    long long passOps = 0;       ///< Ops in one complete pass.
    int completePasses = 0;
    double peakRssMb = 0.0;      ///< At the end of the first pass.

    /** Output digests keyed by op or block, in run order. */
    std::vector<std::pair<std::string, std::string>> digests;
    std::map<std::string, long long> digestOps; ///< Ops per key.
    std::vector<Check> checks;

    /** Exact counts over the first pass (traced run). */
    std::map<std::string, double> counts;
};

/** Add `value` to `report.counts[name]`. */
inline void
addCount(Report &report, const std::string &name, double value)
{
    report.counts[name] += value;
}

/** graph.{vertices,edges,delta_edges} of one synthesized graph. */
void addGraphCounts(Report &report, const ditile::graph::DynamicGraph &dg);

/** sim.plan_cache.{hits,misses,evictions} of one cache. */
void addPlanCacheCounts(Report &report,
                        const ditile::sim::PlanCache &cache);

/** The noc/dram/interchip traffic counts of one run. */
void addRunCounts(Report &report, const ditile::sim::RunResult &run);

/** Current totals of the process-wide digest and comm-model caches. */
void setGlobalCacheCounts(Report &report);

/** Timed-phase stop rule shared by the workloads. */
struct StopRule
{
    double seconds = 0.0;
    long long minOps = 0;
    Clock::time_point start;

    bool
    done(long long ops) const
    {
        return ops >= minOps && msBetween(start, Clock::now()) >=
            seconds * 1000.0;
    }
};

Report runFleetSweep(const Options &options, Spans &spans);
Report runServeZipf(const Options &options, Spans &spans);
Report runScaleoutGrid(const Options &options, Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
