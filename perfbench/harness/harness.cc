#include "harness.hh"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/rng.hh"
#include "tiling/comm_model.hh"
#include "workload/digest.hh"

namespace perfbench {

std::uint64_t
derivedSeed(std::uint64_t run_seed, std::uint64_t index)
{
    const std::uint64_t s =
        ditile::mix64(run_seed * 0x9e3779b97f4a7c15ull + index + 1);
    return s == 0 ? 1 : s;
}

Spans::Spans(bool enabled) : enabled_(enabled)
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

int
Spans::open(const std::string &layer)
{
    auto it = ids_.find(layer);
    if (it == ids_.end()) {
        it = ids_.emplace(layer, static_cast<int>(names_.size())).first;
        names_.push_back(layer);
    }
    Span span;
    span.layer = it->second;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.pass = pass_;
    const int index = static_cast<int>(spans_.size());
    stack_.push_back(index);
    span.startNs = Clock::now().time_since_epoch().count();
    spans_.push_back(span);
    return index;
}

void
Spans::close(int index)
{
    spans_[static_cast<std::size_t>(index)].endNs =
        Clock::now().time_since_epoch().count();
    stack_.pop_back();
}

void
Spans::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span file " + path);
    out << "index\tname\tparent\top\tpass\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << i << '\t' << names_[static_cast<std::size_t>(s.layer)]
            << '\t' << s.parent << '\t' << s.op << '\t' << s.pass
            << '\t' << s.startNs << '\t' << s.endNs << '\n';
    }
}

void
Hasher::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void
Hasher::str(const std::string &s)
{
    u64(s.size());
    for (const unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
}

std::string
Hasher::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
hashRun(Hasher &h, const ditile::sim::RunResult &r)
{
    h.str(r.acceleratorName);
    for (const auto v : {r.totalCycles, r.computeCycles,
                         r.onChipCommCycles, r.offChipCycles,
                         r.configCycles})
        h.u64(static_cast<std::uint64_t>(v));
    const auto &o = r.ops;
    for (const auto v : {o.aggregationMacs, o.combinationMacs, o.rnnMacs,
                         o.activationOps, o.elementwiseOps})
        h.u64(static_cast<std::uint64_t>(v));
    const auto &d = r.dramTraffic;
    for (const auto v : {d.weightBytes, d.adjacencyBytes,
                         d.inputFeatureBytes, d.intermediateBytes,
                         d.outputBytes})
        h.u64(static_cast<std::uint64_t>(v));
    for (const auto v : {r.nocBytes, r.nocBytesTemporal,
                         r.nocBytesSpatial, r.nocBytesReuse})
        h.u64(static_cast<std::uint64_t>(v));
    const auto &e = r.energyEvents;
    for (const auto v : {e.macs, e.aluOps, e.activations})
        h.u64(static_cast<std::uint64_t>(v));
    for (const auto v : {e.localBufferBytes, e.reuseFifoBytes,
                         e.distBufferBytes, e.nocLinkBytes,
                         e.nocRouterBytes, e.dramBytes})
        h.u64(static_cast<std::uint64_t>(v));
    h.u64(e.dramActivates);
    h.u64(e.reconfigEvents);
    for (const char *name :
         {"interchip.payload_bytes", "interchip.wire_bytes"})
        h.u64(r.stats.has(name)
                  ? static_cast<std::uint64_t>(r.stats.get(name))
                  : 0);
    h.u64(r.trace.size());
    for (const auto &t : r.trace) {
        h.u64(static_cast<std::uint64_t>(t.snapshot));
        h.u64(static_cast<std::uint64_t>(t.column));
        for (const auto v : {t.dramDone, t.gnnComputeCycles,
                             t.rnnComputeCycles, t.spatialCommCycles,
                             t.temporalCommCycles, t.gnnDone, t.rnnDone})
            h.u64(static_cast<std::uint64_t>(v));
    }
}

void
addGraphCounts(Report &report, const ditile::graph::DynamicGraph &dg)
{
    addCount(report, "graph.vertices", dg.numVertices());
    for (ditile::SnapshotId t = 0; t < dg.numSnapshots(); ++t) {
        addCount(report, "graph.edges",
                 static_cast<double>(dg.snapshot(t).numEdges()));
        if (t > 0)
            addCount(report, "graph.delta_edges",
                     static_cast<double>(dg.delta(t).numChanges()));
    }
}

void
addPlanCacheCounts(Report &report, const ditile::sim::PlanCache &cache)
{
    addCount(report, "sim.plan_cache.hits",
             static_cast<double>(cache.hits()));
    addCount(report, "sim.plan_cache.misses",
             static_cast<double>(cache.misses()));
    addCount(report, "sim.plan_cache.evictions",
             static_cast<double>(cache.evictions()));
}

void
addRunCounts(Report &report, const ditile::sim::RunResult &r)
{
    addCount(report, "noc.spatial_bytes",
             static_cast<double>(r.nocBytesSpatial));
    addCount(report, "noc.temporal_bytes",
             static_cast<double>(r.nocBytesTemporal));
    addCount(report, "noc.reuse_bytes",
             static_cast<double>(r.nocBytesReuse));
    // Row-buffer counts exist only with the metrics plane on.
    for (const char *name :
         {"dram.row_hits", "dram.row_misses", "dram.row_conflicts",
          "interchip.payload_bytes", "interchip.wire_bytes"})
        addCount(report, name, r.stats.has(name) ? r.stats.get(name)
                                                 : 0.0);
}

void
setGlobalCacheCounts(Report &report)
{
    const auto &digests = ditile::workload::DigestCache::global();
    report.counts["workload.digest_cache.hits"] =
        static_cast<double>(digests.hits());
    report.counts["workload.digest_cache.misses"] =
        static_cast<double>(digests.misses());
    report.counts["workload.digest_cache.size"] =
        static_cast<double>(digests.size());
    const auto &comm = ditile::tiling::CommModelCache::global();
    report.counts["tiling.comm_cache.hits"] =
        static_cast<double>(comm.hits());
    report.counts["tiling.comm_cache.misses"] =
        static_cast<double>(comm.misses());
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

CpuRotation::CpuRotation() : cpus_(allowedCpus()) {}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

} // namespace perfbench
