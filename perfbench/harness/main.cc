/**
 * @file
 * perfbench_harness — runs one benchmark workload through the
 * simulator's public calls and writes a JSON report.
 *
 *   perfbench_harness --workload=fleet_sweep|serve_zipf|scaleout_grid
 *       --seed=N --seconds=S --out=FILE --work-dir=DIR
 *       [--trace] [--spans=FILE] [--smoke] [--setup-only]
 *
 * --trace records spans around every library call the workload makes
 * and switches on the simulator's metrics plane; the untraced run
 * times ops only. perfbench/run.py drives this binary; see
 * perfbench/README.md for the workloads, metrics and layers.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/json.hh"
#include "common/trace.hh"
#include "harness.hh"

using namespace perfbench;

namespace {

struct BuildInfo
{
    std::string type = PERFBENCH_BUILD_TYPE;
    std::string compiler = PERFBENCH_COMPILER;
    std::string flags = PERFBENCH_CXX_FLAGS;
#if defined(__OPTIMIZE__)
    bool optimized = true;
#else
    bool optimized = false;
#endif
#if defined(NDEBUG)
    bool ndebug = true;
#else
    bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    bool sanitized = true;
#else
    bool sanitized = flags.find("-fsanitize") != std::string::npos;
#endif

    bool timeable() const { return optimized && ndebug && !sanitized; }
};

bool
takeValue(const char *arg, const char *name, std::string &out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

std::string
percentiles(const std::vector<double> &samples,
            std::initializer_list<double> pcts)
{
    ditile::JsonObject o;
    o.add("n", static_cast<long long>(samples.size()));
    for (const double p : pcts) {
        std::string key = "p";
        key += std::to_string(static_cast<int>(p));
        o.add(key, percentile(samples, p));
    }
    return o.toCompactString();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/**
 * Per-layer table of a traced run. Totals, self times and calls cover
 * the timed ops; the per-pass value is the layer's set-up time plus
 * the median over complete passes of its time in one pass (including
 * that pass's verification spans).
 */
std::string
layerTable(const Spans &spans, const Report &report, double &coverage)
{
    const auto &all = spans.spans();
    const auto &names = spans.layerNames();
    const std::size_t layers = names.size();
    std::vector<double> total(layers), self(layers), setup(layers);
    std::vector<long long> calls(layers);
    std::vector<std::vector<double>> per_pass(
        layers, std::vector<double>(
                    static_cast<std::size_t>(report.completePasses)));
    std::vector<double> child_ms(all.size());
    double op_ms = 0.0;
    double covered_ms = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &s = all[i];
        const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        if (s.parent >= 0)
            child_ms[static_cast<std::size_t>(s.parent)] += ms;
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &s = all[i];
        const auto l = static_cast<std::size_t>(s.layer);
        const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        if (s.op == Spans::kSetupOp)
            setup[l] += ms;
        if (s.pass >= 0 && s.pass < report.completePasses)
            per_pass[l][static_cast<std::size_t>(s.pass)] += ms;
        if (s.op < 0)
            continue;
        total[l] += ms;
        self[l] += ms - child_ms[i];
        ++calls[l];
        if (s.parent < 0)
            op_ms += ms;
        else if (all[static_cast<std::size_t>(s.parent)].parent < 0)
            covered_ms += ms;
    }
    coverage = op_ms > 0.0 ? covered_ms / op_ms : 0.0;
    std::vector<std::string> rows;
    for (std::size_t l = 0; l < layers; ++l) {
        ditile::JsonObject row;
        row.add("name", names[l])
            .add("total_ms", total[l])
            .add("self_ms", self[l])
            .add("calls", calls[l])
            .add("share_of_op", op_ms > 0.0 ? total[l] / op_ms : 0.0)
            .add("setup_ms", setup[l])
            .add("per_pass_ms", setup[l] + median(per_pass[l]));
        rows.push_back(row.toCompactString());
    }
    return jsonList(rows);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string v;
        if (takeValue(arg, "--workload", v))
            options.workload = v;
        else if (takeValue(arg, "--seed", v))
            options.seed = std::stoull(v);
        else if (takeValue(arg, "--seconds", v))
            options.seconds = std::stod(v);
        else if (takeValue(arg, "--out", v))
            out_path = v;
        else if (takeValue(arg, "--work-dir", v))
            options.workDir = v;
        else if (takeValue(arg, "--spans", v))
            options.spansPath = v;
        else if (std::strcmp(arg, "--trace") == 0)
            options.trace = true;
        else if (std::strcmp(arg, "--smoke") == 0)
            options.smoke = true;
        else if (std::strcmp(arg, "--setup-only") == 0)
            options.setupOnly = true;
        else {
            std::fprintf(stderr, "perfbench_harness: unknown argument "
                                 "'%s'\n", arg);
            return 2;
        }
    }
    if (out_path.empty() || options.workDir.empty()) {
        std::fprintf(stderr,
                     "perfbench_harness: --out and --work-dir are "
                     "required\n");
        return 2;
    }
    const BuildInfo build;
    if (!build.timeable()) {
        std::fprintf(stderr,
                     "perfbench_harness: refusing to time a %s build "
                     "(optimized=%d NDEBUG=%d sanitized=%d, flags '%s')\n",
                     build.type.c_str(), build.optimized, build.ndebug,
                     build.sanitized, build.flags.c_str());
        return 3;
    }
    options.nproc =
        std::max(1, static_cast<int>(allowedCpus().size()));

    Report (*run)(const Options &, Spans &) = nullptr;
    if (options.workload == "fleet_sweep")
        run = runFleetSweep;
    else if (options.workload == "serve_zipf")
        run = runServeZipf;
    else if (options.workload == "scaleout_grid")
        run = runScaleoutGrid;
    else {
        std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }

    if (options.trace)
        ditile::Tracer::global().enable(false, true);
    Spans spans(options.trace);
    Report report;
    try {
        report = run(options, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    ditile::JsonObject build_json;
    build_json.add("type", build.type)
        .add("compiler", build.compiler)
        .add("flags", build.flags)
        .add("optimized", build.optimized)
        .add("ndebug", build.ndebug)
        .add("sanitized", build.sanitized);

    ditile::JsonObject o;
    o.add("workload", options.workload)
        .add("seed", static_cast<long long>(options.seed))
        .add("smoke", options.smoke)
        .add("trace", options.trace)
        .addRaw("build", build_json.toCompactString())
        .add("nproc", static_cast<long long>(options.nproc))
        .add("pool_width", static_cast<long long>(report.poolWidth))
        .add("ready_ns", static_cast<long long>(report.readyNs));
    if (!options.setupOnly) {
        const auto ops = static_cast<long long>(report.opMs.size());
        o.add("ops", ops)
            .add("timed_s", report.timedS)
            .add("ops_per_s", report.timedS > 0.0
                                  ? static_cast<double>(ops) /
                                      report.timedS
                                  : 0.0)
            .add("pass_ops", report.passOps)
            .add("complete_passes",
                 static_cast<long long>(report.completePasses))
            .add("peak_rss_mb", report.peakRssMb)
            .addRaw("op_ms", percentiles(report.opMs, {50, 90, 99}))
            .addRaw("query_ms", percentiles(report.queryMs, {50, 99}));
        std::vector<std::string> digests;
        for (const auto &[key, digest] : report.digests) {
            ditile::JsonObject d;
            d.add("key", key)
                .add("digest", digest)
                .add("ops", report.digestOps.at(key));
            digests.push_back(d.toCompactString());
        }
        o.addRaw("digests", jsonList(digests));
        std::vector<std::string> checks;
        for (const auto &c : report.checks) {
            ditile::JsonObject j;
            j.add("name", c.name)
                .add("ok", c.ok)
                .add("failed_ops", c.failedOps)
                .add("detail", c.detail);
            checks.push_back(j.toCompactString());
        }
        o.addRaw("checks", jsonList(checks));
        if (options.trace) {
            ditile::JsonObject counts;
            for (const auto &[name, value] : report.counts)
                counts.add(name, value);
            double coverage = 0.0;
            o.addRaw("counts", counts.toCompactString())
                .addRaw("layers", layerTable(spans, report, coverage))
                .add("coverage", coverage);
            if (!options.spansPath.empty())
                spans.write(options.spansPath);
        }
    }
    std::ofstream out(out_path);
    out << o.toCompactString() << '\n';
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    return 0;
}
