/**
 * @file
 * serve_zipf: one op is one Server::handle(line) over a LoadGen Zipf
 * schedule, with a write-ahead log (batch sync, group of 32) and a
 * checkpoint every 1000 requests charged to the request that triggers
 * it, as `ditile_serve --checkpoint-every` does. A pass is one
 * schedule on a fresh server; pass p draws its schedule from seed
 * derivedSeed(seed, p).
 */

#include <cstdio>
#include <memory>

#include "common/thread_pool.hh"
#include "core/ditile_accelerator.hh"
#include "harness.hh"
#include "serve/checkpoint.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"

namespace perfbench {

using namespace ditile;

namespace {

/** Protocol lines of one pass and the span layer of each. */
struct PassInput
{
    std::vector<std::string> lines;
    std::vector<const std::string *> layers;
    std::vector<bool> queries;
};

const std::string &
layerOf(serve::Request::Kind kind)
{
    static const std::string tenant = "serve.tenant_ms";
    static const std::string event = "serve.event_ms";
    static const std::string roll = "serve.roll_ms";
    static const std::string query = "serve.query_ms";
    static const std::string other = "serve.other_ms";
    switch (kind) {
    case serve::Request::Kind::CreateTenant:
        return tenant;
    case serve::Request::Kind::Event:
        return event;
    case serve::Request::Kind::Roll:
        return roll;
    case serve::Request::Kind::Query:
        return query;
    default:
        return other;
    }
}

/** Durable files and end state of one pass. */
struct PassState
{
    std::string walPath;
    std::string checkpointPath;
    std::string liveHash;
};

} // namespace

Report
runServeZipf(const Options &options, Spans &spans)
{
    ThreadPool::setGlobalThreads(1);
    serve::LoadGenConfig config;
    config.tenants = options.smoke ? 3 : 10;
    config.requests = options.smoke ? 300 : 10000;
    config.zipfExponent = 1.1;
    const std::size_t checkpoint_every = options.smoke ? 100 : 1000;
    const int max_passes = options.smoke ? 1 : 16;
    const serve::ServerOptions server_options;
    const sim::AcceleratorFactory factory = [] {
        return std::unique_ptr<sim::Accelerator>(
            std::make_unique<core::DiTileAccelerator>());
    };

    // Set-up: every pass's schedule, rendered as protocol lines.
    std::vector<PassInput> inputs(static_cast<std::size_t>(max_passes));
    for (int p = 0; p < max_passes; ++p) {
        // Tenant seeds travel through protocol lines as signed
        // integers, so keep them to 30 bits.
        config.seed = derivedSeed(options.seed,
                                  static_cast<std::uint64_t>(p)) >> 34;
        PassInput &input = inputs[static_cast<std::size_t>(p)];
        for (const auto &request : serve::LoadGen(config).schedule()) {
            if (request.kind == serve::Request::Kind::Nop)
                continue;
            input.lines.push_back(serve::renderRequest(request));
            input.layers.push_back(&layerOf(request.kind));
            input.queries.push_back(request.kind ==
                                    serve::Request::Kind::Query);
        }
    }

    Report report;
    report.poolWidth = 1;
    report.passOps = static_cast<long long>(inputs[0].lines.size());
    const auto ready = Clock::now();
    report.readyNs = ready.time_since_epoch().count();
    if (options.setupOnly)
        return report;

    const StopRule stop{options.seconds, options.smoke ? 1 : 100, ready};
    std::vector<PassState> passes;
    CpuRotation rotation;
    long long ops = 0;
    for (int p = 0; p < max_passes && !stop.done(ops); ++p) {
        const PassInput &input = inputs[static_cast<std::size_t>(p)];
        PassState state;
        const std::string stem =
            options.workDir + "/serve-p" + std::to_string(p);
        state.walPath = stem + ".wal";
        state.checkpointPath = stem + ".ckpt";
        serve::Server server(server_options, factory);
        server.attachWal(serve::WalWriter::openFresh(
            state.walPath, serve::WalSync::Batch, 32));
        Hasher block;
        std::size_t block_start = 0;
        for (std::size_t i = 0; i < input.lines.size(); ++i, ++ops) {
            if (i % checkpoint_every == 0)
                rotation.next();
            spans.setOp(ops, p);
            const std::string &line = input.lines[i];
            const bool checkpoint = (i + 1) % checkpoint_every == 0;
            std::string response;
            const auto t0 = Clock::now();
            Clock::time_point handle_start;
            Clock::time_point handle_end;
            {
                auto op_span = spans.scope("op");
                if (spans.enabled()) {
                    auto s = spans.scope("serve.parse_ms");
                    (void)serve::parseRequest(line);
                }
                handle_start = Clock::now();
                {
                    auto s = spans.scope(*input.layers[i]);
                    response = server.handle(line);
                }
                handle_end = Clock::now();
                if (checkpoint) {
                    auto s = spans.scope("serve.checkpoint_ms");
                    server.wal()->flush(true);
                    serve::writeCheckpointFile(state.checkpointPath,
                                               server.checkpointState());
                }
            }
            report.opMs.push_back(msBetween(t0, Clock::now()));
            if (input.queries[i])
                report.queryMs.push_back(
                    msBetween(handle_start, handle_end));

            const bool last = i + 1 == input.lines.size();
            block.str(response);
            if (last)
                block.str(server.summary().toTable());
            if (checkpoint || last) {
                char name[48];
                std::snprintf(name, sizeof(name), "p%d.b%zu", p,
                              i / checkpoint_every);
                const std::string key = name;
                report.digests.emplace_back(key, block.hex());
                report.digestOps[key] =
                    static_cast<long long>(i + 1 - block_start);
                block = Hasher();
                block_start = i + 1;
            }
        }
        state.liveHash =
            serve::checkpointStateHash(server.checkpointState());
        if (p == 0) {
            const auto summary = server.summary();
            report.counts["serve.plan_hits"] =
                static_cast<double>(summary.planHits);
            report.counts["serve.plan_misses"] =
                static_cast<double>(summary.planMisses);
            report.counts["model.serve_p99_us"] =
                static_cast<double>(summary.p99Us);
            report.counts["serve.wal.appended"] =
                static_cast<double>(server.wal()->appended());
            report.counts["serve.wal.syncs"] =
                static_cast<double>(server.wal()->syncs());
            addPlanCacheCounts(report, server.runner().planCache());
            setGlobalCacheCounts(report);
            report.peakRssMb = peakRssMb();
        }
        passes.push_back(state);
        report.completePasses = p + 1;
    }
    report.timedS = msBetween(ready, Clock::now()) / 1000.0;

    // Durability: the WAL plus the last checkpoint of every pass must
    // restore a fresh server to the live server's exact state.
    Check durability{"serve_zipf.recover_state_hash", true, 0, ""};
    for (std::size_t p = 0; p < passes.size(); ++p) {
        spans.setOp(Spans::kVerifyOp, static_cast<int>(p));
        const PassState &state = passes[p];
        serve::Server recovered(server_options, factory);
        {
            auto s = spans.scope("serve.recover_ms");
            auto recovery = serve::recoverWal(state.walPath);
            const auto checkpoint =
                serve::loadCheckpointFile(state.checkpointPath);
            recovered.restoreState(checkpoint);
            std::vector<serve::WalRecord> suffix;
            for (auto &record : recovery.records)
                if (record.seq > checkpoint.walSeq)
                    suffix.push_back(std::move(record));
            recovered.recover(suffix);
            recovered.attachWal(serve::WalWriter::openContinue(
                state.walPath, serve::WalSync::Batch,
                recovery.nextSeq(), 32));
        }
        if (serve::checkpointStateHash(recovered.checkpointState()) !=
            state.liveHash) {
            durability.ok = false;
            durability.failedOps += report.passOps;
            durability.detail += "pass " + std::to_string(p) + " ";
        }
    }
    durability.detail +=
        std::to_string(passes.size()) + " pass(es) recovered";
    report.checks.push_back(durability);

    // Determinism: pass 0 replayed on a fresh server without a WAL
    // must answer byte-identically, block by block.
    spans.setOp(Spans::kVerifyOp, -1);
    Check replay{"serve_zipf.replay_pass0", true, 0, ""};
    {
        serve::Server server(server_options, factory);
        const PassInput &input = inputs[0];
        Hasher block;
        std::size_t digest_index = 0;
        for (std::size_t i = 0; i < input.lines.size(); ++i) {
            block.str(server.handle(input.lines[i]));
            const bool last = i + 1 == input.lines.size();
            if (last)
                block.str(server.summary().toTable());
            if ((i + 1) % checkpoint_every == 0 || last) {
                const auto &[key, digest] = report.digests[digest_index++];
                if (block.hex() != digest) {
                    replay.ok = false;
                    replay.failedOps += report.digestOps[key];
                    replay.detail += key + " ";
                }
                block = Hasher();
            }
        }
        replay.detail += std::to_string(digest_index) + " block(s)";
    }
    report.checks.push_back(replay);
    return report;
}

} // namespace perfbench
