/**
 * @file
 * Flit-level wormhole simulation.
 */

#include "noc/flit_network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace ditile::noc {

namespace {

/**
 * In-flight packet state. The packet's path is hops[headIndex..pathEnd)
 * of the batch's shared hop pool; the head owns link hops[headIndex-1]
 * and everything behind it until the tail (flits cycles after the head
 * left a link) releases it.
 */
struct Packet
{
    std::size_t id = 0;
    Cycle injectCycle = 0;
    Cycle flits = 1;
    std::size_t pathEnd = 0;      ///< One past the last path hop.

    std::size_t headIndex = 0;    ///< Next path hop to acquire.
    Cycle headStallUntil = 0;     ///< Router pipeline delay gate.
    Cycle doneCycle = 0;          ///< Tail fully drained.
    bool finished = false;
};

} // namespace

NocResult
simulateFlitTraffic(const FlitConfig &config,
                    std::vector<Message> messages)
{
    auto topology = Topology::create(config.noc);
    NocResult result;

    std::stable_sort(messages.begin(), messages.end(),
        [](const Message &a, const Message &b) {
            return a.injectCycle < b.injectCycle;
        });

    std::vector<Packet> packets;
    packets.reserve(messages.size());
    // Every packet's path lives in one pool, routed through one
    // reused Route buffer.
    std::vector<Hop> hops;
    Route rt;
    const NocFaults no_faults;
    for (std::size_t i = 0; i < messages.size(); ++i) {
        const Message &m = messages[i];
        result.totalBytes += m.bytes;
        result.bytesByClass[static_cast<int>(m.cls)] += m.bytes;
        ++result.numMessages;

        Packet p;
        p.id = i;
        p.injectCycle = m.injectCycle;
        p.flits = std::max<Cycle>(1, ceilDiv<Cycle>(
            static_cast<Cycle>(m.bytes),
            static_cast<Cycle>(config.flitBytes)));
        topology->route(m.src, m.dst, m.cls, no_faults, rt);
        p.headIndex = hops.size();
        hops.insert(hops.end(), rt.hops.begin(), rt.hops.end());
        p.pathEnd = hops.size();
        for (const Hop &hop : rt.hops) {
            result.hopBytes += m.bytes;
            ++result.totalHops;
            if (hop.routerStop) {
                result.routerBytes += m.bytes;
                ++result.routerStops;
            }
        }
        if (rt.hops.empty()) {
            p.finished = true;
            p.doneCycle = p.injectCycle;
        }
        packets.push_back(p);
    }

    // linkFreeAt[l]: first cycle the link can accept a new packet's
    // head (previous owner's tail has drained).
    std::vector<Cycle> link_free(
        static_cast<std::size_t>(topology->numLinks()), 0);

    double latency_sum = 0.0;
    std::size_t remaining = 0;
    for (const auto &p : packets)
        remaining += !p.finished;

    Cycle cycle = 0;
    while (remaining > 0) {
        DITILE_ASSERT(cycle < config.maxCycles,
                      "flit simulation exceeded the cycle guard");
        // Oldest-first arbitration: packets were sorted by injection.
        for (Packet &p : packets) {
            if (p.finished || p.injectCycle > cycle ||
                p.headStallUntil > cycle) {
                continue;
            }
            if (p.headIndex < p.pathEnd) {
                const Hop &hop = hops[p.headIndex];
                Cycle &free_at =
                    link_free[static_cast<std::size_t>(hop.link)];
                if (free_at > cycle)
                    continue;
                // Acquire: the head crosses this cycle, the tail
                // drains `flits` cycles later, releasing the link.
                free_at = cycle + p.flits;
                ++p.headIndex;
                if (hop.routerStop) {
                    p.headStallUntil = cycle + 1 +
                        config.noc.routerLatencyCycles;
                } else {
                    p.headStallUntil = cycle + 1;
                }
                if (p.headIndex == p.pathEnd) {
                    // Head arrived; tail drains behind it.
                    p.doneCycle = cycle + p.flits +
                        config.noc.routerLatencyCycles;
                    p.finished = true;
                    --remaining;
                    latency_sum += static_cast<double>(
                        p.doneCycle - p.injectCycle);
                    result.makespan = std::max(result.makespan,
                                               p.doneCycle);
                }
            }
        }
        ++cycle;
    }

    result.avgLatency = result.numMessages
        ? latency_sum / static_cast<double>(result.numMessages) : 0.0;
    return result;
}

Cycle
flitZeroLoadLatency(const FlitConfig &config, const Message &message)
{
    // Replaying a single message keeps this definitionally consistent
    // with the simulation (head pipeline + tail drain + ejection).
    Message m = message;
    m.injectCycle = 0;
    const auto result = simulateFlitTraffic(config, {m});
    return result.makespan;
}

} // namespace ditile::noc
