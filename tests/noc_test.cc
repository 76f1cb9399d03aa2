/**
 * @file
 * Tests for the NoC topologies and the contention-aware network
 * simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hh"
#include "noc/network.hh"
#include "noc/traffic_patterns.hh"

namespace ditile::noc {
namespace {

NocConfig
config4x4(TopologyKind kind, int relink_span = 4)
{
    NocConfig c;
    c.rows = 4;
    c.cols = 4;
    c.topology = kind;
    c.reLinkSpan = relink_span;
    c.linkBytesPerCycle = 32;
    c.routerLatencyCycles = 2;
    return c;
}

/** The fault-free hops from src to dst. */
std::vector<Hop>
hopsOf(const Topology &topo, TileId src, TileId dst,
       TrafficClass cls = TrafficClass::Spatial)
{
    Route rt;
    topo.route(src, dst, cls, NocFaults{}, rt);
    return rt.hops;
}

/** Router stops on the fault-free route from src to dst. */
int
routeStops(const NocConfig &config, TileId src, TileId dst)
{
    auto topo = Topology::create(config);
    int stops = 0;
    for (const auto &hop : hopsOf(*topo, src, dst))
        stops += hop.routerStop;
    return stops;
}

TEST(TrafficClassName, AllNamed)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::Temporal), "temporal");
    EXPECT_STREQ(trafficClassName(TrafficClass::Spatial), "spatial");
    EXPECT_STREQ(trafficClassName(TrafficClass::Reuse), "reuse");
    EXPECT_STREQ(trafficClassName(TrafficClass::Control), "control");
}

TEST(TopologyKindName, AllNamed)
{
    EXPECT_STREQ(topologyKindName(TopologyKind::Mesh), "mesh");
    EXPECT_STREQ(topologyKindName(TopologyKind::Ring), "ring");
    EXPECT_STREQ(topologyKindName(TopologyKind::Crossbar), "crossbar");
    EXPECT_STREQ(topologyKindName(TopologyKind::Reconfigurable),
                 "reconfigurable");
}

TEST(MeshTopology, XyRouteLengths)
{
    const auto config = config4x4(TopologyKind::Mesh);
    auto topo = Topology::create(config);
    // (0,0) -> (3,3): 3 horizontal + 3 vertical hops.
    EXPECT_EQ(hopsOf(*topo, 0, 15, TrafficClass::Spatial).size(), 6u);
    // Same tile: empty route.
    EXPECT_TRUE(hopsOf(*topo, 5, 5, TrafficClass::Spatial).empty());
    // Neighbors: one hop.
    EXPECT_EQ(hopsOf(*topo, 0, 1, TrafficClass::Spatial).size(), 1u);
    // Mesh has no wraparound: (row 0, col 0) -> (row 0, col 3) is 3.
    EXPECT_EQ(hopsOf(*topo, 0, 3, TrafficClass::Spatial).size(), 3u);
}

TEST(RingTopology, WrapsAroundMinimalDirection)
{
    const auto config = config4x4(TopologyKind::Ring);
    auto topo = Topology::create(config);
    // Column 0 -> column 3 wraps West: 1 hop.
    EXPECT_EQ(hopsOf(*topo, 0, 3, TrafficClass::Temporal).size(), 1u);
    // Row 0 -> row 3 wraps North: 1 hop.
    EXPECT_EQ(hopsOf(*topo, 0, 12, TrafficClass::Spatial).size(), 1u);
}

TEST(CrossbarTopology, SingleHop)
{
    const auto config = config4x4(TopologyKind::Crossbar);
    auto topo = Topology::create(config);
    EXPECT_EQ(hopsOf(*topo, 0, 15, TrafficClass::Spatial).size(), 1u);
    EXPECT_TRUE(hopsOf(*topo, 7, 7, TrafficClass::Spatial).empty());
}

TEST(ReconfigurableTopology, BypassReducesRouterStops)
{
    NocConfig ring = config4x4(TopologyKind::Ring);
    ring.rows = 16;
    ring.cols = 16;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    re.reLinkSpan = 4;
    // Vertical distance 7 within one column: ring stops 7 times,
    // Re-Link stops every 4 hops plus the final stop.
    const TileId src = 0;
    const TileId dst = 7 * 16;
    EXPECT_EQ(routeStops(ring, src, dst), 7);
    EXPECT_EQ(routeStops(re, src, dst), 2);
}

TEST(ReconfigurableTopology, ZeroLoadLatencyBeatsPlainRing)
{
    NocConfig ring = config4x4(TopologyKind::Ring);
    ring.rows = 16;
    ring.cols = 16;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    Message m;
    m.src = 0;
    m.dst = 6 * 16; // six vertical hops.
    m.bytes = 512;
    EXPECT_LT(zeroLoadLatency(re, m), zeroLoadLatency(ring, m));
}

TEST(ZeroLoadLatency, SerializationPlusRouterLatency)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 64; // two cycles at 32 B/cycle.
    EXPECT_EQ(zeroLoadLatency(config, m),
              2u + config.routerLatencyCycles);
}

TEST(SimulateTraffic, EmptyBatch)
{
    const auto res = simulateTraffic(config4x4(TopologyKind::Mesh), {});
    EXPECT_EQ(res.makespan, 0u);
    EXPECT_EQ(res.numMessages, 0u);
    EXPECT_DOUBLE_EQ(res.avgLatency, 0.0);
}

TEST(SimulateTraffic, SingleMessageMatchesZeroLoad)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message m;
    m.src = 0;
    m.dst = 10;
    m.bytes = 96;
    const auto res = simulateTraffic(config, {m});
    EXPECT_EQ(res.makespan, zeroLoadLatency(config, m));
    EXPECT_EQ(res.numMessages, 1u);
    EXPECT_EQ(res.totalBytes, 96u);
}

TEST(SimulateTraffic, ContentionSerializesSharedLink)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message a;
    a.src = 0;
    a.dst = 1;
    a.bytes = 320; // 10 cycles serialization.
    Message b = a;
    const auto one = simulateTraffic(config, {a});
    const auto two = simulateTraffic(config, {a, b});
    // The second message waits for the link: makespan roughly doubles
    // the serialization component.
    EXPECT_GE(two.makespan, one.makespan + 10);
}

TEST(SimulateTraffic, DisjointPathsOverlap)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message a;
    a.src = 0;
    a.dst = 1;
    a.bytes = 320;
    Message b;
    b.src = 14;
    b.dst = 15;
    b.bytes = 320;
    const auto both = simulateTraffic(config, {a, b});
    const auto alone = simulateTraffic(config, {a});
    EXPECT_EQ(both.makespan, alone.makespan);
}

TEST(SimulateTraffic, InjectCycleDelaysService)
{
    const auto config = config4x4(TopologyKind::Mesh);
    Message m;
    m.src = 0;
    m.dst = 1;
    m.bytes = 32;
    m.injectCycle = 1000;
    const auto res = simulateTraffic(config, {m});
    EXPECT_GE(res.makespan, 1000u);
}

/** Every NocResult field equal, doubles bit-exact. */
void
expectSameResult(const NocResult &a, const NocResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.numMessages, b.numMessages);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
    EXPECT_EQ(a.hopBytes, b.hopBytes);
    EXPECT_EQ(a.routerBytes, b.routerBytes);
    EXPECT_EQ(a.totalHops, b.totalHops);
    EXPECT_EQ(a.routerStops, b.routerStops);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(a.bytesByClass[c], b.bytesByClass[c]);
    EXPECT_EQ(a.reroutedMessages, b.reroutedMessages);
    EXPECT_EQ(a.retriedMessages, b.retriedMessages);
    EXPECT_EQ(a.retryBackoffCycles, b.retryBackoffCycles);
}

TEST(SimulateTraffic, OutOfOrderBatchEqualsStableSortedReplay)
{
    // Out-of-order inject cycles with ties that contend for the
    // same links: the replay must serve the batch in inject order
    // with ties in vector order, i.e. exactly like a caller-side
    // stable sort (which then takes the already-sorted path).
    const auto config = config4x4(TopologyKind::Mesh);
    Rng rng(23);
    std::vector<Message> msgs;
    for (int i = 0; i < 200; ++i) {
        Message m;
        m.src = static_cast<TileId>(rng.uniformInt(0, 15));
        m.dst = static_cast<TileId>(rng.uniformInt(0, 15));
        m.bytes = static_cast<ByteCount>(rng.uniformInt(1, 4096));
        m.injectCycle = static_cast<Cycle>(rng.uniformInt(0, 3)) * 40;
        msgs.push_back(m);
    }
    const auto by_inject = [](const Message &a, const Message &b) {
        return a.injectCycle < b.injectCycle;
    };
    ASSERT_FALSE(std::is_sorted(msgs.begin(), msgs.end(), by_inject));
    std::vector<Message> sorted = msgs;
    std::stable_sort(sorted.begin(), sorted.end(), by_inject);
    const auto want = simulateTraffic(config, sorted);
    expectSameResult(simulateTraffic(config, msgs), want);

    // Tie order is observable: reversing each tie group changes the
    // outcome, so a reordering sort would fail the check above.
    std::vector<Message> reversed_ties = sorted;
    for (auto it = reversed_ties.begin(); it != reversed_ties.end();) {
        const auto end = std::upper_bound(it, reversed_ties.end(), *it,
                                          by_inject);
        std::reverse(it, end);
        it = end;
    }
    EXPECT_NE(simulateTraffic(config, reversed_ties).avgLatency,
              want.avgLatency);
}

TEST(SimulateTraffic, ByteAccountingConserved)
{
    Rng rng(5);
    std::vector<Message> msgs;
    ByteCount total = 0;
    for (int i = 0; i < 200; ++i) {
        Message m;
        m.src = static_cast<TileId>(rng.uniformInt(0, 15));
        m.dst = static_cast<TileId>(rng.uniformInt(0, 15));
        m.bytes = static_cast<ByteCount>(rng.uniformInt(1, 2048));
        m.cls = static_cast<TrafficClass>(rng.uniformInt(0, 3));
        total += m.bytes;
        msgs.push_back(m);
    }
    const auto res = simulateTraffic(config4x4(TopologyKind::Mesh),
                                     msgs);
    EXPECT_EQ(res.totalBytes, total);
    ByteCount by_class = 0;
    for (int c = 0; c < 4; ++c)
        by_class += res.bytesByClass[c];
    EXPECT_EQ(by_class, total);
    // Every hop of every message carries its bytes.
    EXPECT_GE(res.hopBytes, res.routerBytes);
}

TEST(SimulateTraffic, StatsExportComplete)
{
    Message m;
    m.src = 0;
    m.dst = 3;
    m.bytes = 128;
    m.cls = TrafficClass::Reuse;
    const auto res = simulateTraffic(config4x4(TopologyKind::Ring),
                                     {m});
    const auto stats = res.toStats();
    EXPECT_GT(stats.get("noc.makespan_cycles"), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("noc.reuse_bytes"), 128.0);
    EXPECT_DOUBLE_EQ(stats.get("noc.total_bytes"), 128.0);
}

/**
 * Property: for random batches, the reconfigurable topology's vertical
 * traffic never loses to the plain ring (same paths, fewer stops).
 */
class TopologyComparison : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TopologyComparison, ReLinkNoWorseThanRingForColumnTraffic)
{
    Rng rng(GetParam());
    std::vector<Message> msgs;
    for (int i = 0; i < 64; ++i) {
        Message m;
        const int col = static_cast<int>(rng.uniformInt(0, 15));
        m.src = static_cast<TileId>(rng.uniformInt(0, 15) * 16 + col);
        m.dst = static_cast<TileId>(rng.uniformInt(0, 15) * 16 + col);
        m.bytes = static_cast<ByteCount>(rng.uniformInt(64, 4096));
        msgs.push_back(m);
    }
    NocConfig ring;
    ring.topology = TopologyKind::Ring;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    const auto ring_res = simulateTraffic(ring, msgs);
    const auto re_res = simulateTraffic(re, std::move(msgs));
    EXPECT_LE(re_res.makespan, ring_res.makespan);
    EXPECT_LE(re_res.routerStops, ring_res.routerStops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyComparison,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(TrafficPatterns, EndpointsInRangeForEveryPattern)
{
    Rng rng(5);
    for (auto pattern : allTrafficPatterns()) {
        const auto msgs = generateTraffic(pattern, 4, 4, 128, 64,
                                          rng);
        ASSERT_EQ(msgs.size(), 128u) << trafficPatternName(pattern);
        for (const auto &m : msgs) {
            EXPECT_GE(m.src, 0);
            EXPECT_LT(m.src, 16);
            EXPECT_GE(m.dst, 0);
            EXPECT_LT(m.dst, 16);
            EXPECT_EQ(m.bytes, 64u);
        }
    }
}

TEST(TrafficPatterns, HotspotTargetsOneTile)
{
    Rng rng(9);
    const auto msgs = generateTraffic(TrafficPattern::Hotspot, 4, 4,
                                      64, 32, rng);
    for (const auto &m : msgs)
        EXPECT_EQ(m.dst, 8);
}

TEST(TrafficPatterns, ColumnGatherStaysInColumn)
{
    Rng rng(11);
    const auto msgs = generateTraffic(TrafficPattern::ColumnGather,
                                      4, 4, 256, 32, rng);
    for (const auto &m : msgs) {
        EXPECT_EQ(m.src % 4, m.dst % 4);
        EXPECT_EQ(m.cls, TrafficClass::Spatial);
    }
}

TEST(TrafficPatterns, RowShiftMovesOneColumnEast)
{
    Rng rng(13);
    const auto msgs = generateTraffic(TrafficPattern::RowShift, 4, 4,
                                      16, 32, rng);
    for (const auto &m : msgs) {
        EXPECT_EQ(m.src / 4, m.dst / 4); // same row.
        EXPECT_EQ((m.src % 4 + 1) % 4, m.dst % 4);
        EXPECT_EQ(m.cls, TrafficClass::Temporal);
    }
}

TEST(TrafficPatterns, RelinkBeatsPlainRingOnColumnGather)
{
    // The design claim behind the dual-layer interconnect.
    Rng rng(17);
    auto msgs = generateTraffic(TrafficPattern::ColumnGather, 16, 16,
                                1024, 512, rng);
    NocConfig ring;
    ring.topology = TopologyKind::Ring;
    NocConfig re = ring;
    re.topology = TopologyKind::Reconfigurable;
    const auto ring_res = simulateTraffic(ring, msgs);
    const auto re_res = simulateTraffic(re, std::move(msgs));
    EXPECT_LT(re_res.makespan, ring_res.makespan);
}

// ---------------------------------------------------------------------
// Reference copy of the routing oracle before it had one entry point:
// every topology had route() (fault-free hops) and routeResilient()
// (hops plus rerouted/degraded flags under faults), both returning
// fresh vectors. Topology::route must reproduce both exactly.
// ---------------------------------------------------------------------

namespace reference {

bool
crossesDead(const std::vector<Hop> &hops, const NocFaults &faults)
{
    if (faults.deadLinks.empty())
        return false;
    for (const Hop &h : hops) {
        if (faults.linkDead(h.link))
            return true;
    }
    return false;
}

struct Grid
{
    int rows;
    int cols;

    TileId tile(int r, int c) const { return r * cols + c; }

    void
    step(int &r, int &c, GridDir dir) const
    {
        switch (dir) {
          case GridDir::East: c = (c + 1) % cols; break;
          case GridDir::West: c = (c + cols - 1) % cols; break;
          case GridDir::South: r = (r + 1) % rows; break;
          case GridDir::North: r = (r + rows - 1) % rows; break;
        }
    }

    bool
    ringPathDead(int r, int c, GridDir dir, int steps,
                 const NocFaults &faults) const
    {
        if (faults.deadLinks.empty())
            return false;
        while (steps-- > 0) {
            if (faults.linkDead(gridLinkId(tile(r, c), dir)))
                return true;
            step(r, c, dir);
        }
        return false;
    }

    void
    appendRingHops(std::vector<Hop> &hops, int &r, int &c, GridDir dir,
                   int steps, int span) const
    {
        int until_stop = span;
        while (steps-- > 0) {
            const bool last = steps == 0;
            const bool stop = last || --until_stop == 0;
            if (stop)
                until_stop = span;
            hops.push_back({gridLinkId(tile(r, c), dir), stop});
            step(r, c, dir);
        }
    }

    std::vector<Hop>
    meshBuild(TileId src, TileId dst, bool x_first) const
    {
        std::vector<Hop> hops;
        int r = src / cols;
        int c = src % cols;
        const int rd = dst / cols;
        const int cd = dst % cols;
        for (int phase = 0; phase < 2; ++phase) {
            const bool horizontal = (phase == 0) == x_first;
            if (horizontal) {
                while (c != cd) {
                    const GridDir d = cd > c ? GridDir::East
                                             : GridDir::West;
                    hops.push_back({gridLinkId(tile(r, c), d), true});
                    c += cd > c ? 1 : -1;
                }
            } else {
                while (r != rd) {
                    const GridDir d = rd > r ? GridDir::South
                                             : GridDir::North;
                    hops.push_back({gridLinkId(tile(r, c), d), true});
                    r += rd > r ? 1 : -1;
                }
            }
        }
        return hops;
    }

    Route
    meshResilient(TileId src, TileId dst, const NocFaults &faults) const
    {
        Route out;
        out.hops = meshBuild(src, dst, true);
        if (!crossesDead(out.hops, faults))
            return out;
        std::vector<Hop> alt = meshBuild(src, dst, false);
        if (!crossesDead(alt, faults)) {
            out.hops = std::move(alt);
            out.rerouted = true;
            return out;
        }
        out.degraded = true;
        return out;
    }

    Route
    ringResilient(TileId src, TileId dst, int span_cfg,
                  const NocFaults &faults) const
    {
        Route out;
        int r = src / cols;
        int c = src % cols;
        const int rd = dst / cols;
        const int cd = dst % cols;
        if (c != cd) {
            const int fwd = (cd - c + cols) % cols;
            const bool min_east = fwd <= cols / 2;
            const int min_steps = min_east ? fwd : cols - fwd;
            GridDir dir = min_east ? GridDir::East : GridDir::West;
            int steps = min_steps;
            if (ringPathDead(r, c, dir, steps, faults)) {
                const GridDir alt = min_east ? GridDir::West
                                             : GridDir::East;
                if (!ringPathDead(r, c, alt, cols - min_steps,
                                  faults)) {
                    dir = alt;
                    steps = cols - min_steps;
                    out.rerouted = true;
                } else {
                    out.degraded = true;
                }
            }
            appendRingHops(out.hops, r, c, dir, steps, 1);
        }
        if (r != rd) {
            int span = span_cfg;
            if (const int ov = faults.spanOverride(c))
                span = ov;
            const int fwd = (rd - r + rows) % rows;
            const bool min_south = fwd <= rows / 2;
            const int min_steps = min_south ? fwd : rows - fwd;
            GridDir dir = min_south ? GridDir::South : GridDir::North;
            int steps = min_steps;
            if (ringPathDead(r, c, dir, steps, faults)) {
                const GridDir alt = min_south ? GridDir::North
                                              : GridDir::South;
                if (!ringPathDead(r, c, alt, rows - min_steps,
                                  faults)) {
                    dir = alt;
                    steps = rows - min_steps;
                    out.rerouted = true;
                } else {
                    out.degraded = true;
                }
            }
            appendRingHops(out.hops, r, c, dir, steps, span);
        }
        return out;
    }
};

/** The old routeResilient(src, dst, cls, faults). */
Route
routeResilient(const NocConfig &config, TileId src, TileId dst,
               const NocFaults &faults)
{
    const Grid grid{config.rows, config.cols};
    switch (config.topology) {
      case TopologyKind::Mesh:
        return grid.meshResilient(src, dst, faults);
      case TopologyKind::Ring:
        return grid.ringResilient(src, dst, 1, faults);
      case TopologyKind::Reconfigurable:
        return grid.ringResilient(src, dst, config.reLinkSpan, faults);
      case TopologyKind::Crossbar:
        break;
    }
    // Crossbar inherited the base class: fault-free hops, flagged
    // degraded when they cross a dead link.
    Route out;
    if (src != dst)
        out.hops = {{static_cast<LinkId>(dst), true}};
    out.degraded = crossesDead(out.hops, faults);
    return out;
}

/** The old fault-free route(src, dst, cls). */
std::vector<Hop>
route(const NocConfig &config, TileId src, TileId dst)
{
    const Grid grid{config.rows, config.cols};
    if (config.topology == TopologyKind::Mesh)
        return grid.meshBuild(src, dst, true);
    return routeResilient(config, src, dst, NocFaults{}).hops;
}

} // namespace reference

bool
sameHops(const std::vector<Hop> &a, const std::vector<Hop> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Hop &x, const Hop &y) {
                          return x.link == y.link &&
                              x.routerStop == y.routerStop;
                      });
}

struct RouteGrid
{
    TopologyKind kind;
    int dim;
};

std::string
gridName(const RouteGrid &g)
{
    return std::string(topologyKindName(g.kind)) + "_" +
        std::to_string(g.dim) + "x" + std::to_string(g.dim);
}

/** Print the grid's name, not its bytes, in test names and failures. */
void
PrintTo(const RouteGrid &g, std::ostream *os)
{
    *os << gridName(g);
}

class RouteEquivalence : public ::testing::TestWithParam<RouteGrid>
{
};

TEST_P(RouteEquivalence, MatchesPreviousEntryPoints)
{
    NocConfig config = config4x4(GetParam().kind);
    config.rows = GetParam().dim;
    config.cols = GetParam().dim;
    auto topo = Topology::create(config);

    // Every 7th link dead (dense enough that some pairs reroute and
    // some have no fault-free path) plus stuck bypass switches in
    // two columns.
    NocFaults faults;
    for (LinkId l = 3; l < topo->numLinks(); l += 7)
        faults.deadLinks.push_back(l);
    faults.columnSpanOverride.assign(
        static_cast<std::size_t>(config.cols), 0);
    faults.columnSpanOverride[1] = 2;
    faults.columnSpanOverride[2] = 3;

    const NocFaults none;
    // One Route for every call, as the replay loops use it.
    Route rt;
    std::uint64_t rerouted = 0;
    std::uint64_t degraded = 0;
    const int tiles = config.numTiles();
    for (TileId src = 0; src < tiles; ++src) {
        for (TileId dst = 0; dst < tiles; ++dst) {
            SCOPED_TRACE(::testing::Message()
                         << "src=" << src << " dst=" << dst);
            topo->route(src, dst, TrafficClass::Spatial, none, rt);
            ASSERT_TRUE(sameHops(rt.hops,
                                 reference::route(config, src, dst)));
            ASSERT_FALSE(rt.rerouted);
            ASSERT_FALSE(rt.degraded);

            const Route want =
                reference::routeResilient(config, src, dst, faults);
            topo->route(src, dst, TrafficClass::Spatial, faults, rt);
            ASSERT_TRUE(sameHops(rt.hops, want.hops));
            ASSERT_EQ(rt.rerouted, want.rerouted);
            ASSERT_EQ(rt.degraded, want.degraded);
            rerouted += rt.rerouted;
            degraded += rt.degraded;
        }
    }
    // The fault set must exercise the flags it is meant to cover.
    EXPECT_GT(degraded, 0u);
    if (GetParam().kind != TopologyKind::Crossbar)
        EXPECT_GT(rerouted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, RouteEquivalence,
    ::testing::Values(RouteGrid{TopologyKind::Mesh, 4},
                      RouteGrid{TopologyKind::Mesh, 16},
                      RouteGrid{TopologyKind::Ring, 4},
                      RouteGrid{TopologyKind::Ring, 16},
                      RouteGrid{TopologyKind::Crossbar, 4},
                      RouteGrid{TopologyKind::Crossbar, 16},
                      RouteGrid{TopologyKind::Reconfigurable, 4},
                      RouteGrid{TopologyKind::Reconfigurable, 16}),
    [](const ::testing::TestParamInfo<RouteGrid> &info) {
        return gridName(info.param);
    });

/** Routes must terminate at the destination for every topology. */
class RouteValidity : public ::testing::TestWithParam<TopologyKind>
{
};

TEST_P(RouteValidity, EveryPairRoutesWithFinalStop)
{
    NocConfig config = config4x4(GetParam());
    auto topo = Topology::create(config);
    for (TileId src = 0; src < 16; ++src) {
        for (TileId dst = 0; dst < 16; ++dst) {
            const auto hops = hopsOf(*topo, src, dst);
            if (src == dst) {
                EXPECT_TRUE(hops.empty());
                continue;
            }
            ASSERT_FALSE(hops.empty());
            // The final hop always stops at a router (the receiver).
            EXPECT_TRUE(hops.back().routerStop);
            for (const auto &hop : hops) {
                EXPECT_GE(hop.link, 0);
                EXPECT_LT(hop.link, topo->numLinks());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RouteValidity,
                         ::testing::Values(TopologyKind::Mesh,
                                           TopologyKind::Ring,
                                           TopologyKind::Crossbar,
                                           TopologyKind::Reconfigurable));

} // namespace
} // namespace ditile::noc
