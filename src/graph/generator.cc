/**
 * @file
 * R-MAT and temporal-evolution generator implementations.
 */

#include "graph/generator.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "graph/edge_key_set.hh"

namespace ditile::graph {

namespace {

/** One R-MAT endpoint pair draw over a 2^levels universe. */
Edge
rmatDraw(int levels, const RmatParams &p, Rng &rng)
{
    const double ab = p.a + p.b;
    const double abc = p.a + p.b + p.c;
    std::int64_t u = 0;
    std::int64_t v = 0;
    for (int i = 0; i < levels; ++i) {
        // Quadrants in r order: [0,a) top-left, [a,ab) top-right (v),
        // [ab,abc) bottom-left (u), [abc,1) bottom-right (both).
        const double r = rng.uniformReal();
        const bool ub = r >= ab;
        const bool vb = (r >= p.a) & ((r < ab) | (r >= abc));
        u = (u << 1) | static_cast<std::int64_t>(ub);
        v = (v << 1) | static_cast<std::int64_t>(vb);
    }
    return {static_cast<VertexId>(u), static_cast<VertexId>(v)};
}

/**
 * Mutable edge-set view: vector for uniform sampling plus hash set for
 * membership; removal is swap-erase.
 */
class EdgeSet
{
  public:
    explicit EdgeSet(std::vector<Edge> edges)
        : edges_(std::move(edges)), keys_(edges_.size())
    {
        for (auto [u, v] : edges_)
            keys_.insert(edgeKey(u, v));
    }

    bool
    insert(VertexId u, VertexId v)
    {
        if (u == v || !keys_.insert(edgeKey(u, v)))
            return false;
        if (u > v)
            std::swap(u, v);
        edges_.emplace_back(u, v);
        return true;
    }

    /** Remove a uniformly random edge; returns it. */
    Edge
    removeRandom(Rng &rng)
    {
        DITILE_ASSERT(!edges_.empty());
        auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(edges_.size()) - 1));
        Edge e = edges_[idx];
        keys_.erase(edgeKey(e.first, e.second));
        edges_[idx] = edges_.back();
        edges_.pop_back();
        return e;
    }

    std::size_t size() const { return edges_.size(); }
    const std::vector<Edge> &edges() const { return edges_; }

  private:
    std::vector<Edge> edges_;
    EdgeKeySet keys_;
};

} // namespace

Csr
generateRmat(VertexId num_vertices, EdgeId num_edges,
             const RmatParams &params, Rng &rng)
{
    DITILE_ASSERT(num_vertices > 1, "R-MAT needs >= 2 vertices");
    int levels = log2Floor(static_cast<std::uint64_t>(num_vertices));
    if ((VertexId(1) << levels) < num_vertices)
        ++levels;

    // Draw until we have the requested count of distinct in-range,
    // non-self-loop edges. The retry bound protects dense corner cases
    // where distinct edges run out (caller asked for near-clique).
    const EdgeId max_possible =
        static_cast<EdgeId>(num_vertices) * (num_vertices - 1) / 2;
    const EdgeId target = std::min(num_edges, max_possible);
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(target));
    EdgeKeySet seen(static_cast<std::size_t>(target));
    std::uint64_t attempts = 0;
    const std::uint64_t attempt_cap =
        static_cast<std::uint64_t>(target) * 64 + 1024;
    while (static_cast<EdgeId>(edges.size()) < target &&
           attempts < attempt_cap) {
        ++attempts;
        auto [u, v] = rmatDraw(levels, params, rng);
        if (u >= num_vertices || v >= num_vertices || u == v)
            continue;
        if (!seen.insert(edgeKey(u, v)))
            continue;
        if (u > v)
            std::swap(u, v);
        edges.emplace_back(u, v);
    }
    // Fallback fill with uniform pairs if R-MAT saturated its hot
    // quadrants before reaching the target (only hit for tiny graphs).
    while (static_cast<EdgeId>(edges.size()) < target) {
        auto u = static_cast<VertexId>(rng.uniformInt(0, num_vertices - 1));
        auto v = static_cast<VertexId>(rng.uniformInt(0, num_vertices - 1));
        if (u == v || !seen.insert(edgeKey(u, v)))
            continue;
        if (u > v)
            std::swap(u, v);
        edges.emplace_back(u, v);
    }
    std::sort(edges.begin(), edges.end());
    return Csr::fromSortedEdges(num_vertices, edges);
}

DynamicGraph
generateDynamicGraph(const EvolutionConfig &config)
{
    DITILE_ASSERT(config.numSnapshots >= 1);
    DITILE_ASSERT(config.dissimilarity >= 0.0 &&
                  config.dissimilarity <= 1.0,
                  "dissimilarity must be a fraction");
    Rng rng(config.seed);

    Csr base = generateRmat(config.numVertices, config.numEdges,
                            config.rmat, rng);

    std::vector<Csr> snapshots;
    std::vector<GraphDelta> deltas;
    snapshots.reserve(static_cast<std::size_t>(config.numSnapshots));

    // `sorted` is the current snapshot's canonical edge list; each step
    // derives the next one from it and the step's delta in O(E).
    std::vector<Edge> sorted = base.edgeList();
    std::vector<Edge> kept;
    EdgeSet working(sorted);
    snapshots.push_back(std::move(base));
    int levels = log2Floor(static_cast<std::uint64_t>(config.numVertices));
    if ((VertexId(1) << levels) < config.numVertices)
        ++levels;

    const auto affected_target = static_cast<std::size_t>(
        config.dissimilarity * static_cast<double>(config.numVertices));

    for (SnapshotId t = 1; t < config.numSnapshots; ++t) {
        std::vector<Edge> added;
        std::vector<Edge> removed;
        EdgeKeySet removed_keys(affected_target);
        EdgeKeySet added_keys(affected_target);
        // Only the affected-set size is read, so a bitmap plus a count
        // stands in for a set.
        std::vector<bool> affected(
            static_cast<std::size_t>(config.numVertices), false);
        std::size_t num_affected = 0;
        const auto touch = [&](VertexId x) {
            if (!affected[static_cast<std::size_t>(x)]) {
                affected[static_cast<std::size_t>(x)] = true;
                ++num_affected;
            }
        };

        // Alternate removal/addition so |E| stays ~constant. R-MAT draws
        // keep the skewed degree profile for additions. The iteration cap
        // bounds pathological small/dense graphs. Re-adding an edge that
        // was removed earlier in the same step would desynchronize the
        // recorded delta from the real snapshot diff, so such draws
        // cancel the removal instead of being logged as additions.
        std::size_t iters = 0;
        const std::size_t iter_cap = affected_target * 16 + 256;
        bool remove_next = true;
        while (num_affected < affected_target && iters < iter_cap) {
            ++iters;
            if (remove_next && working.size() > 0) {
                Edge e = working.removeRandom(rng);
                const std::uint64_t key = edgeKey(e.first, e.second);
                if (added_keys.erase(key)) {
                    // The edge was added earlier this step: removing it
                    // cancels the addition rather than logging a removal.
                    std::erase(added, e);
                } else {
                    removed.push_back(e);
                    removed_keys.insert(key);
                }
                touch(e.first);
                touch(e.second);
            } else {
                auto [u, v] = rmatDraw(levels, config.rmat, rng);
                if (u >= config.numVertices || v >= config.numVertices)
                    continue;
                if (removed_keys.contains(edgeKey(u, v)))
                    continue;
                if (!working.insert(u, v))
                    continue;
                if (u > v)
                    std::swap(u, v);
                added.emplace_back(u, v);
                added_keys.insert(edgeKey(u, v));
                touch(u);
                touch(v);
            }
            remove_next = !remove_next;
        }

        // Every removed edge was in the previous snapshot and no added
        // one was, so next = (prev \ removed) merged with added.
        GraphDelta delta = GraphDelta::fromChanges(std::move(added),
                                                   std::move(removed));
        kept.clear();
        std::set_difference(sorted.begin(), sorted.end(),
                            delta.removedEdges().begin(),
                            delta.removedEdges().end(),
                            std::back_inserter(kept));
        sorted.clear();
        std::merge(kept.begin(), kept.end(), delta.addedEdges().begin(),
                   delta.addedEdges().end(), std::back_inserter(sorted));
        snapshots.push_back(Csr::fromSortedEdges(config.numVertices,
                                                 sorted));
        deltas.push_back(std::move(delta));
    }

    return DynamicGraph(config.name, std::move(snapshots),
                        std::move(deltas), config.featureDim);
}

} // namespace ditile::graph
