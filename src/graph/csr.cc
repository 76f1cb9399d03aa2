/**
 * @file
 * CSR construction and queries.
 */

#include "graph/csr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ditile::graph {

Csr::Csr(VertexId num_vertices)
    : numVertices_(num_vertices),
      rowPtr_(static_cast<std::size_t>(num_vertices) + 1, 0)
{
    DITILE_ASSERT(num_vertices >= 0);
}

Csr
Csr::fromEdges(VertexId num_vertices, const std::vector<Edge> &edges)
{
    // Canonicalize, drop self loops, sort, and de-duplicate.
    std::vector<Edge> canon;
    canon.reserve(edges.size());
    for (auto [u, v] : edges) {
        DITILE_ASSERT(u >= 0 && u < num_vertices &&
                      v >= 0 && v < num_vertices,
                      "edge (", u, ",", v, ") out of range [0,",
                      num_vertices, ")");
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        canon.emplace_back(u, v);
    }
    std::sort(canon.begin(), canon.end());
    canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
    return fromSortedEdges(num_vertices, canon);
}

Csr
Csr::fromSortedEdges(VertexId num_vertices, const std::vector<Edge> &edges)
{
    Csr g(num_vertices);

    // Count symmetric degrees, then fill.
    std::vector<EdgeId> degree(static_cast<std::size_t>(num_vertices), 0);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto [u, v] = edges[i];
        DITILE_ASSERT(u >= 0 && u < num_vertices &&
                      v >= 0 && v < num_vertices,
                      "edge (", u, ",", v, ") out of range [0,",
                      num_vertices, ")");
        DITILE_ASSERT(u < v && (i == 0 || edges[i - 1] < edges[i]),
                      "edge (", u, ",", v, ") breaks canonical order");
        ++degree[u];
        ++degree[v];
    }
    for (VertexId v = 0; v < num_vertices; ++v)
        g.rowPtr_[v + 1] = g.rowPtr_[v] + degree[v];
    g.adj_.resize(static_cast<std::size_t>(g.rowPtr_[num_vertices]));

    std::vector<EdgeId> cursor(g.rowPtr_.begin(), g.rowPtr_.end() - 1);
    for (auto [u, v] : edges) {
        g.adj_[static_cast<std::size_t>(cursor[u]++)] = v;
        g.adj_[static_cast<std::size_t>(cursor[v]++)] = u;
    }
    // Adjacency lists are sorted because the edges are sorted by (u,v)
    // and we append v's in ascending order for each u; the reverse
    // entries also arrive in ascending source order.
    return g;
}

Csr
Csr::fromRows(VertexId num_vertices, std::vector<EdgeId> row_ptr,
              std::vector<VertexId> adj)
{
    DITILE_ASSERT(num_vertices >= 0);
    DITILE_ASSERT(row_ptr.size() ==
                      static_cast<std::size_t>(num_vertices) + 1,
                  "row pointer has ", row_ptr.size(), " entries for ",
                  num_vertices, " vertices");
    DITILE_ASSERT(row_ptr.front() == 0 &&
                      row_ptr.back() == static_cast<EdgeId>(adj.size()),
                  "row pointer does not span the adjacency");
    DITILE_ASSERT(std::is_sorted(row_ptr.begin(), row_ptr.end()),
                  "row pointer decreases");
    DITILE_ASSERT(adj.size() % 2 == 0,
                  "symmetric adjacency has an odd entry count");
    Csr g(0);
    g.numVertices_ = num_vertices;
    g.rowPtr_ = std::move(row_ptr);
    g.adj_ = std::move(adj);
    return g;
}

bool
Csr::hasEdge(VertexId u, VertexId v) const
{
    if (u < 0 || u >= numVertices_ || v < 0 || v >= numVertices_)
        return false;
    auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge>
Csr::edgeList() const
{
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(numEdges()));
    for (VertexId u = 0; u < numVertices_; ++u)
        for (VertexId v : neighbors(u))
            if (u < v)
                edges.emplace_back(u, v);
    return edges;
}

double
Csr::avgDegree() const
{
    if (numVertices_ == 0)
        return 0.0;
    return static_cast<double>(numAdjacencies()) /
           static_cast<double>(numVertices_);
}

VertexId
Csr::maxDegree() const
{
    VertexId best = 0;
    for (VertexId v = 0; v < numVertices_; ++v)
        best = std::max(best, degree(v));
    return best;
}

} // namespace ditile::graph
