#include "hw/topology.hpp"

#include <algorithm>
#include <queue>
#include <set>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace qedm::hw {

Topology::Topology(int num_qubits,
                   const std::vector<std::pair<int, int>> &edges)
    : numQubits_(num_qubits)
{
    QEDM_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
                 "topology qubit count must be in [1, 1024]");
    adj_.assign(num_qubits, {});
    std::set<std::pair<int, int>> seen;
    for (auto [a, b] : edges) {
        QEDM_REQUIRE(a >= 0 && a < num_qubits && b >= 0 &&
                         b < num_qubits && a != b,
                     "invalid coupling edge");
        if (a > b)
            std::swap(a, b);
        if (!seen.insert({a, b}).second)
            continue;
        edges_.push_back(Edge{a, b});
        adj_[a].push_back(b);
        adj_[b].push_back(a);
    }
    for (auto &nbrs : adj_)
        std::sort(nbrs.begin(), nbrs.end());
    std::sort(edges_.begin(), edges_.end(), [](const Edge &x,
                                               const Edge &y) {
        return std::pair(x.a, x.b) < std::pair(y.a, y.b);
    });
    adjEdge_.assign(static_cast<std::size_t>(num_qubits), {});
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        adjEdge_[static_cast<std::size_t>(edges_[i].a)]
            .emplace_back(edges_[i].b, static_cast<int>(i));
        adjEdge_[static_cast<std::size_t>(edges_[i].b)]
            .emplace_back(edges_[i].a, static_cast<int>(i));
    }
    for (auto &entries : adjEdge_)
        std::sort(entries.begin(), entries.end());
    adjWords_ = (static_cast<std::size_t>(numQubits_) + 63) / 64;
    adjBits_.assign(static_cast<std::size_t>(numQubits_) * adjWords_,
                    0);
    for (const Edge &e : edges_) {
        adjBits_[static_cast<std::size_t>(e.a) * adjWords_ +
                 (static_cast<std::size_t>(e.b) >> 6)] |=
            std::uint64_t{1} << (static_cast<std::size_t>(e.b) & 63);
        adjBits_[static_cast<std::size_t>(e.b) * adjWords_ +
                 (static_cast<std::size_t>(e.a) >> 6)] |=
            std::uint64_t{1} << (static_cast<std::size_t>(e.a) & 63);
    }
}

std::vector<int>
Topology::bfsFrom(int src) const
{
    std::vector<int> dist(static_cast<std::size_t>(numQubits_), -1);
    std::queue<int> q;
    dist[static_cast<std::size_t>(src)] = 0;
    q.push(src);
    while (!q.empty()) {
        const int u = q.front();
        q.pop();
        for (int v : adj_[static_cast<std::size_t>(u)]) {
            if (dist[static_cast<std::size_t>(v)] < 0) {
                dist[static_cast<std::size_t>(v)] =
                    dist[static_cast<std::size_t>(u)] + 1;
                q.push(v);
            }
        }
    }
    return dist;
}

bool
Topology::adjacent(int a, int b) const
{
    return edgeIndex(a, b) >= 0;
}

const std::vector<int> &
Topology::neighbors(int q) const
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    return adj_[q];
}

const std::vector<std::pair<int, int>> &
Topology::neighborEdges(int q) const
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    return adjEdge_[static_cast<std::size_t>(q)];
}

int
Topology::degree(int q) const
{
    return static_cast<int>(neighbors(q).size());
}

int
Topology::distance(int a, int b) const
{
    QEDM_REQUIRE(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_,
                 "qubit index out of range");
    return bfsFrom(a)[static_cast<std::size_t>(b)];
}

std::vector<int>
Topology::shortestPath(int a, int b) const
{
    QEDM_REQUIRE(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_,
                 "qubit index out of range");
    // One BFS row from b serves every step of the walk.
    const std::vector<int> to_b = bfsFrom(b);
    if (to_b[static_cast<std::size_t>(a)] < 0)
        return {};
    std::vector<int> path{a};
    int cur = a;
    while (cur != b) {
        for (int v : adj_[cur]) {
            if (to_b[static_cast<std::size_t>(v)] ==
                to_b[static_cast<std::size_t>(cur)] - 1) {
                cur = v;
                path.push_back(v);
                break;
            }
        }
    }
    return path;
}

bool
Topology::isConnected() const
{
    const std::vector<int> from_zero = bfsFrom(0);
    for (int q = 1; q < numQubits_; ++q) {
        if (from_zero[static_cast<std::size_t>(q)] < 0)
            return false;
    }
    return true;
}

bool
Topology::isConnectedSubset(const std::vector<int> &qubits) const
{
    if (qubits.empty())
        return true;
    const std::set<int> subset(qubits.begin(), qubits.end());
    for (int q : subset)
        QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    std::set<int> visited;
    std::queue<int> bfs;
    bfs.push(*subset.begin());
    visited.insert(*subset.begin());
    while (!bfs.empty()) {
        const int u = bfs.front();
        bfs.pop();
        for (int v : adj_[u]) {
            if (subset.count(v) && !visited.count(v)) {
                visited.insert(v);
                bfs.push(v);
            }
        }
    }
    return visited.size() == subset.size();
}

int
Topology::edgeIndex(int a, int b) const
{
    QEDM_REQUIRE(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_,
                 "qubit index out of range");
    // Binary search the per-vertex (neighbor, edge) table: O(log deg)
    // against the old O(E) scan, which dominated Dijkstra inner loops
    // on 127-qubit devices.
    const auto &entries = adjEdge_[static_cast<std::size_t>(a)];
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), std::pair<int, int>{b, -1});
    if (it != entries.end() && it->first == b)
        return it->second;
    return -1;
}

Topology
Topology::linear(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < n; ++i)
        edges.emplace_back(i, i + 1);
    return Topology(n, edges);
}

Topology
Topology::ring(int n)
{
    QEDM_REQUIRE(n >= 3, "a ring needs at least 3 qubits");
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i)
        edges.emplace_back(i, (i + 1) % n);
    return Topology(n, edges);
}

Topology
Topology::grid(int rows, int cols)
{
    QEDM_REQUIRE(rows >= 1 && cols >= 1, "grid dimensions must be >= 1");
    std::vector<std::pair<int, int>> edges;
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                edges.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                edges.emplace_back(id(r, c), id(r + 1, c));
        }
    }
    return Topology(rows * cols, edges);
}

Topology
Topology::fullyConnected(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j)
            edges.emplace_back(i, j);
    }
    return Topology(n, edges);
}

Topology
Topology::melbourne()
{
    // ibmq-16-melbourne: top row 0..6, bottom row 13..7, six rungs.
    //
    //   0 - 1 - 2 - 3 - 4 - 5 - 6
    //       |   |   |   |   |   |
    //  13 -12 -11 -10 - 9 - 8 - 7   (bottom row runs 13..7)
    return Topology(14, {
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},   // top row
        {13, 12}, {12, 11}, {11, 10}, {10, 9}, {9, 8}, {8, 7}, // bottom
        {1, 13}, {2, 12}, {3, 11}, {4, 10}, {5, 9}, {6, 8},    // rungs
    });
}

Topology
Topology::tokyo()
{
    // IBM Q20 Tokyo: a 4x5 grid with diagonal couplers inside most
    // plaquettes (the machine used by several mapping papers).
    return Topology(20, {
        {0, 1},   {1, 2},   {2, 3},   {3, 4},               // row 0
        {5, 6},   {6, 7},   {7, 8},   {8, 9},               // row 1
        {10, 11}, {11, 12}, {12, 13}, {13, 14},             // row 2
        {15, 16}, {16, 17}, {17, 18}, {18, 19},             // row 3
        {0, 5},   {1, 6},   {2, 7},   {3, 8},   {4, 9},     // verticals
        {5, 10},  {6, 11},  {7, 12},  {8, 13},  {9, 14},
        {10, 15}, {11, 16}, {12, 17}, {13, 18}, {14, 19},
        {1, 7},   {2, 6},   {3, 9},   {4, 8},               // diagonals
        {5, 11},  {6, 10},  {7, 13},  {8, 12},
        {11, 17}, {12, 16}, {13, 19}, {14, 18},
    });
}

Topology
Topology::heavyHex27()
{
    // 27-qubit IBM Falcon (ibmq-montreal) heavy-hex coupling map.
    return Topology(27, {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},
        {4, 7},   {5, 8},   {6, 7},   {7, 10},  {8, 9},
        {8, 11},  {10, 12}, {11, 14}, {12, 13}, {12, 15},
        {13, 14}, {14, 16}, {15, 18}, {16, 19}, {17, 18},
        {18, 21}, {19, 20}, {19, 22}, {21, 23}, {22, 25},
        {23, 24}, {24, 25}, {25, 26},
    });
}

Topology
Topology::heavyHex(int rows, int cols)
{
    QEDM_REQUIRE(rows >= 3 && rows % 2 == 1,
                 "heavy-hex rows must be odd and >= 3");
    QEDM_REQUIRE(cols >= 3 && cols % 4 == 3,
                 "heavy-hex cols must be congruent to 3 mod 4");
    auto colRange = [&](int r) -> std::pair<int, int> {
        if (r == 0)
            return {0, cols - 2};
        if (r == rows - 1)
            return {1, cols - 1};
        return {0, cols - 1};
    };
    // Assign ids row by row, each gap's bridge qubits right after the
    // row above it — the numbering IBM publishes for Eagle/Osprey.
    std::vector<std::vector<int>> row_id(
        static_cast<std::size_t>(rows),
        std::vector<int>(static_cast<std::size_t>(cols), -1));
    std::vector<std::vector<int>> bridge_id(
        static_cast<std::size_t>(rows - 1),
        std::vector<int>(static_cast<std::size_t>(cols), -1));
    int next = 0;
    for (int r = 0; r < rows; ++r) {
        const auto [lo, hi] = colRange(r);
        for (int c = lo; c <= hi; ++c)
            row_id[r][c] = next++;
        if (r + 1 < rows) {
            const auto [nlo, nhi] = colRange(r + 1);
            const int offset = (r % 2 == 0) ? 0 : 2;
            for (int c = offset; c < cols; c += 4) {
                if (c >= lo && c <= hi && c >= nlo && c <= nhi)
                    bridge_id[r][c] = next++;
            }
        }
    }
    std::vector<std::pair<int, int>> edges;
    for (int r = 0; r < rows; ++r) {
        const auto [lo, hi] = colRange(r);
        for (int c = lo; c < hi; ++c)
            edges.emplace_back(row_id[r][c], row_id[r][c + 1]);
    }
    for (int r = 0; r + 1 < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (bridge_id[r][c] >= 0) {
                edges.emplace_back(row_id[r][c], bridge_id[r][c]);
                edges.emplace_back(bridge_id[r][c], row_id[r + 1][c]);
            }
        }
    }
    return Topology(next, edges);
}

Topology
Topology::heavyHex127()
{
    return heavyHex(7, 15);
}

Topology
Topology::heavyHex433()
{
    return heavyHex(13, 27);
}

std::uint64_t
Topology::fingerprint() const
{
    Fingerprint fp(0x7090ull);
    fp.add(numQubits_).add(std::uint64_t(edges_.size()));
    for (const Edge &e : edges_)
        fp.add(e.a).add(e.b);
    return fp.value();
}

} // namespace qedm::hw
