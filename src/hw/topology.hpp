/**
 * @file
 * Device coupling graphs.
 *
 * A Topology is the undirected coupling graph of a superconducting
 * device: vertices are physical qubits, edges are coupling resonators
 * over which a CX can be executed directly. Includes the
 * ibmq-16-melbourne (14-qubit) graph used throughout the paper.
 * Hop distances, shortest paths and connectivity run a BFS per call
 * at every device size; no all-pairs table is stored.
 */

#pragma once

#include <cstddef>
#include <string>
#include <cstdint>
#include <utility>
#include <vector>

namespace qedm::hw {

/** Undirected edge between two physical qubits (normalized a < b). */
struct Edge
{
    int a;
    int b;

    bool operator==(const Edge &other) const = default;
};

/** Undirected coupling graph of a quantum device. */
class Topology
{
  public:
    /** Maximum supported device size. */
    static constexpr int kMaxQubits = 1024;

    /**
     * @param num_qubits number of physical qubits (1..kMaxQubits)
     * @param edges undirected couplings (validated, deduplicated)
     */
    Topology(int num_qubits, const std::vector<std::pair<int, int>> &edges);

    int numQubits() const { return numQubits_; }
    const std::vector<Edge> &edges() const { return edges_; }
    std::size_t numEdges() const { return edges_.size(); }

    /** True when (a, b) is a coupled pair. */
    bool adjacent(int a, int b) const;

    /** Neighbors of qubit @p q, ascending. */
    const std::vector<int> &neighbors(int q) const;

    /**
     * (neighbor, edge index) pairs of qubit @p q, sorted by neighbor —
     * the same vertices neighbors(q) yields, in the same order, with
     * the incident edge index attached. Hot loops that need both (the
     * placement search charges an edge factor per coupling it uses)
     * iterate this instead of calling edgeIndex() per neighbor.
     */
    const std::vector<std::pair<int, int>> &neighborEdges(int q) const;

    /** Structural content hash (vertex count + edge list). */
    std::uint64_t fingerprint() const;

    /** Vertex degree. */
    int degree(int q) const;

    /**
     * Hop distance between qubits; -1 if disconnected. Each call runs
     * one O(V + E) BFS — nothing is precomputed, so 433-qubit
     * topologies cost no O(V^2) memory. Placement and routing read
     * weighted distances from transpile::sharedDistanceProvider.
     */
    int distance(int a, int b) const;

    /** One shortest path from @p a to @p b inclusive; empty if none. */
    std::vector<int> shortestPath(int a, int b) const;

    /** True when the whole graph is connected. */
    bool isConnected() const;

    /** True when the induced subgraph on @p qubits is connected. */
    bool isConnectedSubset(const std::vector<int> &qubits) const;

    /** Canonical index of edge (a, b); -1 when not an edge. */
    int edgeIndex(int a, int b) const;

    /** @name Adjacency bitset rows
     * One bit per (vertex, vertex) pair, packed 64 per word and built
     * at construction (O(V*V/64) memory — 24 KiB at 433 qubits). Hot
     * search loops (VF2 enumeration, placement branch-and-bound) probe
     * these instead of the O(log deg) edgeIndex() binary search. */
    /** @{ */
    /** Words per adjacency row: (numQubits() + 63) / 64. */
    std::size_t adjacencyWords() const { return adjWords_; }
    /** Bitset over the neighbors of @p q (adjacencyWords() words). */
    const std::uint64_t *adjacencyRow(int q) const
    {
        return adjBits_.data() +
               static_cast<std::size_t>(q) * adjWords_;
    }
    /** Branch-free coupling probe; same answer as adjacent(a, b). */
    bool adjacentBit(int a, int b) const
    {
        return (adjacencyRow(a)[static_cast<std::size_t>(b) >> 6] >>
                (static_cast<std::size_t>(b) & 63)) &
               1U;
    }
    /** @} */

    /** @name Standard graph factories */
    /** @{ */
    static Topology linear(int n);
    static Topology ring(int n);
    static Topology grid(int rows, int cols);
    static Topology fullyConnected(int n);
    /** The 14-qubit ibmq-16-melbourne ladder (2x7 with rungs). */
    static Topology melbourne();
    /** The 20-qubit IBM Q20 Tokyo graph (4x5 grid with diagonals). */
    static Topology tokyo();
    /** The 27-qubit IBM Falcon heavy-hex graph (ibmq-montreal). */
    static Topology heavyHex27();
    /**
     * Generic heavy-hex lattice: @p rows rows of qubits (the first row
     * drops its last column, the last row drops its first), joined by
     * bridge qubits every 4 columns with the per-gap offset
     * alternating 0/2 — the structure of IBM's Falcon/Eagle/Osprey
     * family. rows must be odd and >= 3, cols ≡ 3 (mod 4).
     */
    static Topology heavyHex(int rows, int cols);
    /** The 127-qubit IBM Eagle-class heavy-hex graph (7 x 15). */
    static Topology heavyHex127();
    /** The 433-qubit IBM Osprey-class heavy-hex graph (13 x 27). */
    static Topology heavyHex433();
    /** @} */

  private:
    std::vector<int> bfsFrom(int src) const;

    int numQubits_;
    std::vector<Edge> edges_;
    std::vector<std::vector<int>> adj_;
    /** Per-vertex (neighbor, edge index) pairs, sorted by neighbor. */
    std::vector<std::vector<std::pair<int, int>>> adjEdge_;
    /** Flat adjacency bitset: numQubits rows of adjWords_ words. */
    std::vector<std::uint64_t> adjBits_;
    std::size_t adjWords_ = 0;
};

} // namespace qedm::hw
