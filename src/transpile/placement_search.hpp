/**
 * @file
 * Bounded top-K placement search: pruned VF2 enumeration fused with
 * incremental log-ESP scoring.
 *
 * The pre-rewrite compile path materialized *every* isomorphic
 * placement, scored each from scratch, and sorted the lot to keep the
 * head — cost proportional to the full embedding count even when only
 * K placements survive. This engine keeps a bounded best-K heap and
 * carries a running log-ESP partial sum through the VF2 recursion, so
 * a branch is abandoned the moment an admissible optimistic bound
 * proves it cannot beat the current K-th best placement:
 *
 *  - candidate targets are filtered by degree and by a neighborhood
 *    degree-signature dominance test (a necessary condition for any
 *    completion, so no viable embedding is ever lost);
 *  - pattern vertices are matched rarest-degree-first (fewest feasible
 *    targets first) within connected expansion, shrinking the branch
 *    factor near the root;
 *  - per-vertex and per-edge optimistic suffix bounds (best factor on
 *    the device, counted per remaining gate) close the bound;
 *  - children are explored best delta first, so once one fails the
 *    bound test its own call would run first, every later sibling
 *    fails it too: the loop stops there and counts the rest as the
 *    calls would have (a completion each at a leaf, up to the per-root
 *    limit; a visited, bound-pruned node each elsewhere). It does so
 *    wherever that test is the same for every sibling — at a leaf, and
 *    before any depth whose anchor is not the vertex being placed;
 *  - a depth with no placed pattern neighbor (the start of a
 *    disconnected component, e.g. an isolated data qubit) reads its
 *    vertex's feasible hosts from a list the plan presorts by vertex
 *    score, instead of sorting them at every node;
 *  - twin vertices (same neighbors apart from each other, equal
 *    vertex and edge cost rows — a star's leaves, isolated qubits)
 *    are hosted in ascending order along the matching order, so the
 *    search reaches one embedding per twin orbit; a leaf that passes
 *    the leaf bound scores every permutation of hosts within each
 *    twin class, and the scorer may skip the key of any score below
 *    the list's admission floor (see EmbeddingScorer).
 *
 * Exact scores of surviving completions are recomputed with the
 * product-form EspModel trace walk — bit-identical to scoring the
 * materialized circuit — and the bound carries a small slack so
 * float drift between the additive bound and the exact product can
 * never prune a placement the exact ordering would keep.
 *
 * Serial search (DESIGN.md §18): one worker walks the root frontier
 * — the feasible hosts of the first pattern vertex in the matching
 * order, best optimistic score first — carrying one best-K list and
 * pruning against its own K-th best. Measured on 4 cores, fanning the
 * root branches out over threads was slower than this at every
 * pattern size tried, so the search has no parallel driver.
 *
 * Set-constrained queries (DESIGN.md §13): a HostSetConstraint keeps
 * only embeddings whose host set shares at most a given number of
 * qubits with each of a list of sets. The ensemble builder runs each
 * of its overlap-capped greedy picks as one such top-1 query.
 *
 * Determinism contract: results are ordered by descending ESP with
 * exact ties broken lexicographically on the mapping vector and then
 * on the embedding, a strict total order — the top-K set and its
 * order are independent of enumeration order and pruning strength.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hw/topology.hpp"
#include "transpile/esp_model.hpp"

namespace qedm::transpile {

/**
 * Deterministic placement ordering: true when placement A ranks
 * strictly before placement B — higher ESP first, exact ESP ties
 * broken by lexicographically smaller mapping vector.
 */
bool placementBefore(double esp_a, const std::vector<int> &map_a,
                     double esp_b, const std::vector<int> &map_b);

/** A completed embedding with its caller-canonical map and score. */
struct ScoredEmbedding
{
    /** Pattern vertex -> target vertex. */
    std::vector<int> embedding;
    /** Caller-defined mapping vector (the tie-break key). */
    std::vector<int> map;
    /** Exact product-form ESP. */
    double esp = 0.0;
};

/**
 * Search effort counters (observability for benches and tests). The
 * search is serial, so the counts are exact and reproducible at every
 * --jobs value.
 */
struct PlacementSearchStats
{
    std::uint64_t nodesVisited = 0;
    std::uint64_t completions = 0;
    std::uint64_t prunedBound = 0;
    std::uint64_t prunedSignature = 0;
};

/**
 * Constraint on an embedding's host set: it may share at most
 * @c maxShared target qubits with each set in @c avoid. The shared
 * count only grows as hosts are placed, so the search rejects a host
 * the moment it would push any count past the cap — at the root and
 * at every child, connected or not. With @c maxShared one below the
 * pattern size, it excludes exactly the avoided sets themselves.
 */
struct HostSetConstraint
{
    /** Target-qubit sets to keep away from. */
    std::vector<std::vector<int>> avoid;
    int maxShared = 0;
};

/**
 * Gate-count cost model over one pattern graph: how many 1q / measure
 * terms each pattern vertex carries and how many 2q terms each pattern
 * edge carries, plus the optimistic per-vertex/per-edge bounds derived
 * from an EspModel. Built once per (circuit, calibration epoch) and
 * shared by every branch of the search.
 */
class PlacementCostModel
{
  public:
    /**
     * @param model calibration factor tables for the target device
     * @param pattern the pattern graph being embedded
     * @param pattern_index domain-qubit -> pattern vertex (-1 for
     *        qubits outside the pattern, e.g. isolated logicals; their
     *        terms are excluded from the bound, which stays admissible
     *        because every factor is <= 1)
     * @param trace ESP terms of the circuit over domain qubits
     * @param allowed optional target-qubit mask; the per-vertex
     *        optimistic bounds range over allowed targets only (a
     *        tighter, still admissible bound for masked searches).
     *        nullptr reproduces the unmasked bounds exactly.
     */
    PlacementCostModel(std::shared_ptr<const EspModel> model,
                       const hw::Topology &pattern,
                       const std::vector<int> &pattern_index,
                       const GateTrace &trace,
                       const std::vector<bool> *allowed = nullptr);

    const EspModel &espModel() const { return *model_; }

    /** Log contribution of hosting pattern vertex @p v on target
     *  qubit @p t (1q + measure terms). */
    double vertexLog(int v, int t) const
    {
        const auto vi = static_cast<std::size_t>(v);
        return oneQubitCount_[vi] * model_->log1(t) +
               measureCount_[vi] * model_->logMeasure(t);
    }

    /** Log contribution of routing pattern edge @p e over device edge
     *  @p device_edge. */
    double edgeLog(int e, int device_edge) const
    {
        return twoQubitCount_[static_cast<std::size_t>(e)] *
               model_->log2(device_edge);
    }

    /** Best possible vertexLog over all targets (admissible bound). */
    double bestVertexLog(int v) const
    {
        return bestVertexLog_[static_cast<std::size_t>(v)];
    }

    /** Best possible edgeLog over all device edges. */
    double bestEdgeLog(int e) const
    {
        return twoQubitCount_[static_cast<std::size_t>(e)] *
               model_->bestLog2();
    }

  private:
    std::shared_ptr<const EspModel> model_;
    std::vector<double> oneQubitCount_;
    std::vector<double> measureCount_;
    std::vector<double> twoQubitCount_; ///< indexed by pattern edge
    std::vector<double> bestVertexLog_;
};

/**
 * Exact scorer for one completed embedding: returns the canonical
 * mapping vector (the tie-break key) and the exact (product-form)
 * ESP. Callers close over whatever completion logic they need
 * (isolated-qubit placement, full physical relabeling, ...).
 *
 * Floor contract: @p floor is the best-K list's admission floor — the
 * K-th best ESP once the list is full, else -inf. An embedding whose
 * ESP is below it cannot enter the list, and the list orders it by
 * ESP alone, so for such an ESP the scorer may leave @p map_out
 * unset (empty or stale); it must still set @p esp_out. At or above
 * the floor the key must be complete. A scorer whose key is cheap may
 * ignore the floor.
 */
using EmbeddingScorer =
    std::function<void(const std::vector<int> &embedding, double floor,
                       std::vector<int> &map_out, double &esp_out)>;

/**
 * Precompiled search state for one (pattern, cost model, mask)
 * triple: feasibility bitsets, the matching order with flattened back
 * edges, dense log tables, admissible suffix bounds, and each pattern
 * vertex's feasible hosts sorted by vertex score (the first vertex's
 * list is the root frontier). Building this is a double-digit-
 * microsecond pass on a 127-qubit device, so callers that search
 * repeatedly (the ensemble builder, the Placer's per-circuit memo,
 * benches) build the plan once and pass it to every topKPlacements
 * call.
 *
 * The plan holds references into @p pattern and @p cost_model (and
 * the cost model's EspModel); both must outlive it. It is immutable
 * after construction and safe to share across threads.
 */
class PlacementSearchPlan
{
  public:
    /** Validates and precompiles: the pattern must fit the target
     *  and @p allowed, when given, must size the target.
     *  @p allowed is an optional target-qubit mask; the search then
     *  maps pattern vertices onto allowed targets only. nullptr
     *  follows the exact unmasked enumeration and pruning order. */
    PlacementSearchPlan(const hw::Topology &pattern,
                        const PlacementCostModel &cost_model,
                        const std::vector<bool> *allowed = nullptr);
    ~PlacementSearchPlan();

    PlacementSearchPlan(PlacementSearchPlan &&) noexcept;
    PlacementSearchPlan &operator=(PlacementSearchPlan &&) noexcept;
    PlacementSearchPlan(const PlacementSearchPlan &) = delete;
    PlacementSearchPlan &operator=(const PlacementSearchPlan &) =
        delete;

    /** The pattern's twin classes: two or more vertices each, members
     *  in matching order. Empty for a twin-free pattern. */
    std::vector<std::vector<int>> twinClasses() const;

    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;

    friend std::vector<ScoredEmbedding>
    topKPlacements(const PlacementSearchPlan &plan,
                   const EmbeddingScorer &scorer, std::size_t k,
                   std::size_t limit, PlacementSearchStats *stats,
                   const HostSetConstraint *constraint);
};

/**
 * The K best embeddings of the plan's pattern into the device graph
 * of its cost model, best first under placementBefore (ties beyond
 * the map broken on the embedding — a strict total order). Pruning
 * never drops a placement that belongs in the top K.
 *
 * @param limit blowup guard: at most @p limit completed embeddings
 *        are explored *per root branch* (per root-frontier host of
 *        the first pattern vertex), so a binding limit cuts the same
 *        subtrees whatever the other roots find. A completion is a
 *        leaf of the twin-sorted tree, one per twin orbit, however
 *        many permutations it scores; the counters in @p stats count
 *        that tree too.
 * @param stats optional search-effort counters
 * @param constraint optional host-set constraint; the result is then
 *        the K best among the embeddings that satisfy it, under the
 *        same total order. nullptr searches unconstrained.
 */
std::vector<ScoredEmbedding>
topKPlacements(const PlacementSearchPlan &plan,
               const EmbeddingScorer &scorer, std::size_t k,
               std::size_t limit = 100000,
               PlacementSearchStats *stats = nullptr,
               const HostSetConstraint *constraint = nullptr);

} // namespace qedm::transpile
