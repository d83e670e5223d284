/**
 * @file
 * Variation-aware initial qubit placement.
 *
 * Implements the paper's baseline policy (Sections 2.4, 5.2): find an
 * initial logical-to-physical assignment that maximizes the Estimated
 * Success Probability. When the circuit's interaction graph embeds
 * into the coupling graph (true for the paper's BV/QAOA after their
 * heuristics), the placer enumerates embeddings with VF2 and ranks
 * them by ESP, so the produced mapping needs no SWAPs and is optimal
 * under the ESP model. Otherwise a greedy reliability-aware placement
 * seeds the router.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"

namespace qedm::transpile {

/** A logical-to-physical assignment with its compile-time score. */
struct ScoredPlacement
{
    /** Entry l is the physical qubit hosting logical qubit l. */
    std::vector<int> map;
    /** ESP estimate for the circuit under this placement. */
    double esp = 0.0;
};

/** Variation-aware placement engine for one device view. */
class Placer
{
  public:
    /** Full-device placement (a full view; pre-view behavior). */
    explicit Placer(const hw::Device &device);

    /**
     * Region-scoped placement: every produced map uses only the
     * view's allowed qubits. The caller keeps the viewed Device alive
     * for the placer's lifetime.
     */
    explicit Placer(hw::DeviceView view);

    /**
     * Best initial placement for @p logical: the highest-ESP VF2
     * embedding when one exists, else a greedy reliability-aware
     * assignment.
     */
    std::vector<int> place(const circuit::Circuit &logical) const;

    /**
     * The K best placements of @p logical under the ESP model, best
     * first. Same maps and scores as the head of rankedEmbeddings()
     * but found with branch-and-bound: the VF2 recursion carries an
     * incremental log-ESP bound and abandons any branch that cannot
     * beat the current K-th best, so the full embedding list is never
     * materialized. Empty when the interaction graph does not embed.
     *
     * @p limit caps completions per root branch (see topKPlacements).
     *
     * Ties in ESP order lexicographically on the mapping vector.
     */
    std::vector<ScoredPlacement>
    topPlacements(const circuit::Circuit &logical, std::size_t k,
                  std::size_t limit = 20000) const;

    /**
     * All VF2 embeddings of the circuit's interaction graph, scored
     * and sorted by descending ESP (ties lexicographic on the map).
     * Empty when the interaction graph does not embed (the router
     * must then insert SWAPs).
     *
     * Isolated logical qubits (no 2-qubit gate) are assigned greedily
     * to the best remaining readout qubits in every returned map.
     */
    std::vector<ScoredPlacement>
    rankedEmbeddings(const circuit::Circuit &logical,
                     std::size_t limit = 20000) const;

    /** The view placements are scoped to. */
    const hw::DeviceView &view() const { return view_; }

  private:
    /**
     * Per-circuit memo (keyed on the circuit fingerprint) of the
     * placement problem — interaction pattern, gate trace, cost
     * model, precompiled search plan — so repeated topPlacements
     * calls on one Placer skip problem construction, which would
     * otherwise cost more than the pruned search itself. Only
     * callers that keep a Placer hit it (perf_micro's topk_* rows,
     * tests): Transpiler builds a fresh Placer per compile.
     * Mutex-guarded (topPlacements stays safe to call concurrently);
     * shared across Placer copies, which is sound because entries are
     * immutable once published.
     */
    struct Cache;

    hw::DeviceView view_;
    std::shared_ptr<Cache> cache_;
};

} // namespace qedm::transpile
