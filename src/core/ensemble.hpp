/**
 * @file
 * Ensemble construction: the top-K diverse mappings (paper Section 5.2,
 * steps 1-2).
 *
 * Starting from the variation-aware compiler's best executable, the
 * builder transfers it onto other embeddings of its used region in
 * the device, scored from the seed's gate trace. Candidates are the
 * distinct qubit sets, each represented by its best embedding, ranked
 * by ESP. Only the picked candidates are materialized: the compiled
 * program transferred onto them via the isomorphism, so all members
 * execute an identical gate sequence.
 *
 * The ranked policies (build, buildAdaptive, buildPredictive) never
 * enumerate the embeddings: each pick of the overlap-capped greedy is
 * one set-constrained top-1 branch-and-bound query (DESIGN.md §13),
 * exact over every embedding. The exhaustive policies (candidates,
 * buildRandom) need every qubit set by definition; they stream every
 * VF2 embedding and refuse a seed with more than
 * EnsembleConfig::vf2Limit.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "check/check.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"
#include "runtime/scheduler.hpp"
#include "transpile/compile_cache.hpp"
#include "transpile/transpiler.hpp"

namespace qedm::transpile {
struct PlacementSearchStats;
}

namespace qedm::core {

/** Configuration for ensemble construction. */
struct EnsembleConfig
{
    /** Ensemble size K (paper default: 4). */
    int size = 4;
    /**
     * Most VF2 embeddings the exhaustive policies, candidates() and
     * buildRandom(), enumerate; a seed with more makes them throw
     * UserError naming the cap, since a list cut in enumeration order
     * (not ESP order) could miss better placements. build(),
     * buildAdaptive() and buildPredictive() search every embedding
     * and ignore it. A test pins which Table-1 seed patterns exceed
     * the default: none on melbourne; on an 8x8 grid the routed bv-6
     * and bv-7 patterns do.
     */
    std::size_t vf2Limit = 200000;
    /**
     * Diversity cap: a candidate is skipped if it shares more than
     * this fraction of its qubits with an already-selected member;
     * 1.0 disables the cap (the paper's literal plain top-K). If the
     * cap starves the ensemble below K, it is relaxed progressively.
     * Must be finite and non-negative.
     *
     * The default 0.5 reproduces the paper's *observed* ensembles
     * (top-8 mappings sharing only 2-3 of ~7 qubits, Section 6): on
     * our synthetic calibration a literal top-K collapses onto
     * one-qubit variations of the best mapping, which the real
     * machine's calibration geometry did not do. The ablation bench
     * abl_selection quantifies the difference.
     */
    double maxOverlap = 0.5;
    /** Routing cost metric for the seed compilation. */
    transpile::RouteCost routeCost = transpile::RouteCost::Reliability;
    /**
     * Run the qedm::check static verifiers (transpile::verifyCompiled)
     * over the compiled seed and over every isomorphic transfer the
     * builder emits. Always-on in debug builds; opt-in in release
     * (zero cost when off).
     */
    bool verifyPasses = check::kDefaultVerify;
    /**
     * Optional shared compile cache for the seed compilation (not
     * owned; must outlive the builder). Keys include the calibration
     * fingerprint, so drifted devices never reuse stale programs.
     */
    transpile::CompileCache *compileCache = nullptr;
    /**
     * No effect: every search and materialization the builder runs is
     * serial. Kept only because the perfbench replay still sets it;
     * remove with vf2Limit in the next benchmark change.
     */
    const runtime::JobScheduler *scheduler = nullptr;
    /**
     * Allowed-region mask: the physical qubits the ensemble may use
     * (multi-programming / reliable-region scoping). Empty means the
     * whole device — bit-identical to the pre-region behavior. When
     * set, every member's placement, SWAPs, and measurements are
     * confined to (and verified against) the induced subgraph.
     */
    std::vector<int> region;
    /**
     * Expected per-member dropout probability predicted by the fault
     * plan (FaultConfig::dropoutProb). When positive, build()
     * over-provisions K so the *expected surviving* ensemble still
     * has `size` members. 0 (default) disables over-provisioning.
     */
    double expectedDropoutProb = 0.0;
    /**
     * Members the fault plan drops deterministically (--fail-member
     * count). Each one costs exactly one member, so build() adds this
     * many on top of the probabilistic over-provisioning.
     */
    int plannedDropouts = 0;
};

/** Builds mapping ensembles for one device. */
class EnsembleBuilder
{
  public:
    explicit EnsembleBuilder(const hw::Device &device,
                             EnsembleConfig config = EnsembleConfig{});

    /**
     * All candidate programs: isomorphic transfers of the compiled
     * seed, one per distinct qubit set it embeds onto, sorted by
     * descending ESP. Throws UserError when the seed has more than
     * config().vf2Limit embeddings. The first entry is the
     * compile-time best mapping (the paper's baseline). Materializes
     * every candidate; the build policies materialize only the
     * members they return.
     */
    std::vector<transpile::CompiledProgram>
    candidates(const circuit::Circuit &logical) const;

    /**
     * The top-K ensemble (paper policy). Fewer than K members are
     * returned when the device does not admit K distinct placements.
     *
     * @param stats optional: the effort counters of the build's
     *        placement searches are added to it. Deterministic, and
     *        the same at every scheduler width.
     */
    std::vector<transpile::CompiledProgram>
    build(const circuit::Circuit &logical,
          transpile::PlacementSearchStats *stats = nullptr) const;

    /**
     * Ablation policy: the compile-time best mapping plus K-1
     * candidates drawn uniformly at random from the rest, ignoring
     * ESP rank. Throws as candidates() does past config().vf2Limit.
     */
    std::vector<transpile::CompiledProgram>
    buildRandom(const circuit::Circuit &logical, Rng &rng) const;

    /**
     * Predictive selection (the alternative the paper sketches in
     * Section 5.3: "we could form an ensemble of mappings that is
     * estimated to produce the highest IST"). Simulates the top
     * @p pool_size candidates exactly at compile time and greedily
     * picks K members maximizing predicted pairwise output
     * divergence, subject to the ESP floor of the pool. Much more
     * expensive than top-K; quantified in bench/abl_selection.
     */
    std::vector<transpile::CompiledProgram>
    buildPredictive(const circuit::Circuit &logical,
                    std::size_t pool_size = 12) const;

    /**
     * Adaptive sizing (Section 5.5): grow the ensemble while every
     * member's ESP stays within @p min_esp_ratio of the best
     * candidate's (the paper observed its usable mappings sat within
     * 10% of the best ESP, i.e. ratio 0.9), up to config().size
     * members. Always returns at least one member.
     */
    std::vector<transpile::CompiledProgram>
    buildAdaptive(const circuit::Circuit &logical,
                  double min_esp_ratio = 0.9) const;

    const EnsembleConfig &config() const { return config_; }

    /** The device view the ensemble is scoped to (full when
     *  config().region is empty). */
    const hw::DeviceView &view() const { return view_; }

  private:
    const hw::Device &device_;
    EnsembleConfig config_;
    hw::DeviceView view_;
};

} // namespace qedm::core
