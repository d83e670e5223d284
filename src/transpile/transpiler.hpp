/**
 * @file
 * End-to-end compilation facade: an explicit pass pipeline.
 *
 * This is the "variation-aware quantum compiler" of the EDM pipeline's
 * step 1 (Section 5.2): from a logical circuit it produces a physical
 * executable plus the compile-time ESP estimate.
 *
 * Compilation runs as an ordered pass list — place -> route -> score —
 * over a shared CompileContext. Each pass reports per-pass metadata
 * (name, wall time, key metrics), which compile() discards and
 * compileWithTrace() returns, so callers and benches can attribute
 * compile cost to individual stages. The pass list is the seam later
 * passes (crosstalk-aware routing, twirling, scheduling) slot into.
 *
 * When verification is enabled (always in debug builds, opt-in via
 * the verify flag in release) a final "check" pass runs the
 * qedm::check static verifiers over the compiled program and throws
 * check::CheckError on any violation; when disabled the pass is never
 * added, so release compilation pays zero cost.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "circuit/circuit.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"
#include "transpile/router.hpp"

namespace qedm::runtime {
class JobScheduler;
}

namespace qedm::transpile {

/** A compiled executable and its compile-time metadata. */
struct CompiledProgram
{
    /** Physical circuit over the device register. */
    circuit::Circuit physical{1};
    /** Initial logical-to-physical placement used. */
    std::vector<int> initialMap;
    /** Logical-to-physical map at circuit end (after SWAPs). */
    std::vector<int> finalMap;
    /** Number of inserted SWAP gates. */
    int swapCount = 0;
    /** Compile-time Estimated Success Probability. */
    double esp = 0.0;

    /** Physical qubits actually used (sorted). */
    std::vector<int> usedQubits() const;
};

/** Metadata reported by one compilation pass. */
struct PassMetadata
{
    /** Pass name: "place", "route", "score", or "check" (the last
     *  only when verification is enabled). */
    std::string name;
    /** Wall-clock time spent in the pass. */
    double milliseconds = 0.0;
    /** Pass-specific scalar metrics (e.g. route: "swaps"; score:
     *  "esp"; place: "placedQubits"). */
    std::map<std::string, double> metrics;
};

/** A compiled program together with its per-pass trace. */
struct CompileTrace
{
    CompiledProgram program;
    std::vector<PassMetadata> passes;
};

/** Variation-aware compiler for one device view. */
class Transpiler
{
  public:
    /**
     * Full-device compiler (a full view; pre-view behavior).
     *
     * @param verify run the qedm::check verifier passes after every
     *        compile (defaults to always-on in debug builds, off in
     *        release).
     */
    explicit Transpiler(const hw::Device &device,
                        RouteCost cost = RouteCost::Reliability,
                        bool verify = check::kDefaultVerify);

    /**
     * Region-scoped compiler: placement, routing, and measurements
     * stay inside the view; the check pass rejects anything that
     * leaves it. The caller keeps the viewed Device alive for the
     * compiler's lifetime.
     */
    explicit Transpiler(hw::DeviceView view,
                        RouteCost cost = RouteCost::Reliability,
                        bool verify = check::kDefaultVerify);

    /** Compile with the variation-aware placer's best placement. */
    CompiledProgram compile(const circuit::Circuit &logical) const;

    /** Compile and report per-pass metadata. */
    CompileTrace compileWithTrace(const circuit::Circuit &logical) const;

    /** Compile with a caller-supplied initial placement (the place
     *  pass is skipped; the trace starts at "route"). */
    CompiledProgram
    compileWithPlacement(const circuit::Circuit &logical,
                         const std::vector<int> &initial_map) const;

    const hw::Device &device() const { return view_.device(); }
    /** The view compilation is scoped to (full for the Device ctor). */
    const hw::DeviceView &view() const { return view_; }
    RouteCost routeCost() const { return cost_; }

    /** True when the post-compile "check" pass is enabled. */
    bool verifyEnabled() const { return verify_; }

    /** Enable/disable the post-compile verifier pass. */
    void setVerify(bool verify) { verify_ = verify; }

    /**
     * No effect: placement search is serial. Kept only because the
     * perfbench replay still calls it; remove with
     * EnsembleConfig::vf2Limit in the next benchmark change.
     */
    void setScheduler(const runtime::JobScheduler * /*scheduler*/) {}

  private:
    CompileTrace
    runPasses(const circuit::Circuit &logical,
              const std::vector<int> *initial_map) const;

    hw::DeviceView view_;
    RouteCost cost_;
    bool verify_;
};

} // namespace qedm::transpile
