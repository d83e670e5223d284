/**
 * @file
 * End-to-end compilation facade.
 *
 * This is the "variation-aware quantum compiler" of the EDM pipeline's
 * step 1 (Section 5.2): from a logical circuit it produces a physical
 * executable plus the compile-time ESP estimate, in straight-line
 * order: place -> route -> score, then verify when enabled.
 *
 * When verification is enabled (always in debug builds, opt-in via
 * the verify flag in release) the compiled program goes through
 * verifyCompiled(), which runs the qedm::check static verifiers and
 * throws check::CheckError on any violation; when disabled nothing
 * runs, so release compilation pays zero cost.
 */

#pragma once

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
     * stay inside the view; verification rejects anything that
     * leaves it. The caller keeps the viewed Device alive for the
     * compiler's lifetime.
     */
    explicit Transpiler(hw::DeviceView view,
                        RouteCost cost = RouteCost::Reliability,
                        bool verify = check::kDefaultVerify);

    /** Compile with the variation-aware placer's best placement. */
    CompiledProgram compile(const circuit::Circuit &logical) const;

    /** Compile with a caller-supplied initial placement (placement
     *  is skipped; routing starts from @p initial_map). */
    CompiledProgram
    compileWithPlacement(const circuit::Circuit &logical,
                         const std::vector<int> &initial_map) const;

    const hw::Device &device() const { return view_.device(); }
    /** The view compilation is scoped to (full for the Device ctor). */
    const hw::DeviceView &view() const { return view_; }
    RouteCost routeCost() const { return cost_; }

    /**
     * No effect: placement search is serial. Kept only because the
     * perfbench replay still calls it; remove with
     * EnsembleConfig::vf2Limit in the next benchmark change.
     */
    void setScheduler(const runtime::JobScheduler * /*scheduler*/) {}

  private:
    /** Route from @p initial_map, score, and verify when enabled. */
    CompiledProgram routeAndScore(const circuit::Circuit &logical,
                                  std::vector<int> initial_map) const;

    hw::DeviceView view_;
    RouteCost cost_;
    bool verify_;
};

/**
 * Run every qedm::check verifier over @p program, compiled from
 * @p logical under @p view (the region its placement, gates and
 * measures must stay inside). Throws check::CheckError on the first
 * violation. The one place a compiled program is verified: the
 * Transpiler and every ensemble transfer call it.
 */
void verifyCompiled(const CompiledProgram &program,
                    const circuit::Circuit &logical,
                    const hw::DeviceView &view);

} // namespace qedm::transpile
