/**
 * @file
 * Noisy execution of physical circuits on a Device model.
 *
 * The Executor is the stand-in for submitting a compiled program to
 * the real machine: it takes a *physical* circuit (qubit indices are
 * device qubits; every 2-qubit gate sits on a coupling edge), applies
 * the device's systematic and stochastic noise, and returns shot
 * counts exactly as the IBMQ job API would.
 *
 * Two engines share one preprocessing pass (the ExecutionTape, see
 * sim/execution_tape.hpp):
 *  - exact: fused density-matrix evolution applying every channel
 *    fully (sim/density_matrix.hpp). For registers of at most
 *    kExactLawMaxQubits active qubits the tape carries the resulting
 *    classical output law, and run() draws every trial from it;
 *  - trajectory: per-shot state-vector evolution with sampled noise
 *    (runTrajectories()), which run() uses above that cut.
 * Trajectories are an unbiased sampler of the same law, so the two
 * differ only in which RNG stream realizes the histogram.
 *
 * Only the qubits the circuit touches are simulated; the tape compacts
 * physical indices into a dense local register while retaining the
 * physical identities for calibration/noise lookups.
 *
 * Thread safety: every run()/exactDistribution() overload is const and
 * touches only call-local state, so one Executor may be used from many
 * threads concurrently as long as each caller supplies its own Rng.
 * Tapes are immutable and freely shareable across threads; pass a
 * prebuilt (or TapeCache-served) tape to avoid rebuilding identical
 * preprocessing for every call on the same circuit.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hw/device.hpp"
#include "sim/execution_tape.hpp"
#include "stats/counts.hpp"
#include "stats/distribution.hpp"

namespace qedm::sim {

/**
 * Version of the RNG-stream contract between a seed and the Counts
 * run() returns. Journals and fingerprints mix it in, so a journal
 * recorded by another sampler is refused instead of splicing its
 * batches into this one's. 2: exact-law sampling at or below
 * kExactLawMaxQubits (1: trajectories everywhere).
 */
inline constexpr std::uint64_t kSamplerVersion = 2;

/** Runs physical circuits against one device model. */
class Executor
{
  public:
    /** @param device device model (copied; the Executor owns its own). */
    explicit Executor(hw::Device device);

    const hw::Device &device() const { return device_; }

    /**
     * Execute @p physical for @p shots trials and return the outcome
     * histogram. Builds the tape once and reuses it for every shot.
     */
    stats::Counts run(const circuit::Circuit &physical,
                      std::uint64_t shots, Rng &rng) const;

    /**
     * Same, from a prebuilt tape (must have been built against a
     * device with this Executor's fingerprint). A tape that carries
     * its exact law (ExecutionTape::hasLaw) draws each trial with one
     * uniform and a guide-table lookup into the cumulative law
     * (LawSampler, the index a binary search would return); any other
     * tape runs on runTrajectories(). Both engines draw trial by
     * trial, so a run of L trials equals the first L trials of any
     * longer run on the same stream: a shot batch cut short by a
     * qubit dropout is simply a shorter run.
     */
    stats::Counts run(const ExecutionTape &tape, std::uint64_t shots,
                      Rng &rng) const;

    /**
     * Per-shot noise trajectories, whatever the register size: the
     * engine run() uses above kExactLawMaxQubits, kept callable on
     * its own so it stays tested and benchmarked on small registers.
     * Each shot evolves one StateVector through the tape and draws
     * its noise in the DESIGN §12 order; a tape with no per-shot
     * randomness before readout is evolved once and its Born law
     * sampled.
     */
    stats::Counts runTrajectories(const ExecutionTape &tape,
                                  std::uint64_t shots, Rng &rng) const;

    /**
     * Ignored: there is one trajectory engine and no lane width to
     * set. Kept only because perfbench/trace.cpp still calls it; it
     * goes when that call does.
     */
    void setSimBatch(std::size_t) {}

    /**
     * Exact output distribution over the classical register via
     * density-matrix simulation (the tape's own law when it has one).
     *
     * Hard limit: at most 10 *active* qubits (the density matrix is
     * dense over 4^n entries — 10 qubits is already a 1M-complex
     * matrix). Exceeding it throws UserError with the offending count;
     * use run() (trajectory sampling) for larger circuits.
     */
    stats::Distribution
    exactDistribution(const circuit::Circuit &physical) const;

    /** Same, from a prebuilt tape. */
    stats::Distribution
    exactDistribution(const ExecutionTape &tape) const;

  private:
    hw::Device device_;
};

/**
 * Exact output distribution of @p circuit on an ideal machine,
 * ignoring any device (no mapping required). Barriers are skipped;
 * Ccx/Cswap/Swap are decomposed. Qubits without a Measure are
 * marginalized out.
 */
stats::Distribution idealDistribution(const circuit::Circuit &circuit);

} // namespace qedm::sim
