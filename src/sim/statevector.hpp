/**
 * @file
 * Pure-state simulation engine.
 *
 * Backs the per-shot trajectory simulator: unitary gates evolve the
 * state exactly, stochastic noise is injected by the caller as sampled
 * Pauli/Kraus operators, and measurement samples the Born distribution.
 *
 * Kernel design (DESIGN.md §12): gate application iterates only the
 * contributing index groups (2^(n-1) butterflies for 1q, 2^(n-2)
 * quartets for 2q) with bit-interleaved index construction, so the
 * inner loops are branch-free and vectorizable. Structured matrices
 * (diagonal, anti-diagonal, monomial/permutation) are detected per
 * call and dispatched to cheaper kernels that touch fewer amplitudes.
 * All kernels preserve the per-amplitude floating-point arithmetic of
 * the reference implementation (same products, same summation order),
 * so fixed-seed trajectories are bit-identical to the pre-optimization
 * engine; structured fast paths may differ only in the sign of zeros,
 * which no probability or sampling decision observes.
 *
 * The squared norm is tracked: renormalization fuses the scaling sweep
 * with the accumulation of the post-scale norm, and every consumer of
 * norm() (Kraus Born sampling, measurement sampling) reuses the cached
 * value instead of re-sweeping the state. The cache is only ever
 * populated with a value identical to what a fresh linear sweep would
 * return, and any gate application invalidates it.
 */

#pragma once

#include <array>
#include <complex>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "circuit/op.hpp"

namespace qedm::sim {

using circuit::Complex;

/** State vector over n qubits; qubit 0 is the least-significant bit. */
class StateVector
{
  public:
    /** |0...0> on @p num_qubits qubits (1..24). */
    explicit StateVector(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }

    const std::vector<Complex> &amplitudes() const { return amps_; }
    Complex amplitude(std::size_t basis) const;

    /** Reset to |0...0>. */
    void reset();

    /** Apply a 1-qubit unitary (row-major 2x2) to qubit @p q.
     *  Diagonal and anti-diagonal matrices dispatch to cheaper
     *  kernels automatically. */
    void apply1q(const std::array<Complex, 4> &m, int q);

    /** Apply a diagonal 1-qubit operator diag(d0, d1) to qubit @p q.
     *  (Rz/Z/S/T/phase fast path: no butterfly, multiply-only.) */
    void applyDiag1q(Complex d0, Complex d1, int q);

    /** Apply a 2-qubit unitary (row-major 4x4, operand 0 = MSB) to
     *  qubits (q0, q1). Monomial matrices (one entry per row:
     *  CX/CZ/SWAP/diagonal) dispatch to permutation/phase kernels. */
    void apply2q(const std::array<Complex, 16> &m, int q0, int q1);

    /** Apply a named gate. */
    void applyGate(circuit::OpKind kind, const std::vector<int> &qubits,
                   const std::vector<double> &params);

    /**
     * Apply one operator from a 1-qubit Kraus set by Born-rule
     * sampling, then renormalize (quantum-trajectory step). The Born
     * probabilities are computed with branch-free butterfly sweeps and
     * the initial norm comes from the tracked-norm cache whenever the
     * previous operation was a renormalization.
     * @returns the sampled Kraus index.
     */
    std::size_t
    applyKraus1q(const std::vector<std::array<Complex, 4>> &kraus, int q,
                 Rng &rng);

    /** Probability of each computational basis state. */
    std::vector<double> probabilities() const;

    /**
     * Cumulative basis-state probabilities in basis order:
     * cum[i] = sum_{j<=i} |amps[j]|^2, so cum.back() equals norm().
     * Precompute once for a fixed state and wrap it in a LawSampler
     * (sim/law_sampler.hpp): per-shot measurement sampling then picks
     * the same index as sampleMeasurement's linear scan, by a guided
     * table lookup.
     */
    std::vector<double> cumulativeProbabilities() const;

    /** Probability that measuring all qubits yields @p basis. */
    double probability(std::size_t basis) const;

    /** Sample a full-register measurement outcome (no collapse). */
    std::size_t sampleMeasurement(Rng &rng) const;

    /** Squared norm (should stay 1 within rounding). Served from the
     *  tracked-norm cache when valid. */
    double norm() const;

    /** Scale so the squared norm is 1. */
    void normalize();

  private:
    /** Fresh linear sweep; repopulates the norm cache. */
    double computeNorm() const;

    int numQubits_;
    std::vector<Complex> amps_;
    /**
     * Tracked squared norm. Valid only when no gate has been applied
     * since it was last populated; by construction the cached value is
     * bit-identical to what computeNorm() would return.
     */
    mutable double cachedNorm_ = 1.0;
    mutable bool normCacheValid_ = true;
};

} // namespace qedm::sim
