/**
 * @file
 * Exact mixed-state simulation engine.
 *
 * The density matrix evolves through the same gate/noise sequence as
 * the trajectory simulator but applies every channel exactly, yielding
 * the exact output distribution. It backs exact-law shot sampling for
 * small registers (sim/execution_tape.hpp) and is the reference the
 * trajectory engines are tested against.
 *
 * Evolution is lazy and fused (DESIGN.md §19). Every 1-qubit channel —
 * unitary or Kraus set — is turned into a 4x4 superoperator and
 * composed into that qubit's *pending* factor without touching rho.
 * A qubit's pending factor is flushed into the next 2-qubit pass that
 * reads it, or into its own pass when rho is read. A 2-qubit pass is
 * one in-place, row-major sweep over 4x4 blocks of rho that applies
 * both operands' pending factors, the gate, and optionally 2-qubit
 * depolarizing in closed form:
 *
 *     rho -> (1 - 16p/15) rho + (4p/15) Tr_ab(rho) (x) I_ab.
 *
 * No pass copies the matrix, so a circuit costs one sweep per 2-qubit
 * gate plus one per qubit at the end.
 */

#pragma once

#include <array>
#include <complex>
#include <vector>

#include "circuit/op.hpp"
#include "sim/channels.hpp"

namespace qedm::sim {

/** Density matrix over n qubits (n <= 10); qubit 0 is the LSB. */
class DensityMatrix
{
  public:
    /** |0..0><0..0| on @p num_qubits qubits. */
    explicit DensityMatrix(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return dim_; }

    Complex at(std::size_t row, std::size_t col) const;

    /** rho -> U rho U^dagger for a 1-qubit unitary on @p q (queued). */
    void apply1q(const std::array<Complex, 4> &m, int q);

    /**
     * rho -> U rho U^dagger for a 2-qubit unitary on (q0, q1), then
     * two-qubit depolarizing with probability @p depol (0 = none), in
     * one pass; operand 0 is the most-significant factor.
     */
    void apply2q(const std::array<Complex, 16> &m, int q0, int q1,
                 double depol = 0.0);

    /** Apply a named unitary gate. */
    void applyGate(circuit::OpKind kind, const std::vector<int> &qubits,
                   const std::vector<double> &params);

    /** rho -> sum_k K_k rho K_k^dagger for a 1-qubit Kraus set
     *  (queued). */
    void applyKraus1q(const Kraus1q &kraus, int q);

    /** Two-qubit depolarizing channel with probability @p p. */
    void applyDepolarizing2q(double p, int q0, int q1);

    /** Diagonal (basis-state probabilities). */
    std::vector<double> probabilities() const;

    /** Trace (should stay 1 within rounding). */
    double trace() const;

    /** Purity Tr(rho^2); 1 for pure states. */
    double purity() const;

    /**
     * 1-qubit superoperator, row-major 4x4 over the vectorized 2x2
     * block: index 2 * row_bit + col_bit, so entry [out * 4 + in]
     * maps rho_in to rho'_out.
     */
    using Superop1q = std::array<Complex, 16>;

  private:
    /** Compose @p s after qubit @p q's pending factor. */
    void queue(const Superop1q &s, int q);
    /** Apply every pending factor to rho. Logically const: the
     *  represented state does not change. */
    void flushAll() const;

    int numQubits_;
    std::size_t dim_;
    mutable std::vector<Complex> rho_;
    /** Per-qubit composed 1-qubit channel not yet applied to rho_. */
    mutable std::vector<Superop1q> pending_;
    mutable std::vector<char> hasPending_;
};

} // namespace qedm::sim
