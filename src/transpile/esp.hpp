/**
 * @file
 * Estimated Success Probability (ESP), the compile-time reliability
 * estimate used by variation-aware mapping (Section 2.4):
 *
 *   ESP = prod_i (1 - g_i^e) * prod_j (1 - m_j^e)
 *
 * over all gates i and measurements j of the physical circuit.
 */

#pragma once

#include "circuit/circuit.hpp"
#include "hw/device.hpp"

namespace qedm::transpile {

/**
 * ESP of a *physical* circuit on @p device. The circuit is decomposed
 * first (SWAP counts as 3 CX); every 2-qubit gate must sit on a
 * coupling edge.
 */
double esp(const circuit::Circuit &physical, const hw::Device &device);

/**
 * Decoherence-aware ESP extension: the plain ESP multiplied by each
 * active qubit's survival factor exp(-t_busy/T1 - t_busy/T2), where
 * t_busy is the qubit's scheduled busy time under an ASAP schedule
 * with the device's gate durations. Penalizes deep circuits on
 * short-lived qubits, which plain ESP ignores.
 */
double espWithDecoherence(const circuit::Circuit &physical,
                          const hw::Device &device);

} // namespace qedm::transpile
