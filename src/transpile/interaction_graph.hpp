/**
 * @file
 * Logical interaction graphs.
 *
 * The interaction graph of a circuit has one vertex per logical qubit
 * and an edge between every pair that shares at least one two-qubit
 * gate. Placement tries to embed this graph into the device topology;
 * when it embeds, no SWAPs are needed.
 */

#pragma once

#include <utility>
#include <vector>

#include "circuit/circuit.hpp"

namespace qedm::transpile {

/** Weighted interaction summary of a logical circuit. */
struct InteractionGraph
{
    int numQubits = 0;
    /** Distinct interacting pairs (a < b). */
    std::vector<std::pair<int, int>> edges;
    /** Two-qubit gate count per edge (parallel to edges). */
    std::vector<int> weights;

    /** Interaction degree of a logical qubit. */
    int degree(int q) const;

    /** Logical qubits that participate in no two-qubit gate. */
    std::vector<int> isolatedQubits() const;
};

/** Build the interaction graph of @p logical (SWAP/Ccx decomposed). */
InteractionGraph interactionGraph(const circuit::Circuit &logical);

} // namespace qedm::transpile
