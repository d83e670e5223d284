#include "transpile/interaction_graph.hpp"

#include <map>
#include <utility>

#include "common/error.hpp"

namespace qedm::transpile {

int
InteractionGraph::degree(int q) const
{
    QEDM_REQUIRE(q >= 0 && q < numQubits, "qubit index out of range");
    int d = 0;
    for (const auto &[a, b] : edges) {
        if (a == q || b == q)
            ++d;
    }
    return d;
}

std::vector<int>
InteractionGraph::isolatedQubits() const
{
    std::vector<int> isolated;
    for (int q = 0; q < numQubits; ++q) {
        if (degree(q) == 0)
            isolated.push_back(q);
    }
    return isolated;
}

InteractionGraph
interactionGraph(const circuit::Circuit &logical)
{
    const circuit::Circuit flat = logical.decomposed();
    std::map<std::pair<int, int>, int> weight;
    for (const auto &g : flat.gates()) {
        if (!circuit::opIsTwoQubit(g.kind))
            continue;
        int a = g.qubits[0], b = g.qubits[1];
        if (a > b)
            std::swap(a, b);
        weight[{a, b}] += 1;
    }
    InteractionGraph ig;
    ig.numQubits = flat.numQubits();
    for (const auto &[pair, w] : weight) {
        ig.edges.push_back(pair);
        ig.weights.push_back(w);
    }
    return ig;
}

} // namespace qedm::transpile
