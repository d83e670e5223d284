#include "transpile/lookahead_router.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "transpile/distances.hpp"

namespace qedm::transpile {

using circuit::Circuit;
using circuit::CircuitDag;
using circuit::Gate;
using circuit::OpKind;

LookaheadRouter::LookaheadRouter(const hw::Device &device,
                                 LookaheadConfig config)
    : view_(device), config_(config)
{
    QEDM_REQUIRE(config_.window >= 1, "lookahead window must be >= 1");
    QEDM_REQUIRE(config_.windowWeight >= 0.0,
                 "lookahead weight must be non-negative");
}

LookaheadRouter::LookaheadRouter(hw::DeviceView view,
                                 LookaheadConfig config)
    : view_(std::move(view)), config_(config)
{
    QEDM_REQUIRE(config_.window >= 1, "lookahead window must be >= 1");
    QEDM_REQUIRE(config_.windowWeight >= 0.0,
                 "lookahead weight must be non-negative");
}

RouteResult
LookaheadRouter::route(const Circuit &logical,
                       const std::vector<int> &initial_map) const
{
    const auto &topo = view_.topology();
    QEDM_REQUIRE(static_cast<int>(initial_map.size()) ==
                     logical.numQubits(),
                 "initial map must cover every logical qubit");
    std::set<int> distinct;
    for (int p : initial_map) {
        QEDM_REQUIRE(p >= 0 && p < topo.numQubits(),
                     "initial map target out of range");
        QEDM_REQUIRE(view_.allowed(p),
                     "initial map target outside the region");
        QEDM_REQUIRE(distinct.insert(p).second,
                     "initial map targets must be distinct");
    }

    const Circuit flat = logical.decomposed();
    const CircuitDag dag(flat);
    // The output register spans the device; building it first makes
    // an over-cap device fail before any distance table is built.
    RouteResult result{Circuit(topo.numQubits(), flat.numClbits()),
                       {}, 0};
    const auto dist = sharedDistanceProvider(view_, config_.cost);

    std::vector<int> map = initial_map;
    std::vector<int> occupant(topo.numQubits(), -1);
    for (int l = 0; l < static_cast<int>(map.size()); ++l)
        occupant[map[l]] = l;

    // Dependency state.
    std::vector<std::size_t> unresolved(dag.size(), 0);
    for (std::size_t node = 0; node < dag.size(); ++node)
        unresolved[node] = dag.predecessors(node).size();
    std::set<std::size_t> front;
    for (std::size_t node = 0; node < dag.size(); ++node) {
        if (unresolved[node] == 0)
            front.insert(node);
    }
    std::size_t remaining = dag.size();

    auto gateOf = [&](std::size_t node) -> const Gate & {
        return flat.gates()[dag.gateIndex(node)];
    };
    auto executable = [&](std::size_t node) {
        const Gate &g = gateOf(node);
        if (!circuit::opIsTwoQubit(g.kind))
            return true;
        return topo.adjacent(map[g.qubits[0]], map[g.qubits[1]]);
    };
    // Measures are deferred to the end of routing: they are terminal
    // per qubit (the executor enforces this), and emitting them early
    // would forbid later SWAPs from relocating state across their
    // physical qubits.
    std::vector<std::pair<int, int>> deferred_measures; // (logical, cl)
    auto emit = [&](std::size_t node) {
        Gate g = gateOf(node);
        if (g.kind == OpKind::Measure) {
            deferred_measures.emplace_back(g.qubits[0], g.clbit);
            return;
        }
        for (int &q : g.qubits)
            q = map[q];
        result.physical.append(std::move(g));
    };
    auto retire = [&](std::size_t node) {
        front.erase(node);
        --remaining;
        for (std::size_t succ : dag.successors(node)) {
            if (--unresolved[succ] == 0)
                front.insert(succ);
        }
    };

    // The two-qubit gates awaiting execution, in program order, for
    // the lookahead window.
    auto lookaheadNodes = [&]() {
        std::vector<std::size_t> ahead;
        for (std::size_t node = 0;
             node < dag.size() && ahead.size() < config_.window;
             ++node) {
            if (unresolved[node] > 0 || front.count(node)) {
                const Gate &g = gateOf(node);
                if (circuit::opIsTwoQubit(g.kind) &&
                    !front.count(node)) {
                    ahead.push_back(node);
                }
            }
        }
        return ahead;
    };

    int last_swap_a = -1, last_swap_b = -1;
    const int swap_limit = 50 * static_cast<int>(dag.size()) + 100;
    while (remaining > 0) {
        QEDM_ASSERT(result.swapCount < swap_limit,
                    "lookahead router failed to converge");
        // Execute everything currently satisfiable.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (auto it = front.begin(); it != front.end();) {
                const std::size_t node = *it;
                ++it;
                if (executable(node)) {
                    emit(node);
                    retire(node);
                    progressed = true;
                    last_swap_a = last_swap_b = -1;
                }
            }
        }
        if (remaining == 0)
            break;

        // Blocked: score candidate SWAPs on edges touching the front's
        // two-qubit operands.
        std::vector<std::size_t> front_2q;
        for (std::size_t node : front) {
            if (circuit::opIsTwoQubit(gateOf(node).kind))
                front_2q.push_back(node);
        }
        QEDM_ASSERT(!front_2q.empty(),
                    "blocked front must contain a two-qubit gate");

        std::set<std::pair<int, int>> candidates;
        for (std::size_t node : front_2q) {
            for (int lq : gateOf(node).qubits) {
                const int pq = map[lq];
                for (int nbr : topo.neighbors(pq)) {
                    if (!view_.allowed(nbr))
                        continue; // SWAPs stay inside the region
                    candidates.insert(
                        {std::min(pq, nbr), std::max(pq, nbr)});
                }
            }
        }

        const auto ahead = lookaheadNodes();
        auto scoreWith = [&](const std::vector<int> &trial_map) {
            double score = 0.0;
            for (std::size_t node : front_2q) {
                const Gate &g = gateOf(node);
                score += dist->distance(trial_map[g.qubits[0]],
                                        trial_map[g.qubits[1]]);
            }
            if (!ahead.empty()) {
                double ahead_score = 0.0;
                for (std::size_t node : ahead) {
                    const Gate &g = gateOf(node);
                    ahead_score +=
                        dist->distance(trial_map[g.qubits[0]],
                                       trial_map[g.qubits[1]]);
                }
                score += config_.windowWeight * ahead_score /
                         static_cast<double>(ahead.size());
            }
            return score;
        };

        double best_score = std::numeric_limits<double>::max();
        std::pair<int, int> best_swap{-1, -1};
        for (const auto &[pa, pb] : candidates) {
            if (pa == last_swap_a && pb == last_swap_b)
                continue; // never undo the previous swap immediately
            std::vector<int> trial = map;
            const int la = occupant[pa];
            const int lb = occupant[pb];
            if (la >= 0)
                trial[la] = pb;
            if (lb >= 0)
                trial[lb] = pa;
            const double s = scoreWith(trial);
            if (s < best_score) {
                best_score = s;
                best_swap = {pa, pb};
            }
        }
        QEDM_ASSERT(best_swap.first >= 0, "no candidate SWAP found");

        const auto [pa, pb] = best_swap;
        result.physical.swap(pa, pb);
        result.swapCount += 1;
        const int la = occupant[pa];
        const int lb = occupant[pb];
        occupant[pa] = lb;
        occupant[pb] = la;
        if (la >= 0)
            map[la] = pb;
        if (lb >= 0)
            map[lb] = pa;
        last_swap_a = pa;
        last_swap_b = pb;
    }
    for (const auto &[logical_q, clbit] : deferred_measures)
        result.physical.measure(map[logical_q], clbit);
    result.finalMap = map;
    return result;
}

} // namespace qedm::transpile
