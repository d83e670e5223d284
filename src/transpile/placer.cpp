#include "transpile/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "transpile/distances.hpp"
#include "transpile/esp_model.hpp"
#include "transpile/interaction_graph.hpp"
#include "transpile/placement_search.hpp"
#include "transpile/vf2.hpp"

namespace qedm::transpile {
namespace {

/** Readout success probability of a physical qubit. */
double
readoutSuccess(const hw::Device &device, int q)
{
    return 1.0 - device.calibration().qubit(q).readoutError();
}

/** Assign isolated logical qubits to the best remaining readout
 *  qubits inside the view, completing @p map in place. */
void
placeIsolated(const hw::DeviceView &view, const std::vector<int> &isolated,
              std::vector<int> &map)
{
    const hw::Device &device = view.device();
    std::vector<bool> used(device.numQubits(), false);
    for (int p : map) {
        if (p >= 0)
            used[p] = true;
    }
    for (int l : isolated) {
        int best = -1;
        double best_score = -1.0;
        for (int p = 0; p < device.numQubits(); ++p) {
            if (used[p] || !view.allowed(p))
                continue;
            const double score = readoutSuccess(device, p);
            if (score > best_score) {
                best_score = score;
                best = p;
            }
        }
        QEDM_REQUIRE(best >= 0,
                     "device has fewer qubits than the program needs");
        map[l] = best;
        used[best] = true;
    }
}

/** Greedy reliability-aware placement (always succeeds): the
 *  fallback when the interaction graph does not embed. */
std::vector<int>
greedyPlace(const hw::DeviceView &view, const circuit::Circuit &logical)
{
    const hw::Device &device = view.device();
    const InteractionGraph ig = interactionGraph(logical);
    QEDM_REQUIRE(ig.numQubits <= device.numQubits(),
                 "program needs more qubits than the device has");
    QEDM_REQUIRE(ig.numQubits <= view.numAllowed(),
                 "program needs more qubits than the region allows");
    const auto dist = sharedDistanceProvider(view, RouteCost::Reliability);
    const auto &topo = view.topology();

    // Interacting qubits in order of decreasing degree.
    std::vector<int> order;
    for (int q = 0; q < ig.numQubits; ++q) {
        if (ig.degree(q) > 0)
            order.push_back(q);
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return ig.degree(a) > ig.degree(b);
    });

    std::vector<int> map(ig.numQubits, -1);
    std::vector<bool> used(device.numQubits(), false);

    for (int l : order) {
        // Placed interaction partners of l, with weights.
        std::vector<std::pair<int, int>> partners; // (physical, weight)
        for (std::size_t e = 0; e < ig.edges.size(); ++e) {
            const auto &[a, b] = ig.edges[e];
            const int other = a == l ? b : (b == l ? a : -1);
            if (other >= 0 && map[other] >= 0)
                partners.emplace_back(map[other], ig.weights[e]);
        }
        int best = -1;
        double best_cost = std::numeric_limits<double>::max();
        for (int p = 0; p < device.numQubits(); ++p) {
            if (used[p] || !view.allowed(p))
                continue;
            double cost = 0.0;
            if (partners.empty()) {
                // Seed vertex: prefer well-connected, reliable regions.
                double link_quality = 0.0;
                for (int nbr : topo.neighbors(p)) {
                    const int e = topo.edgeIndex(p, nbr);
                    link_quality += 1.0 - device.calibration()
                                              .edge(std::size_t(e))
                                              .cxError;
                }
                cost = -(link_quality + readoutSuccess(device, p));
            } else {
                for (const auto &[phys, w] : partners)
                    cost += w * dist->distance(p, phys);
                cost -= 0.01 * readoutSuccess(device, p);
            }
            if (cost < best_cost) {
                best_cost = cost;
                best = p;
            }
        }
        QEDM_REQUIRE(best >= 0,
                     "device has fewer qubits than the program needs");
        map[l] = best;
        used[best] = true;
    }
    placeIsolated(view, ig.isolatedQubits(), map);
    return map;
}

/**
 * Everything placement scoring needs, built once per circuit: the
 * interaction pattern over active qubits, the decomposed gate trace,
 * and the shared calibration tables.
 */
struct PlacementProblem
{
    std::vector<int> active;       ///< pattern vertex -> logical qubit
    std::vector<int> patternIndex; ///< logical qubit -> pattern vertex
    std::vector<int> isolated;
    hw::Topology pattern{1, {}}; ///< placeholder; always rebuilt
    GateTrace trace;
    std::shared_ptr<const EspModel> model;
    int numQubits = 0;
};

/** Empty optional when the circuit has no interacting qubits. */
std::optional<PlacementProblem>
buildProblem(const hw::DeviceView &view, const circuit::Circuit &logical)
{
    const InteractionGraph ig = interactionGraph(logical);
    QEDM_REQUIRE(ig.numQubits <= view.device().numQubits(),
                 "program needs more qubits than the device has");
    QEDM_REQUIRE(ig.numQubits <= view.numAllowed(),
                 "program needs more qubits than the region allows");

    PlacementProblem problem;
    problem.numQubits = ig.numQubits;
    problem.patternIndex.assign(ig.numQubits, -1);
    for (int q = 0; q < ig.numQubits; ++q) {
        if (ig.degree(q) > 0) {
            problem.patternIndex[q] =
                static_cast<int>(problem.active.size());
            problem.active.push_back(q);
        }
    }
    if (problem.active.empty())
        return std::nullopt;

    std::vector<std::pair<int, int>> pattern_edges;
    pattern_edges.reserve(ig.edges.size());
    for (const auto &[a, b] : ig.edges)
        pattern_edges.emplace_back(problem.patternIndex[a],
                                   problem.patternIndex[b]);
    problem.pattern = hw::Topology(
        static_cast<int>(problem.active.size()), pattern_edges);
    problem.isolated = ig.isolatedQubits();
    problem.trace = EspModel::trace(logical.decomposed());
    problem.model = sharedEspModel(view);
    return problem;
}

/** Full logical-to-physical map for one pattern embedding. */
std::vector<int>
completeMap(const hw::DeviceView &view, const PlacementProblem &problem,
            const std::vector<int> &embedding)
{
    std::vector<int> map(problem.numQubits, -1);
    for (std::size_t i = 0; i < problem.active.size(); ++i)
        map[problem.active[i]] = embedding[i];
    if (!problem.isolated.empty())
        placeIsolated(view, problem.isolated, map);
    return map;
}

/**
 * One memoized placement problem: the circuit-derived pieces plus the
 * cost model and precompiled search plan built over them. The members
 * reference each other (cost reads problem, plan reads both), so they
 * live and die together; once constructed the whole bundle is
 * immutable and safe to share across threads.
 */
struct CachedSearch
{
    PlacementProblem problem;
    PlacementCostModel cost;
    PlacementSearchPlan plan;

    CachedSearch(PlacementProblem prob, const std::vector<bool> *mask)
        : problem(std::move(prob)),
          cost(problem.model, problem.pattern, problem.patternIndex,
               problem.trace, mask),
          plan(problem.pattern, cost, mask)
    {
    }
};

} // namespace

struct Placer::Cache
{
    std::mutex mutex;
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const CachedSearch> entry;
};

Placer::Placer(const hw::Device &device)
    : view_(device), cache_(std::make_shared<Cache>())
{
}

Placer::Placer(hw::DeviceView view)
    : view_(std::move(view)), cache_(std::make_shared<Cache>())
{
}

std::vector<ScoredPlacement>
Placer::topPlacements(const circuit::Circuit &logical, std::size_t k,
                      std::size_t limit) const
{
    const std::uint64_t fp = logical.fingerprint();
    std::shared_ptr<const CachedSearch> search;
    {
        std::lock_guard<std::mutex> lock(cache_->mutex);
        if (cache_->entry && cache_->fingerprint == fp)
            search = cache_->entry;
    }
    if (!search) {
        auto problem = buildProblem(view_, logical);
        if (!problem)
            return {};
        search = std::make_shared<const CachedSearch>(
            std::move(*problem), view_.maskPtr());
        std::lock_guard<std::mutex> lock(cache_->mutex);
        cache_->fingerprint = fp;
        cache_->entry = search;
    }

    const PlacementProblem &problem = search->problem;
    // The map is both the key and what the score walks, so this
    // scorer ignores the admission floor.
    const EmbeddingScorer scorer =
        [&](const std::vector<int> &embedding, double,
            std::vector<int> &map, double &esp) {
            map = completeMap(view_, problem, embedding);
            esp = problem.model->espOfTrace(problem.trace, map);
        };
    auto best = topKPlacements(search->plan, scorer, k, limit);
    std::vector<ScoredPlacement> out;
    out.reserve(best.size());
    for (auto &scored : best)
        out.push_back(
            ScoredPlacement{std::move(scored.map), scored.esp});
    return out;
}

std::vector<ScoredPlacement>
Placer::rankedEmbeddings(const circuit::Circuit &logical,
                         std::size_t limit) const
{
    const auto problem = buildProblem(view_, logical);
    std::vector<ScoredPlacement> out;
    if (!problem)
        return out;

    const auto embeddings = vf2AllEmbeddings(
        problem->pattern, view_.topology(), limit, view_.maskPtr());
    out.reserve(embeddings.size());
    for (const auto &embedding : embeddings) {
        std::vector<int> map = completeMap(view_, *problem, embedding);
        const double score =
            problem->model->espOfTrace(problem->trace, map);
        out.push_back(ScoredPlacement{std::move(map), score});
    }
    std::sort(out.begin(), out.end(),
              [](const ScoredPlacement &a, const ScoredPlacement &b) {
                  return placementBefore(a.esp, a.map, b.esp, b.map);
              });
    return out;
}

std::vector<int>
Placer::place(const circuit::Circuit &logical) const
{
    const auto top = topPlacements(logical, 1);
    if (!top.empty())
        return top.front().map;
    return greedyPlace(view_, logical);
}

} // namespace qedm::transpile
