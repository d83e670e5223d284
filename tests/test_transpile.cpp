/**
 * @file
 * Unit tests for qedm_transpile: ESP computation, interaction graphs,
 * VF2 embedding (including pruned-vs-reference equivalence), the
 * bounded top-K placement search, variation-aware placement, and the
 * SWAP router (including semantic preservation of routed circuits).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "benchmarks/benchmarks.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/distances.hpp"
#include "transpile/esp.hpp"
#include "transpile/interaction_graph.hpp"
#include "transpile/lookahead_router.hpp"
#include "transpile/placement_search.hpp"
#include "transpile/placer.hpp"
#include "transpile/router.hpp"
#include "transpile/transpiler.hpp"
#include "transpile/vf2.hpp"

namespace qedm::transpile {
namespace {

using circuit::Circuit;

TEST(Esp, MatchesHandComputedProduct)
{
    const hw::Device device = hw::Device::melbourne(7);
    const auto &cal = device.calibration();
    Circuit c(14, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    const int e01 = device.topology().edgeIndex(0, 1);
    const double expected =
        (1.0 - cal.qubit(0).error1q) *
        (1.0 - cal.edge(std::size_t(e01)).cxError) *
        (1.0 - cal.qubit(0).readoutError()) *
        (1.0 - cal.qubit(1).readoutError());
    EXPECT_NEAR(esp(c, device), expected, 1e-12);
}

TEST(Esp, SwapCountsAsThreeCx)
{
    const hw::Device device = hw::Device::melbourne(7);
    Circuit with_swap(14, 1);
    with_swap.swap(0, 1).measure(0, 0);
    Circuit with_cx(14, 1);
    with_cx.cx(0, 1).cx(1, 0).cx(0, 1).measure(0, 0);
    EXPECT_NEAR(esp(with_swap, device), esp(with_cx, device), 1e-12);
}

TEST(Esp, IdealDeviceGivesOne)
{
    const hw::Device device = hw::Device::idealMelbourne();
    Circuit c(14, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    EXPECT_DOUBLE_EQ(esp(c, device), 1.0);
}

TEST(Esp, RejectsUncoupledTwoQubitGate)
{
    const hw::Device device = hw::Device::melbourne(7);
    Circuit c(14, 1);
    c.cx(0, 7).measure(0, 0);
    EXPECT_THROW(esp(c, device), UserError);
}

TEST(InteractionGraph, CollectsWeightedPairs)
{
    Circuit c(4, 0);
    c.cx(0, 1).cx(1, 0).cx(2, 3);
    const InteractionGraph ig = interactionGraph(c);
    EXPECT_EQ(ig.numQubits, 4);
    ASSERT_EQ(ig.edges.size(), 2u);
    EXPECT_EQ(ig.edges[0], (std::pair{0, 1}));
    EXPECT_EQ(ig.weights[0], 2);
    EXPECT_EQ(ig.degree(1), 1);
    EXPECT_TRUE(ig.isolatedQubits().empty());
}

TEST(InteractionGraph, IsolatedQubits)
{
    Circuit c(4, 0);
    c.h(0).cx(1, 2);
    const InteractionGraph ig = interactionGraph(c);
    const auto isolated = ig.isolatedQubits();
    EXPECT_EQ(isolated, (std::vector{0, 3}));
}

TEST(InteractionGraph, DecomposesSwapFirst)
{
    Circuit c(3, 0);
    c.swap(0, 2);
    const InteractionGraph ig = interactionGraph(c);
    ASSERT_EQ(ig.edges.size(), 1u);
    EXPECT_EQ(ig.weights[0], 3);
}

TEST(Vf2, PathIntoPath)
{
    // 3-path into 5-path: 3 positions x 2 orientations = 6.
    const auto maps = vf2AllEmbeddings(hw::Topology::linear(3),
                                       hw::Topology::linear(5));
    EXPECT_EQ(maps.size(), 6u);
    for (const auto &m : maps) {
        std::set<int> distinct(m.begin(), m.end());
        EXPECT_EQ(distinct.size(), 3u);
    }
}

TEST(Vf2, TriangleCannotEmbedInBipartiteLadder)
{
    const hw::Topology triangle(3, {{0, 1}, {1, 2}, {0, 2}});
    EXPECT_FALSE(vf2Embeds(triangle, hw::Topology::melbourne()));
}

TEST(Vf2, StarFourCannotEmbedInMelbourne)
{
    // Max degree on the melbourne ladder is 3.
    const hw::Topology star4(
        5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
    EXPECT_FALSE(vf2Embeds(star4, hw::Topology::melbourne()));
}

TEST(Vf2, StarThreeEmbedsInMelbourne)
{
    const hw::Topology star3(4, {{0, 1}, {0, 2}, {0, 3}});
    const auto maps =
        vf2AllEmbeddings(star3, hw::Topology::melbourne());
    EXPECT_FALSE(maps.empty());
    const hw::Topology melbourne = hw::Topology::melbourne();
    for (const auto &m : maps) {
        for (int leaf = 1; leaf <= 3; ++leaf)
            EXPECT_TRUE(melbourne.adjacent(m[0], m[leaf]));
    }
}

TEST(Vf2, LimitIsHonored)
{
    const auto maps = vf2AllEmbeddings(hw::Topology::linear(2),
                                       hw::Topology::melbourne(), 5);
    EXPECT_EQ(maps.size(), 5u);
}

TEST(Vf2, StreamingFormCountsAndStopsAtLimit)
{
    // The visitor sees the collector's embeddings in the same order and
    // returns how many it saw, stopping at the limit.
    const hw::Topology pattern = hw::Topology::linear(2);
    const hw::Topology target = hw::Topology::melbourne();
    const auto all = vf2AllEmbeddings(pattern, target);
    std::vector<std::vector<int>> seen;
    const auto collect = [&seen](const std::vector<int> &m) {
        seen.push_back(m);
    };
    EXPECT_EQ(vf2ForEachEmbedding(pattern, target, 100000, nullptr,
                                  collect),
              all.size());
    EXPECT_EQ(seen, all);
    seen.clear();
    EXPECT_EQ(vf2ForEachEmbedding(pattern, target, 5, nullptr, collect),
              5u);
    EXPECT_EQ(seen,
              std::vector<std::vector<int>>(all.begin(), all.begin() + 5));
}

TEST(Vf2, EveryEmbeddingMapsEdgesToEdges)
{
    const hw::Topology pattern(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    const hw::Topology target = hw::Topology::melbourne();
    const auto maps = vf2AllEmbeddings(pattern, target);
    EXPECT_FALSE(maps.empty()); // 4-cycles exist in the ladder
    for (const auto &m : maps) {
        EXPECT_TRUE(target.adjacent(m[0], m[1]));
        EXPECT_TRUE(target.adjacent(m[1], m[2]));
        EXPECT_TRUE(target.adjacent(m[2], m[3]));
        EXPECT_TRUE(target.adjacent(m[3], m[0]));
    }
}

TEST(Vf2, PatternLargerThanTargetRejected)
{
    EXPECT_THROW(vf2AllEmbeddings(hw::Topology::linear(5),
                                  hw::Topology::linear(3)),
                 UserError);
    EXPECT_FALSE(vf2Embeds(hw::Topology::linear(5),
                           hw::Topology::linear(3)));
}

TEST(Placer, RankedEmbeddingsSortedByEsp)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Placer placer(device);
    Circuit c(3, 3);
    c.cx(0, 1).cx(1, 2).measureAll();
    const auto ranked = placer.rankedEmbeddings(c);
    ASSERT_GT(ranked.size(), 1u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].esp, ranked[i].esp);
    // Every placement is injective and in range.
    for (const auto &sp : ranked) {
        std::set<int> distinct(sp.map.begin(), sp.map.end());
        EXPECT_EQ(distinct.size(), sp.map.size());
        for (int p : sp.map) {
            EXPECT_GE(p, 0);
            EXPECT_LT(p, 14);
        }
    }
}

TEST(Placer, PlaceReturnsBestEmbeddingWhenAvailable)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Placer placer(device);
    Circuit c(3, 3);
    c.cx(0, 1).cx(1, 2).measureAll();
    const auto ranked = placer.rankedEmbeddings(c);
    const auto best = placer.place(c);
    EXPECT_EQ(best, ranked.front().map);
}

TEST(Placer, GreedyFallbackForNonEmbeddablePattern)
{
    // Star-4 interaction graph cannot embed (max degree 3), so place()
    // must fall back to greedy and the router will insert SWAPs.
    const hw::Device device = hw::Device::melbourne(7);
    const Placer placer(device);
    Circuit c(5, 5);
    c.cx(0, 4).cx(1, 4).cx(2, 4).cx(3, 4).measureAll();
    EXPECT_TRUE(placer.rankedEmbeddings(c).empty());
    const auto map = placer.place(c);
    std::set<int> distinct(map.begin(), map.end());
    EXPECT_EQ(distinct.size(), 5u);
}

TEST(Placer, IsolatedQubitsGetBestReadout)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Placer placer(device);
    Circuit c(3, 3);
    c.cx(0, 1).measureAll(); // qubit 2 isolated
    const auto map = placer.place(c);
    // Isolated qubit must not land on the pathological readout qubits.
    EXPECT_NE(map[2], 11);
    EXPECT_NE(map[2], 12);
}

TEST(Router, AdjacentGateNeedsNoSwap)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Router router(device);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    const auto result = router.route(c, {0, 1});
    EXPECT_EQ(result.swapCount, 0);
    EXPECT_TRUE(result.physical.respectsCoupling(
        [&](int a, int b) { return device.topology().adjacent(a, b); }));
}

TEST(Router, DistantGateInsertsSwaps)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Router router(device, RouteCost::HopCount);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    // Place on 0 and 3: distance 3 -> 2 swaps.
    const auto result = router.route(c, {0, 3});
    EXPECT_EQ(result.swapCount, 2);
    EXPECT_TRUE(result.physical.respectsCoupling(
        [&](int a, int b) { return device.topology().adjacent(a, b); }));
}

TEST(Router, FinalMapTracksSwaps)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Router router(device, RouteCost::HopCount);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    const auto result = router.route(c, {0, 3});
    // Logical 0 moved next to physical 3; logical 1 still on 3.
    EXPECT_EQ(result.finalMap[1], 3);
    EXPECT_TRUE(
        device.topology().adjacent(result.finalMap[0],
                                   result.finalMap[1]));
}

TEST(Router, ValidatesInitialMap)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Router router(device);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    EXPECT_THROW(router.route(c, {0}), UserError);
    EXPECT_THROW(router.route(c, {0, 0}), UserError);
    EXPECT_THROW(router.route(c, {0, 99}), UserError);
}

TEST(Router, RoutedCircuitPreservesSemantics)
{
    // Route a GHZ circuit with a deliberately bad placement and check
    // the ideal output distribution is unchanged.
    const hw::Device device = hw::Device::idealMelbourne();
    const Router router(device);
    Circuit c(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    const auto routed = router.route(c, {0, 5, 9});
    EXPECT_GT(routed.swapCount, 0);
    const auto logical_dist = sim::idealDistribution(c);
    const auto routed_dist = sim::idealDistribution(routed.physical);
    for (Outcome o = 0; o < 8; ++o)
        EXPECT_NEAR(routed_dist.prob(o), logical_dist.prob(o), 1e-9)
            << "outcome " << o;
}

TEST(Router, ReliabilityCostAvoidsBadLinks)
{
    // Make one link on the hop-shortest path catastntastrophically bad
    // and check the reliability router detours around it.
    hw::Device device = hw::Device::melbourne(7);
    hw::Calibration cal = device.calibration();
    const int bad = device.topology().edgeIndex(1, 2);
    cal.edge(std::size_t(bad)).cxError = 0.40;
    device = device.withCalibration(cal);

    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    const Router hop_router(device, RouteCost::HopCount);
    const Router rel_router(device, RouteCost::Reliability);
    const auto hop = hop_router.route(c, {0, 3});
    const auto rel = rel_router.route(c, {0, 3});
    // The reliability route must have higher ESP despite possibly
    // using more SWAPs.
    EXPECT_GE(esp(rel.physical, device), esp(hop.physical, device));
}

TEST(Transpiler, CompileProducesValidProgram)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Transpiler compiler(device);
    const auto bench = benchmarks::bv6();
    const auto program = compiler.compile(bench.circuit);
    EXPECT_GT(program.esp, 0.0);
    EXPECT_LE(program.esp, 1.0);
    EXPECT_TRUE(program.physical.respectsCoupling(
        [&](int a, int b) { return device.topology().adjacent(a, b); }));
    EXPECT_EQ(program.physical.numClbits(), bench.outputWidth);
    // BV-6 (4-leaf star) needs at least one SWAP on a degree-3 chip.
    EXPECT_GE(program.swapCount, 1);
}

TEST(Transpiler, CompiledBv6SemanticsPreserved)
{
    const auto bench = benchmarks::bv6();
    const hw::Device device = hw::Device::idealMelbourne();
    const Transpiler compiler(device);
    const auto program = compiler.compile(bench.circuit);
    const auto dist = sim::idealDistribution(program.physical);
    EXPECT_NEAR(dist.prob(bench.expected), 1.0, 1e-9);
}

TEST(Transpiler, QaoaNeedsNoSwaps)
{
    // The paper: path-graph QAOA maps SWAP-free onto the device.
    const hw::Device device = hw::Device::melbourne(7);
    const Transpiler compiler(device);
    for (int n : {5, 6, 7}) {
        const auto bench = benchmarks::qaoaMaxcutPath(n);
        const auto program = compiler.compile(bench.circuit);
        EXPECT_EQ(program.swapCount, 0) << "qaoa-" << n;
    }
}

TEST(Transpiler, CompileWithPlacementRespectsMap)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Transpiler compiler(device);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    const auto program = compiler.compileWithPlacement(c, {6, 8});
    EXPECT_EQ(program.initialMap, (std::vector{6, 8}));
    EXPECT_EQ(program.swapCount, 0);
    const auto used = program.usedQubits();
    EXPECT_EQ(used, (std::vector{6, 8}));
}

namespace {

/**
 * Reference subgraph-monomorphism enumerator: plain recursive
 * backtracking in pattern-vertex order with no pruning beyond
 * injectivity and edge preservation. The pruned production VF2 must
 * produce exactly this embedding *set*.
 */
std::vector<std::vector<int>>
referenceEmbeddings(const hw::Topology &pattern,
                    const hw::Topology &target)
{
    std::vector<std::vector<int>> out;
    std::vector<int> map(static_cast<std::size_t>(pattern.numQubits()),
                         -1);
    std::vector<bool> used(static_cast<std::size_t>(target.numQubits()),
                           false);
    const std::function<void(int)> recurse = [&](int v) {
        if (v == pattern.numQubits()) {
            out.push_back(map);
            return;
        }
        for (int t = 0; t < target.numQubits(); ++t) {
            if (used[std::size_t(t)])
                continue;
            bool ok = true;
            for (int u = 0; u < v; ++u) {
                if (pattern.adjacent(u, v) &&
                    !target.adjacent(map[std::size_t(u)], t)) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                continue;
            map[std::size_t(v)] = t;
            used[std::size_t(t)] = true;
            recurse(v + 1);
            map[std::size_t(v)] = -1;
            used[std::size_t(t)] = false;
        }
    };
    recurse(0);
    return out;
}

/** Sorted copy (embedding set comparison, order-independent). */
std::vector<std::vector<int>>
asSortedSet(std::vector<std::vector<int>> maps)
{
    std::sort(maps.begin(), maps.end());
    return maps;
}

} // namespace

TEST(Vf2, PrunedEnumerationMatchesReferenceOnSmallGraphs)
{
    // The degree / neighborhood-signature pruning must never change
    // the embedding *set* — sweep pattern/target pairs that exercise
    // paths, cycles, stars, and irregular-degree targets.
    const hw::Topology path3 = hw::Topology::linear(3);
    const hw::Topology path4 = hw::Topology::linear(4);
    const hw::Topology cycle4(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    const hw::Topology star3(4, {{0, 1}, {0, 2}, {0, 3}});
    const hw::Topology kite(
        5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
    const hw::Topology melbourne = hw::Topology::melbourne();
    const std::vector<std::pair<hw::Topology, hw::Topology>> cases = {
        {path3, hw::Topology::linear(5)}, {path3, melbourne},
        {path4, melbourne},               {cycle4, melbourne},
        {star3, melbourne},               {path3, kite},
        {cycle4, cycle4},                 {star3, star3},
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &[pattern, target] = cases[i];
        const auto pruned = vf2AllEmbeddings(pattern, target);
        const auto reference = referenceEmbeddings(pattern, target);
        EXPECT_EQ(asSortedSet(pruned), asSortedSet(reference))
            << "case " << i;
    }
}

TEST(PlacementSearch, PlacementBeforeIsEspThenLexOrder)
{
    EXPECT_TRUE(placementBefore(0.9, {5, 4}, 0.8, {0, 1}));
    EXPECT_FALSE(placementBefore(0.8, {0, 1}, 0.9, {5, 4}));
    // Exact ESP tie: lexicographically smaller map ranks first,
    // regardless of which argument comes first.
    EXPECT_TRUE(placementBefore(0.5, {0, 2}, 0.5, {0, 3}));
    EXPECT_FALSE(placementBefore(0.5, {0, 3}, 0.5, {0, 2}));
    EXPECT_FALSE(placementBefore(0.5, {1, 2}, 0.5, {1, 2}));
}

TEST(TopPlacements, GoldenQaoa5Melbourne)
{
    // Pinned before the search rewrite (full rankedEmbeddings head at
    // %.17g); the branch-and-bound path must reproduce it exactly.
    const hw::Device device = hw::Device::melbourne(2);
    const Placer placer(device);
    const auto top =
        placer.topPlacements(benchmarks::qaoa5().circuit, 4);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_EQ(top[0].esp, 0.67771989704512359);
    EXPECT_EQ(top[0].map, (std::vector{4, 3, 2, 1, 0}));
    EXPECT_EQ(top[1].esp, 0.67690638918959456);
    EXPECT_EQ(top[1].map, (std::vector{0, 1, 2, 3, 4}));
    EXPECT_EQ(top[2].esp, 0.66326125851578177);
    EXPECT_EQ(top[2].map, (std::vector{13, 1, 2, 3, 4}));
    EXPECT_EQ(top[3].esp, 0.6631284535386871);
    EXPECT_EQ(top[3].map, (std::vector{4, 3, 2, 1, 13}));
}

TEST(TopPlacements, GoldenQaoa7PathMelbourne)
{
    const hw::Device device = hw::Device::melbourne(2);
    const Placer placer(device);
    const auto top = placer.topPlacements(
        benchmarks::qaoaMaxcutPath(7).circuit, 4);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_EQ(top[0].esp, 0.55807282166065075);
    EXPECT_EQ(top[0].map, (std::vector{6, 8, 9, 10, 4, 3, 2}));
    EXPECT_EQ(top[1].esp, 0.55796111214350863);
    EXPECT_EQ(top[1].map, (std::vector{2, 3, 4, 10, 9, 8, 6}));
    EXPECT_EQ(top[2].esp, 0.54371641452851904);
    EXPECT_EQ(top[2].map, (std::vector{7, 8, 9, 10, 4, 3, 2}));
    EXPECT_EQ(top[3].esp, 0.54317234450251706);
    EXPECT_EQ(top[3].map, (std::vector{2, 3, 4, 10, 9, 8, 7}));
}

TEST(TopPlacements, MatchesRankedEmbeddingsHead)
{
    // Bound pruning must be lossless: for every K the branch-and-bound
    // result equals the head of the exhaustive materialize-then-sort
    // path, map for map and bit for bit.
    const hw::Device device = hw::Device::melbourne(2);
    const Placer placer(device);
    const std::vector<Circuit> circuits = {
        benchmarks::qaoa5().circuit,
        benchmarks::qaoaMaxcutPath(6).circuit,
        benchmarks::qaoa6().circuit,
    };
    for (std::size_t c = 0; c < circuits.size(); ++c) {
        const auto ranked = placer.rankedEmbeddings(circuits[c]);
        ASSERT_FALSE(ranked.empty()) << "circuit " << c;
        for (std::size_t k : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}, ranked.size() + 5}) {
            const auto top = placer.topPlacements(circuits[c], k);
            ASSERT_EQ(top.size(), std::min(k, ranked.size()))
                << "circuit " << c << " k=" << k;
            for (std::size_t i = 0; i < top.size(); ++i) {
                EXPECT_EQ(top[i].esp, ranked[i].esp)
                    << "circuit " << c << " k=" << k << " i=" << i;
                EXPECT_EQ(top[i].map, ranked[i].map)
                    << "circuit " << c << " k=" << k << " i=" << i;
            }
        }
    }
}

TEST(TopPlacements, EqualEspTiesOrderLexicographically)
{
    // On an ideal device every placement scores exactly 1.0, so the
    // returned order is pure tie-break: lexicographic on the map,
    // independent of enumeration order or pruning strength.
    const hw::Device device = hw::Device::idealMelbourne();
    const Placer placer(device);
    Circuit c(3, 3);
    c.cx(0, 1).cx(1, 2).measureAll();
    const auto top = placer.topPlacements(c, 6);
    ASSERT_EQ(top.size(), 6u);
    for (std::size_t i = 0; i < top.size(); ++i)
        EXPECT_EQ(top[i].esp, 1.0) << "i=" << i;
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_LT(top[i - 1].map, top[i].map) << "i=" << i;
    // And the exhaustive path agrees on the same canonical order.
    const auto ranked = placer.rankedEmbeddings(c);
    ASSERT_GE(ranked.size(), top.size());
    for (std::size_t i = 0; i < top.size(); ++i)
        EXPECT_EQ(top[i].map, ranked[i].map) << "i=" << i;
}

TEST(TopPlacements, BoundPruningActuallyFires)
{
    // Effort counters: the search must visit fewer completions than
    // the exhaustive enumeration produces, and report bound prunes.
    const hw::Device device = hw::Device::melbourne(2);
    const auto model = sharedEspModel(device);
    const Circuit logical = benchmarks::qaoaMaxcutPath(7).circuit;
    const InteractionGraph ig = interactionGraph(logical);
    const hw::Topology pattern(ig.numQubits, ig.edges);
    std::vector<int> pattern_index(std::size_t(ig.numQubits));
    for (int q = 0; q < ig.numQubits; ++q)
        pattern_index[std::size_t(q)] = q;
    const GateTrace trace = EspModel::trace(logical.decomposed());
    const PlacementCostModel cost(model, pattern, pattern_index, trace);
    const EmbeddingScorer scorer = [&](const std::vector<int> &emb,
                                       double, std::vector<int> &map_out,
                                       double &esp_out) {
        map_out = emb;
        esp_out = model->espOfTrace(trace, emb);
    };
    const PlacementSearchPlan plan(pattern, cost);
    PlacementSearchStats stats;
    const auto top = topKPlacements(plan, scorer, 4, 100000, &stats);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_GT(stats.nodesVisited, 0u);
    EXPECT_GT(stats.prunedBound, 0u);
    // 304 embeddings exist (pre-rewrite count); the bound must cut
    // well below full materialization.
    EXPECT_LT(stats.completions, 304u);
}

/** One 1q and one measure term per pattern vertex, one 2q term per
 *  pattern edge. */
GateTrace
uniformTrace(const hw::Topology &pattern)
{
    GateTrace trace;
    for (int v = 0; v < pattern.numQubits(); ++v) {
        trace.push_back({GateTerm::Kind::OneQubit, v, 0});
        trace.push_back({GateTerm::Kind::Measure, v, 0});
    }
    for (const auto &edge : pattern.edges())
        trace.push_back({GateTerm::Kind::TwoQubit, edge.a, edge.b});
    return trace;
}

/** Shared host count of two embeddings. */
int
sharedHosts(const std::vector<int> &a, const std::vector<int> &b)
{
    int count = 0;
    for (int q : a)
        count += static_cast<int>(std::count(b.begin(), b.end(), q));
    return count;
}

/** Scorer calls and keys built by a lazy scorer. */
struct KeyCounts
{
    std::size_t scored = 0;
    std::size_t built = 0;
};

/**
 * A constrained top-k query returns the head of the exhaustive
 * ranking filtered to embeddings sharing at most maxShared hosts with
 * each avoided set, at every cap. The search also runs with a lazy
 * scorer that leaves the key empty below the admission floor: it
 * must return the same list, and see a floor of -inf until k
 * embeddings are kept and a rising floor no higher than the final
 * k-th best after that. Its calls and key builds are added to
 * @p counts.
 */
void
expectMatchesFilteredEnumeration(const hw::Device &device,
                                 const hw::Topology &pattern,
                                 const GateTrace &trace, std::size_t k,
                                 const std::string &label,
                                 KeyCounts &counts)
{
    const auto model = sharedEspModel(device);
    const int n = pattern.numQubits();
    std::vector<int> identity(static_cast<std::size_t>(n));
    std::iota(identity.begin(), identity.end(), 0);
    const PlacementCostModel cost(model, pattern, identity, trace);
    const PlacementSearchPlan plan(pattern, cost);
    const EmbeddingScorer scorer = [&](const std::vector<int> &emb,
                                       double, std::vector<int> &map_out,
                                       double &esp_out) {
        map_out = emb;
        esp_out = model->espOfTrace(trace, emb);
    };
    std::vector<double> floors;
    std::size_t keys = 0;
    const EmbeddingScorer lazy = [&](const std::vector<int> &emb,
                                     double floor,
                                     std::vector<int> &map_out,
                                     double &esp_out) {
        floors.push_back(floor);
        esp_out = model->espOfTrace(trace, emb);
        if (esp_out < floor) {
            map_out.clear();
            return;
        }
        ++keys;
        map_out = emb;
    };

    std::vector<ScoredEmbedding> ranked;
    for (const auto &emb : vf2AllEmbeddings(pattern, device.topology()))
        ranked.push_back({emb, emb, model->espOfTrace(trace, emb)});
    std::sort(ranked.begin(), ranked.end(),
              [](const ScoredEmbedding &a, const ScoredEmbedding &b) {
                  return placementBefore(a.esp, a.map, b.esp, b.map);
              });
    ASSERT_GT(ranked.size(), 2 * k) << label;
    HostSetConstraint constraint;
    constraint.avoid = {ranked.front().embedding,
                        ranked[ranked.size() / 2].embedding};
    for (int max_shared = 0; max_shared < n; ++max_shared) {
        constraint.maxShared = max_shared;
        std::vector<ScoredEmbedding> expected;
        for (const ScoredEmbedding &s : ranked) {
            bool ok = expected.size() < k;
            for (const auto &set : constraint.avoid)
                ok = ok && sharedHosts(s.embedding, set) <= max_shared;
            if (ok)
                expected.push_back(s);
        }
        if (max_shared == n - 1) {
            EXPECT_EQ(expected.size(), k) << label;
        }
        const std::string at = label + " k " + std::to_string(k) +
                               " maxShared " +
                               std::to_string(max_shared);
        const auto got = topKPlacements(plan, scorer, k, 100000,
                                        nullptr, &constraint);
        floors.clear();
        keys = 0;
        const auto got_lazy =
            topKPlacements(plan, lazy, k, 100000, nullptr, &constraint);
        ASSERT_EQ(got.size(), expected.size()) << at;
        ASSERT_EQ(got_lazy.size(), expected.size()) << at;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].embedding, expected[i].embedding)
                << at << " i=" << i;
            EXPECT_EQ(got[i].esp, expected[i].esp) << at << " i=" << i;
            EXPECT_EQ(got_lazy[i].embedding, expected[i].embedding)
                << at << " i=" << i;
            EXPECT_EQ(got_lazy[i].map, expected[i].map)
                << at << " i=" << i;
            EXPECT_EQ(got_lazy[i].esp, expected[i].esp)
                << at << " i=" << i;
        }
        for (std::size_t i = 0; i < floors.size(); ++i) {
            if (i < k) {
                EXPECT_EQ(floors[i],
                          -std::numeric_limits<double>::infinity())
                    << at << " call " << i;
                continue;
            }
            EXPECT_GE(floors[i], floors[i - 1]) << at << " call " << i;
            if (got_lazy.size() == k) {
                EXPECT_LE(floors[i], got_lazy.back().esp)
                    << at << " call " << i;
            }
        }
        counts.scored += floors.size();
        counts.built += keys;
    }
}

TEST(TopPlacements, HostSetConstraintMatchesFilteredEnumeration)
{
    // At every cap: a connected pattern, one whose second component
    // starts unanchored, and one ending in two isolated vertices
    // (unanchored depths read presorted host lists and cut pruned
    // siblings in bulk).
    const hw::Device device = hw::Device::melbourne(2);
    const std::vector<hw::Topology> patterns = {
        hw::Topology(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
        hw::Topology(5, {{0, 1}, {1, 2}, {3, 4}}),
        hw::Topology(5, {{0, 1}, {1, 2}}),
    };
    KeyCounts counts;
    for (std::size_t c = 0; c < patterns.size(); ++c)
        expectMatchesFilteredEnumeration(device, patterns[c],
                                         uniformTrace(patterns[c]), 4,
                                         "pattern " + std::to_string(c),
                                         counts);
}

TEST(TopPlacements, TwinPatternsMatchFilteredEnumeration)
{
    // Patterns rich in twins: the search walks one embedding per twin
    // orbit and scores the orbit at its leaves, which must return the
    // exhaustive ranking's head at every k and cap. A near-twin star,
    // whose leaf 3 carries one more 1q term, keeps that leaf out of
    // the class. Orbit members below the admission floor skip their
    // keys, so a lazy scorer builds fewer keys than it scores.
    const hw::Device device = hw::Device::melbourne(2);
    const auto model = sharedEspModel(device);
    const hw::Topology star(4, {{0, 1}, {0, 2}, {0, 3}});
    const hw::Topology star_isolated(6, {{0, 1}, {0, 2}, {0, 3}});
    GateTrace near_twin = uniformTrace(star);
    near_twin.push_back({GateTerm::Kind::OneQubit, 3, 0});
    struct Case
    {
        std::string label;
        const hw::Topology &pattern;
        GateTrace trace;
        std::vector<std::vector<int>> twins; ///< each class sorted
    };
    const std::vector<Case> cases = {
        {"star", star, uniformTrace(star), {{1, 2, 3}}},
        {"star + 2 isolated",
         star_isolated,
         uniformTrace(star_isolated),
         {{1, 2, 3}, {4, 5}}},
        {"near-twin star", star, near_twin, {{1, 2}}},
    };
    KeyCounts counts;
    for (const Case &c : cases) {
        std::vector<int> identity(
            static_cast<std::size_t>(c.pattern.numQubits()));
        std::iota(identity.begin(), identity.end(), 0);
        const PlacementCostModel cost(model, c.pattern, identity,
                                      c.trace);
        auto classes = PlacementSearchPlan(c.pattern, cost).twinClasses();
        for (auto &members : classes)
            std::sort(members.begin(), members.end());
        std::sort(classes.begin(), classes.end());
        EXPECT_EQ(classes, c.twins) << c.label;
        for (std::size_t k = 1; k <= 4; ++k)
            expectMatchesFilteredEnumeration(device, c.pattern, c.trace,
                                             k, c.label, counts);
    }
    EXPECT_LT(counts.built, counts.scored);
}

TEST(TopPlacements, TwinFreePatternsHaveNoClasses)
{
    // A path's ends twin only when the path has three vertices; qaoa-7
    // on its own interaction graph (a 7-path) has none.
    const hw::Device device = hw::Device::melbourne(2);
    const auto model = sharedEspModel(device);
    const Circuit logical = benchmarks::qaoaMaxcutPath(7).circuit;
    const InteractionGraph ig = interactionGraph(logical);
    const hw::Topology pattern(ig.numQubits, ig.edges);
    std::vector<int> identity(static_cast<std::size_t>(ig.numQubits));
    std::iota(identity.begin(), identity.end(), 0);
    const GateTrace trace = EspModel::trace(logical.decomposed());
    const PlacementCostModel cost(model, pattern, identity, trace);
    EXPECT_TRUE(PlacementSearchPlan(pattern, cost).twinClasses().empty());
}

TEST(TopPlacements, BindingLimitWithIsolatedVerticesPinned)
{
    // A path plus two isolated vertices: the last two depths are
    // unanchored, so their children come from presorted host lists
    // and pruned leaf siblings are counted in bulk. With a binding
    // per-root limit that bulk count must stop exactly where one
    // completion at a time did. The path's ends {0, 2} and the
    // isolated {3, 4} are twins, so the limit counts leaves of the
    // twin-sorted tree (one per orbit); limits 2 and 13 bind, 100000
    // does not. Results and counters were captured from a per-child
    // search (no bulk count) of that tree.
    const hw::Device device = hw::Device::melbourne(2);
    const auto model = sharedEspModel(device);
    const hw::Topology pattern(5, {{0, 1}, {1, 2}});
    GateTrace trace;
    for (int v = 0; v < pattern.numQubits(); ++v) {
        trace.push_back({GateTerm::Kind::OneQubit, v, 0});
        trace.push_back({GateTerm::Kind::Measure, v, 0});
    }
    for (const auto &edge : pattern.edges())
        trace.push_back({GateTerm::Kind::TwoQubit, edge.a, edge.b});
    const std::vector<int> identity = {0, 1, 2, 3, 4};
    const PlacementCostModel cost(model, pattern, identity, trace);
    const PlacementSearchPlan plan(pattern, cost);
    const EmbeddingScorer scorer = [&](const std::vector<int> &emb,
                                       double, std::vector<int> &map_out,
                                       double &esp_out) {
        map_out = emb;
        esp_out = model->espOfTrace(trace, emb);
    };
    struct Pinned
    {
        std::size_t limit;
        std::vector<std::pair<std::vector<int>, double>> top;
        PlacementSearchStats stats;
    };
    const std::vector<Pinned> pinned = {
        {2,
         {{{9, 8, 6, 2, 13}, 0.82683346954163206},
          {{6, 8, 9, 2, 13}, 0.82683346954163195},
          {{9, 8, 6, 13, 2}, 0.82683346954163195}},
         {49, 2, 23, 0}},
        {13,
         {{{9, 8, 6, 0, 2}, 0.83126143895594451},
          {{9, 8, 6, 2, 0}, 0.83126143895594451},
          {{6, 8, 9, 0, 2}, 0.83126143895594429}},
         {43, 13, 19, 0}},
        {100000,
         {{{9, 8, 6, 0, 2}, 0.83126143895594451},
          {{9, 8, 6, 2, 0}, 0.83126143895594451},
          {{6, 8, 9, 0, 2}, 0.83126143895594429}},
         {67, 18, 40, 0}},
    };
    for (const Pinned &p : pinned) {
        const std::string at = "limit " + std::to_string(p.limit);
        PlacementSearchStats stats;
        const auto top = topKPlacements(plan, scorer, 3, p.limit, &stats);
        ASSERT_EQ(top.size(), p.top.size()) << at;
        for (std::size_t i = 0; i < top.size(); ++i) {
            EXPECT_EQ(top[i].embedding, p.top[i].first) << at << " i=" << i;
            EXPECT_EQ(top[i].esp, p.top[i].second) << at << " i=" << i;
        }
        EXPECT_EQ(stats.nodesVisited, p.stats.nodesVisited) << at;
        EXPECT_EQ(stats.completions, p.stats.completions) << at;
        EXPECT_EQ(stats.prunedBound, p.stats.prunedBound) << at;
        EXPECT_EQ(stats.prunedSignature, p.stats.prunedSignature) << at;
    }
}

// Brute-force optimality check: for a tiny 2-qubit program the
// placer's embedding must achieve the maximum ESP over all pairs.
TEST(Placer, BruteForceOptimalityTwoQubits)
{
    const hw::Device device = hw::Device::melbourne(7);
    const Transpiler compiler(device);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();

    double best = 0.0;
    for (int a = 0; a < 14; ++a) {
        for (int b = 0; b < 14; ++b) {
            if (a == b || !device.topology().adjacent(a, b))
                continue;
            best = std::max(
                best,
                compiler.compileWithPlacement(c, {a, b}).esp);
        }
    }
    EXPECT_NEAR(compiler.compile(c).esp, best, 1e-12);
}

/** Every seed topology, as a synthetic device with spread errors. */
std::vector<hw::Device>
seedTopologyDevices()
{
    std::vector<hw::Device> devices;
    auto add = [&](const char *name, hw::Topology topo) {
        devices.push_back(hw::Device::synthetic(
            name, std::move(topo), hw::CalibrationSpec{},
            hw::NoiseSpec{}, 17));
    };
    add("linear-6", hw::Topology::linear(6));
    add("ring-8", hw::Topology::ring(8));
    add("grid-3x4", hw::Topology::grid(3, 4));
    add("full-5", hw::Topology::fullyConnected(5));
    add("melbourne", hw::Topology::melbourne());
    add("tokyo", hw::Topology::tokyo());
    add("heavy-hex-27", hw::Topology::heavyHex27());
    add("heavy-hex-127", hw::Topology::heavyHex127());
    return devices;
}

TEST(DistanceProvider, TablePinnedOnEverySeedTopology)
{
    // Fingerprints over all n^2 doubles of every seed topology, for
    // both cost metrics on the full and a half-masked view, captured
    // when a dense matrix served devices up to 64 qubits and an
    // on-demand per-source Dijkstra served heavy-hex-127. One table
    // now serves every size and must reproduce both bit for bit.
    struct Pin
    {
        const char *name;
        // [Reliability full, Reliability half, HopCount full,
        //  HopCount half]
        std::uint64_t fingerprints[4];
    };
    const Pin pins[] = {
        {"linear-6",
         {0xc2d90aceebeaded0ull, 0x0114246fce69fac8ull,
          0xeb752ecf3d474751ull, 0x6c5d72c072333133ull}},
        {"ring-8",
         {0x51b638d9ea8aeaefull, 0xb564677b39f3c743ull,
          0xc107f9697a1b8c51ull, 0x70154c495d81fd75ull}},
        {"grid-3x4",
         {0x77d755aacbc9e168ull, 0x18817348e00eb530ull,
          0x2862fb3f85b6add1ull, 0xce657bfb60edb4c6ull}},
        {"full-5",
         {0x20369521382d896dull, 0x2dd446bf17f37b13ull,
          0xf5f1e209659f26b2ull, 0x40fdc92ba79cbd58ull}},
        {"melbourne",
         {0x654e19930bd71463ull, 0xce82ca64b5f0bc72ull,
          0x9cbae6190a89c66cull, 0xfa387fb7575f20b0ull}},
        {"tokyo",
         {0x7d4bd5dfb8a137d4ull, 0xb2247ad3af01c332ull,
          0xe89afb301091b471ull, 0xd3c394b3c09e053full}},
        {"heavy-hex-27",
         {0xf982b05d9e0d88e7ull, 0x4f72261ebbc0f135ull,
          0x15ef3bb5d429609full, 0x8b9dbfc788934ef6ull}},
        {"heavy-hex-127",
         {0x821badcd17f4405eull, 0xc992233fad692135ull,
          0x47c8909eea54d3d3ull, 0x805eb3a0ed07c848ull}},
    };
    const std::vector<hw::Device> devices = seedTopologyDevices();
    ASSERT_EQ(devices.size(), std::size(pins));
    for (std::size_t d = 0; d < devices.size(); ++d) {
        const hw::Device &device = devices[d];
        ASSERT_EQ(device.name(), pins[d].name);
        const hw::DeviceView full(device);
        // A contiguous half-device mask: distances through excluded
        // qubits must go unreachable or reroute.
        std::vector<int> half;
        for (int q = 0; q < device.numQubits() / 2 + 1; ++q)
            half.push_back(q);
        const hw::DeviceView masked(device, half);
        int slot = 0;
        for (const RouteCost cost :
             {RouteCost::Reliability, RouteCost::HopCount}) {
            for (const hw::DeviceView *view : {&full, &masked}) {
                const auto table = sharedDistanceProvider(*view, cost);
                // Memoized per view fingerprint: same view, same table.
                EXPECT_EQ(table.get(),
                          sharedDistanceProvider(*view, cost).get());
                Fingerprint fp;
                for (int a = 0; a < device.numQubits(); ++a) {
                    for (int b = 0; b < device.numQubits(); ++b)
                        fp.add(table->distance(a, b));
                }
                EXPECT_EQ(fp.value(), pins[d].fingerprints[slot])
                    << device.name() << " slot " << slot;
                ++slot;
            }
        }
    }
}

TEST(DistanceProvider, MaskedPairsAreUnreachable)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView view(device, {0, 1, 2});
    const DistanceTable table(view, RouteCost::HopCount);
    EXPECT_EQ(table.distance(0, 7), kUnreachableDistance);
    EXPECT_EQ(table.distance(7, 0), kUnreachableDistance);
    EXPECT_LT(table.distance(0, 2), kUnreachableDistance);
}

TEST(TopPlacements, FullMaskIsBitIdenticalToNoMask)
{
    // Passing an all-true mask must follow the literal unmasked code
    // path outcome: same placements, same scores, same order.
    const hw::Device device = hw::Device::melbourne(2);
    const auto logical = benchmarks::qaoaMaxcutPath(7).circuit;
    const Placer unmasked(device);
    const Placer masked{hw::DeviceView(
        device, [&] {
            std::vector<int> all;
            for (int q = 0; q < device.numQubits(); ++q)
                all.push_back(q);
            return all;
        }())};
    const auto a = unmasked.topPlacements(logical, 4);
    const auto b = masked.topPlacements(logical, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].map, b[i].map);
        EXPECT_EQ(a[i].esp, b[i].esp); // bit-identical, not NEAR
    }
}

TEST(TopPlacements, RegionMaskConfinesPlacements)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView view(device, {0, 1, 2, 3, 4, 5, 6, 13});
    const auto logical = benchmarks::qaoaMaxcutPath(5).circuit;
    const Placer placer(view);
    const auto top = placer.topPlacements(logical, 4);
    ASSERT_FALSE(top.empty());
    for (const auto &placement : top) {
        for (int p : placement.map)
            EXPECT_TRUE(view.allowed(p)) << "physical qubit " << p;
    }
}

TEST(Transpiler, RegionCompileStaysInsideAndVerifies)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView view(device, {0, 1, 2, 3, 4, 5, 6, 13, 12});
    const Transpiler compiler(view, RouteCost::Reliability, true);
    const auto program = compiler.compile(benchmarks::bv6().circuit);
    for (const auto &g : program.physical.gates()) {
        for (int q : g.qubits)
            EXPECT_TRUE(view.allowed(q)) << "gate touches qubit " << q;
    }
    EXPECT_GT(program.esp, 0.0);
}

TEST(Transpiler, FullViewCompileMatchesDeviceCompile)
{
    const hw::Device device = hw::Device::melbourne(2);
    const Transpiler by_device(device);
    const Transpiler by_view{hw::DeviceView(device)};
    const auto logical = benchmarks::bv6().circuit;
    const auto a = by_device.compile(logical);
    const auto b = by_view.compile(logical);
    EXPECT_EQ(a.initialMap, b.initialMap);
    EXPECT_EQ(a.finalMap, b.finalMap);
    EXPECT_EQ(a.swapCount, b.swapCount);
    EXPECT_EQ(a.esp, b.esp); // bit-identical
    EXPECT_EQ(a.physical.toQasm(), b.physical.toQasm());
}

TEST(Transpiler, HeavyHex127CompileHitsTheCircuitCap)
{
    // README, "Region-scoped compilation": placement runs on the
    // 127-qubit lattice, but the routed output spans the whole device
    // register and a Circuit holds at most 64 qubits, so both routers
    // refuse it with the Circuit constructor's error.
    const hw::Device device = hw::Device::synthetic(
        "heavy-hex-127", hw::Topology::heavyHex127(),
        hw::CalibrationSpec{}, hw::NoiseSpec{}, 17);
    const Circuit logical = benchmarks::qaoaMaxcutPath(7).circuit;
    auto expectCapError = [](const std::function<void()> &compile) {
        try {
            compile();
            ADD_FAILURE() << "no error above the 64-qubit cap";
        } catch (const UserError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "circuit qubit count must be in [1, 64]"),
                      std::string::npos)
                << err.what();
        }
    };
    expectCapError([&] { (void)Transpiler(device).compile(logical); });
    std::vector<int> initial_map(
        static_cast<std::size_t>(logical.numQubits()));
    std::iota(initial_map.begin(), initial_map.end(), 0);
    expectCapError([&] {
        (void)LookaheadRouter(device).route(logical, initial_map);
    });
}

TEST(Vf2, MaskRestrictsEmbeddingTargets)
{
    const hw::Topology pattern = hw::Topology::linear(3);
    const hw::Topology target = hw::Topology::melbourne();
    std::vector<bool> allowed(14, false);
    for (int q : {0, 1, 2, 3})
        allowed[q] = true;
    const auto all = vf2AllEmbeddings(pattern, target, 100000);
    const auto masked =
        vf2AllEmbeddings(pattern, target, 100000, &allowed);
    EXPECT_LT(masked.size(), all.size());
    ASSERT_FALSE(masked.empty());
    for (const auto &embedding : masked) {
        for (int p : embedding)
            EXPECT_TRUE(allowed[p]);
    }
}

} // namespace
} // namespace qedm::transpile
