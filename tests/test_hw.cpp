/**
 * @file
 * Unit tests for qedm_hw: topology graphs, calibration tables, drift,
 * and the correlated noise model.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hw/calibration.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"
#include "hw/noise_model.hpp"
#include "hw/topology.hpp"

namespace qedm::hw {
namespace {

TEST(Topology, LinearChain)
{
    const Topology t = Topology::linear(5);
    EXPECT_EQ(t.numQubits(), 5);
    EXPECT_EQ(t.numEdges(), 4u);
    EXPECT_TRUE(t.adjacent(0, 1));
    EXPECT_TRUE(t.adjacent(1, 0));
    EXPECT_FALSE(t.adjacent(0, 2));
    EXPECT_EQ(t.degree(0), 1);
    EXPECT_EQ(t.degree(2), 2);
    EXPECT_TRUE(t.isConnected());
}

TEST(Topology, Ring)
{
    const Topology t = Topology::ring(6);
    EXPECT_EQ(t.numEdges(), 6u);
    EXPECT_TRUE(t.adjacent(0, 5));
    for (int q = 0; q < 6; ++q)
        EXPECT_EQ(t.degree(q), 2);
    EXPECT_THROW(Topology::ring(2), UserError);
}

TEST(Topology, Grid)
{
    const Topology t = Topology::grid(2, 3);
    EXPECT_EQ(t.numQubits(), 6);
    EXPECT_EQ(t.numEdges(), 7u); // 4 horizontal + 3 vertical
    EXPECT_TRUE(t.adjacent(0, 3));
    EXPECT_TRUE(t.adjacent(0, 1));
    EXPECT_FALSE(t.adjacent(0, 4));
}

TEST(Topology, FullyConnected)
{
    const Topology t = Topology::fullyConnected(5);
    EXPECT_EQ(t.numEdges(), 10u);
    for (int a = 0; a < 5; ++a) {
        for (int b = a + 1; b < 5; ++b)
            EXPECT_TRUE(t.adjacent(a, b));
    }
}

TEST(Topology, MelbourneShape)
{
    const Topology t = Topology::melbourne();
    EXPECT_EQ(t.numQubits(), 14);
    EXPECT_EQ(t.numEdges(), 18u);
    EXPECT_TRUE(t.isConnected());
    // End qubits of the ladder have degree 1 or 2; interior up to 3.
    for (int q = 0; q < 14; ++q)
        EXPECT_LE(t.degree(q), 3);
    EXPECT_TRUE(t.adjacent(0, 1));
    EXPECT_TRUE(t.adjacent(1, 13));
    EXPECT_TRUE(t.adjacent(6, 8));
    EXPECT_FALSE(t.adjacent(0, 13));
    EXPECT_FALSE(t.adjacent(6, 7)); // 7 only couples to 8
}

TEST(Topology, MelbourneIsBipartite)
{
    // The ladder has only even cycles; 2-color it via BFS parity.
    const Topology t = Topology::melbourne();
    std::vector<int> color(14, -1);
    color[0] = 0;
    std::vector<int> stack{0};
    while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int v : t.neighbors(u)) {
            if (color[v] < 0) {
                color[v] = 1 - color[u];
                stack.push_back(v);
            } else {
                EXPECT_NE(color[v], color[u])
                    << "odd cycle through edge " << u << "-" << v;
            }
        }
    }
}

TEST(Topology, TokyoShape)
{
    const Topology t = Topology::tokyo();
    EXPECT_EQ(t.numQubits(), 20);
    EXPECT_TRUE(t.isConnected());
    // Diagonals give interior qubits degree up to 6 and create odd
    // cycles (unlike the bipartite melbourne ladder).
    int max_degree = 0;
    for (int q = 0; q < 20; ++q)
        max_degree = std::max(max_degree, t.degree(q));
    EXPECT_GE(max_degree, 5);
    EXPECT_TRUE(t.adjacent(1, 7)); // a diagonal
    EXPECT_TRUE(t.adjacent(0, 5));
    EXPECT_FALSE(t.adjacent(0, 19));
}

TEST(Topology, HeavyHexShape)
{
    const Topology t = Topology::heavyHex27();
    EXPECT_EQ(t.numQubits(), 27);
    EXPECT_EQ(t.numEdges(), 28u);
    EXPECT_TRUE(t.isConnected());
    // Heavy-hex qubits have degree at most 3.
    for (int q = 0; q < 27; ++q)
        EXPECT_LE(t.degree(q), 3);
}

TEST(Topology, DistanceAndPath)
{
    const Topology t = Topology::melbourne();
    EXPECT_EQ(t.distance(0, 0), 0);
    EXPECT_EQ(t.distance(0, 1), 1);
    EXPECT_EQ(t.distance(0, 7), 8); // opposite corners of the ladder
    const auto path = t.shortestPath(0, 3);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 3);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(t.adjacent(path[i], path[i + 1]));
}

TEST(Topology, DisconnectedDistance)
{
    const Topology t(4, {{0, 1}, {2, 3}});
    EXPECT_EQ(t.distance(0, 3), -1);
    EXPECT_TRUE(t.shortestPath(0, 3).empty());
    EXPECT_FALSE(t.isConnected());
}

TEST(Topology, ConnectedSubset)
{
    const Topology t = Topology::linear(6);
    EXPECT_TRUE(t.isConnectedSubset({1, 2, 3}));
    EXPECT_FALSE(t.isConnectedSubset({0, 2}));
    EXPECT_TRUE(t.isConnectedSubset({}));
    EXPECT_TRUE(t.isConnectedSubset({4}));
}

TEST(Topology, EdgeIndexCanonical)
{
    const Topology t = Topology::linear(4);
    const int e = t.edgeIndex(1, 2);
    EXPECT_GE(e, 0);
    EXPECT_EQ(t.edgeIndex(2, 1), e);
    EXPECT_EQ(t.edgeIndex(0, 3), -1);
}

TEST(Topology, RejectsInvalidEdges)
{
    EXPECT_THROW(Topology(3, {{0, 3}}), UserError);
    EXPECT_THROW(Topology(3, {{1, 1}}), UserError);
    // Duplicates (either order) are deduplicated, not an error.
    const Topology t(3, {{0, 1}, {1, 0}});
    EXPECT_EQ(t.numEdges(), 1u);
}

TEST(Calibration, MelbourneTableProperties)
{
    const Calibration cal = Calibration::melbourne();
    EXPECT_EQ(cal.numQubits(), 14u);
    EXPECT_EQ(cal.numEdges(), 18u);
    // Footnote 3: Q11 and Q12 have pathological readout.
    EXPECT_GT(cal.qubit(11).readoutP10, 0.25);
    EXPECT_GT(cal.qubit(12).readoutP10, 0.15);
    // Healthy qubits stay below 10% symmetrized readout error.
    EXPECT_LT(cal.qubit(2).readoutError(), 0.10);
    // Readout is biased: p10 > p01 everywhere (state-dependent bias).
    for (int q = 0; q < 14; ++q)
        EXPECT_GT(cal.qubit(q).readoutP10, cal.qubit(q).readoutP01);
    // T2 <= 2 T1 physical constraint.
    for (int q = 0; q < 14; ++q)
        EXPECT_LE(cal.qubit(q).t2Us, 2.0 * cal.qubit(q).t1Us);
}

TEST(Calibration, SampleRespectsSpread)
{
    const Topology topo = Topology::melbourne();
    CalibrationSpec spec;
    spec.spread = 0.8;
    Rng rng(3);
    const Calibration cal = Calibration::sample(topo, spec, rng);
    // Rates vary across qubits.
    std::set<double> distinct;
    for (int q = 0; q < 14; ++q)
        distinct.insert(cal.qubit(q).error1q);
    EXPECT_GT(distinct.size(), 10u);
    // All probabilities clamped to a sane range.
    for (std::size_t e = 0; e < cal.numEdges(); ++e) {
        EXPECT_GT(cal.edge(e).cxError, 0.0);
        EXPECT_LT(cal.edge(e).cxError, 0.5);
    }
}

TEST(Calibration, DriftPerturbsButPreservesScale)
{
    const Calibration cal = Calibration::melbourne();
    Rng rng(4);
    const Calibration drifted = cal.drifted(rng, 0.10);
    int changed = 0;
    for (int q = 0; q < 14; ++q) {
        if (drifted.qubit(q).error1q != cal.qubit(q).error1q)
            ++changed;
        // Within a factor ~2 for 10% log-normal drift.
        EXPECT_LT(drifted.qubit(q).error1q,
                  cal.qubit(q).error1q * 3.0);
        EXPECT_GT(drifted.qubit(q).error1q,
                  cal.qubit(q).error1q / 3.0);
        EXPECT_LE(drifted.qubit(q).t2Us, 2.0 * drifted.qubit(q).t1Us);
    }
    EXPECT_EQ(changed, 14);
    // Zero drift is the identity.
    Rng rng2(4);
    const Calibration frozen = cal.drifted(rng2, 0.0);
    EXPECT_DOUBLE_EQ(frozen.qubit(5).error1q, cal.qubit(5).error1q);
}

TEST(Calibration, MeanHelpers)
{
    const Calibration cal = Calibration::melbourne();
    EXPECT_GT(cal.meanCxError(), 0.01);
    EXPECT_LT(cal.meanCxError(), 0.10);
    EXPECT_GT(cal.meanReadoutError(), 0.02);
    EXPECT_LT(cal.meanReadoutError(), 0.15);
}

TEST(NoiseModel, IdealIsAllZero)
{
    const Topology topo = Topology::melbourne();
    const NoiseModel nm = NoiseModel::ideal(topo);
    for (int q = 0; q < 14; ++q)
        EXPECT_EQ(nm.overRotation1q(q), 0.0);
    for (std::size_t e = 0; e < topo.numEdges(); ++e) {
        EXPECT_EQ(nm.overRotation(e), 0.0);
        EXPECT_EQ(nm.controlPhase(e), 0.0);
        EXPECT_TRUE(nm.crosstalk(e).empty());
    }
    EXPECT_TRUE(nm.correlatedReadout().empty());
    EXPECT_EQ(nm.spec().stochasticScale, 0.0);
    EXPECT_FALSE(nm.spec().enableDecoherence);
}

TEST(NoiseModel, SampleIsSeedDeterministic)
{
    const Topology topo = Topology::melbourne();
    const Calibration cal = Calibration::melbourne();
    const NoiseSpec spec;
    Rng r1(9), r2(9);
    const NoiseModel a = NoiseModel::sample(topo, cal, spec, r1);
    const NoiseModel b = NoiseModel::sample(topo, cal, spec, r2);
    for (std::size_t e = 0; e < topo.numEdges(); ++e) {
        EXPECT_DOUBLE_EQ(a.overRotation(e), b.overRotation(e));
        EXPECT_DOUBLE_EQ(a.controlPhase(e), b.controlPhase(e));
    }
}

TEST(NoiseModel, CoherentScaleZeroKillsSystematicTerms)
{
    const Topology topo = Topology::melbourne();
    const Calibration cal = Calibration::melbourne();
    NoiseSpec spec;
    spec.coherentScale = 0.0;
    Rng rng(5);
    const NoiseModel nm = NoiseModel::sample(topo, cal, spec, rng);
    for (std::size_t e = 0; e < topo.numEdges(); ++e) {
        EXPECT_EQ(nm.overRotation(e), 0.0);
        EXPECT_EQ(nm.controlPhase(e), 0.0);
        EXPECT_TRUE(nm.crosstalk(e).empty());
    }
}

TEST(NoiseModel, CrosstalkSpectatorsAreNeighbors)
{
    const Topology topo = Topology::melbourne();
    const Calibration cal = Calibration::melbourne();
    Rng rng(6);
    const NoiseModel nm =
        NoiseModel::sample(topo, cal, NoiseSpec{}, rng);
    for (std::size_t e = 0; e < topo.numEdges(); ++e) {
        const Edge edge = topo.edges()[e];
        for (const auto &xt : nm.crosstalk(e)) {
            EXPECT_NE(xt.spectator, edge.a);
            EXPECT_NE(xt.spectator, edge.b);
            EXPECT_TRUE(topo.adjacent(xt.spectator, edge.a) ||
                        topo.adjacent(xt.spectator, edge.b));
        }
    }
}

TEST(NoiseModel, CorrelatedReadoutOnCoupledPairs)
{
    const Topology topo = Topology::melbourne();
    const Calibration cal = Calibration::melbourne();
    Rng rng(8);
    const NoiseModel nm =
        NoiseModel::sample(topo, cal, NoiseSpec{}, rng);
    for (const auto &cr : nm.correlatedReadout()) {
        EXPECT_TRUE(topo.adjacent(cr.qubitA, cr.qubitB));
        EXPECT_GE(cr.jointFlipProb, 0.0);
        EXPECT_LE(cr.jointFlipProb,
                  nm.spec().correlatedReadoutMax *
                      nm.spec().correlatedReadoutScale);
    }
}

TEST(Device, MelbournePreset)
{
    const Device d = Device::melbourne(7);
    EXPECT_EQ(d.numQubits(), 14);
    EXPECT_EQ(d.name(), "ibmq-14-model");
    // Same seed -> identical physics.
    const Device d2 = Device::melbourne(7);
    EXPECT_DOUBLE_EQ(d.noise().overRotation(0),
                     d2.noise().overRotation(0));
    // Different seed -> different physics.
    const Device d3 = Device::melbourne(8);
    EXPECT_NE(d.noise().overRotation(0), d3.noise().overRotation(0));
}

TEST(Device, IdealPreset)
{
    const Device d = Device::idealMelbourne();
    EXPECT_EQ(d.calibration().qubit(0).error1q, 0.0);
    EXPECT_EQ(d.calibration().qubit(11).readoutP10, 0.0);
    EXPECT_EQ(d.calibration().edge(0).cxError, 0.0);
}

TEST(Device, DriftedRoundKeepsNoisePhysics)
{
    const Device d = Device::melbourne(7);
    Rng rng(10);
    const Device round2 = d.driftedRound(rng);
    // Calibration moved...
    EXPECT_NE(round2.calibration().qubit(0).error1q,
              d.calibration().qubit(0).error1q);
    // ...but systematic noise terms (device physics) are unchanged.
    for (std::size_t e = 0; e < d.topology().numEdges(); ++e) {
        EXPECT_DOUBLE_EQ(round2.noise().overRotation(e),
                         d.noise().overRotation(e));
    }
}

TEST(Device, SyntheticFactory)
{
    const Device d =
        Device::synthetic("test-grid", Topology::grid(3, 3),
                          CalibrationSpec{}, NoiseSpec{}, 42);
    EXPECT_EQ(d.numQubits(), 9);
    EXPECT_EQ(d.name(), "test-grid");
}

TEST(Device, WithNoiseAndCalibrationSwap)
{
    const Device d = Device::melbourne(7);
    const Device ideal_noise =
        d.withNoise(NoiseModel::ideal(d.topology()));
    EXPECT_EQ(ideal_noise.noise().spec().stochasticScale, 0.0);
    Calibration cal = Calibration::melbourne();
    cal.qubit(0).error1q = 0.123;
    const Device swapped = d.withCalibration(cal);
    EXPECT_DOUBLE_EQ(swapped.calibration().qubit(0).error1q, 0.123);
}

TEST(Topology, HeavyHex127Shape)
{
    const Topology t = Topology::heavyHex127();
    EXPECT_EQ(t.numQubits(), 127); // ibm_washington / Eagle count
    EXPECT_TRUE(t.isConnected());
    for (int q = 0; q < t.numQubits(); ++q)
        EXPECT_LE(t.degree(q), 3);
    // Heavy-hex is bipartite (hexagonal cells with degree-2 bridges),
    // so it contains no odd cycle; a 2-coloring must succeed.
    std::vector<int> color(static_cast<std::size_t>(t.numQubits()), -1);
    std::vector<int> stack{0};
    color[0] = 0;
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (int u : t.neighbors(v)) {
            if (color[u] == -1) {
                color[u] = 1 - color[v];
                stack.push_back(u);
            }
            EXPECT_NE(color[u], color[v]);
        }
    }
}

TEST(Topology, HeavyHex433Shape)
{
    const Topology t = Topology::heavyHex433();
    EXPECT_EQ(t.numQubits(), 433); // ibm_seattle / Osprey count
    EXPECT_TRUE(t.isConnected());
    for (int q = 0; q < t.numQubits(); ++q)
        EXPECT_LE(t.degree(q), 3);
}

TEST(Topology, HeavyHexRejectsBadDimensions)
{
    EXPECT_THROW(Topology::heavyHex(2, 7), UserError);  // even rows
    EXPECT_THROW(Topology::heavyHex(5, 8), UserError);  // cols % 4 != 3
    EXPECT_THROW(Topology::heavyHex(1, 7), UserError);  // too few rows
}

TEST(Topology, LazyDistancesMatchEagerBfs)
{
    // distance() runs one BFS per call at every size. Check it against
    // shortestPath lengths (and symmetry) at 14, 64 and 127 qubits, and
    // against Manhattan distance on the 8x8 grid.
    for (const Topology &t : {Topology::melbourne(), Topology::grid(8, 8),
                              Topology::heavyHex127()}) {
        const int n = t.numQubits();
        for (int a : {0, n / 7, n / 2, n - 1}) {
            for (int b : {0, 5, n / 2 + 1, n - 1}) {
                const auto path = t.shortestPath(a, b);
                ASSERT_FALSE(path.empty());
                EXPECT_EQ(t.distance(a, b),
                          static_cast<int>(path.size()) - 1);
                EXPECT_EQ(t.distance(a, b), t.distance(b, a));
            }
        }
    }
    const Topology grid = Topology::grid(8, 8);
    for (int a = 0; a < 64; ++a) {
        for (int b = 0; b < 64; ++b) {
            EXPECT_EQ(grid.distance(a, b),
                      std::abs(a / 8 - b / 8) + std::abs(a % 8 - b % 8));
        }
    }
}

/** The fingerprint of a freshly constructed device equal to @p d. */
std::uint64_t
freshFingerprint(const Device &d)
{
    return Device(d.name(), d.topology(), d.calibration(), d.noise())
        .fingerprint();
}

// The memo must not turn Device's moves into copies of its tables.
static_assert(std::is_nothrow_move_constructible_v<Device> &&
              std::is_nothrow_move_assignable_v<Device>);

TEST(Device, MemoizedFingerprintMatchesFreshDevice)
{
    // The fingerprint is memoized on first call and copies carry it;
    // every copy variant must still hash what a fresh device with the
    // same content hashes.
    const Device d = Device::melbourne(3);
    const std::uint64_t fp = d.fingerprint();
    EXPECT_EQ(fp, freshFingerprint(d));
    EXPECT_EQ(d.fingerprint(), fp); // memo read

    Rng rng(11);
    Calibration cal = d.calibration();
    cal.qubit(0).error1q *= 2.0;
    Device moved_from = d;
    const std::vector<std::pair<std::string, Device>> variants = {
        {"copy", d},
        {"driftedRound", d.driftedRound(rng)},
        {"withStaleCalibration", d.withStaleCalibration(rng)},
        {"withNoise", d.withNoise(NoiseModel::ideal(d.topology()))},
        {"withCalibration", d.withCalibration(cal)},
        {"moved", std::move(moved_from)},
    };
    for (const auto &[label, v] : variants) {
        EXPECT_EQ(v.fingerprint(), freshFingerprint(v)) << label;
        const bool same = label == "copy" || label == "moved";
        EXPECT_EQ(v.fingerprint() == fp, same) << label;
    }

    // Assignment carries the memo too, and overwrites the old one.
    Device assigned = Device::idealMelbourne();
    (void)assigned.fingerprint();
    assigned = variants[1].second;
    EXPECT_EQ(assigned.fingerprint(), freshFingerprint(variants[1].second));
}

TEST(Device, ConcurrentFirstFingerprintsAgree)
{
    // Four threads racing on the first call of one device all read
    // the one content hash. (Relaxed atomics; run under TSan where
    // the toolchain has it.)
    Rng drift(3);
    const Device d = Device::melbourne(5).driftedRound(drift);
    std::array<std::uint64_t, 4> seen{};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i)
        threads.emplace_back([&d, &seen, i] {
            for (int rep = 0; rep < 50; ++rep)
                seen[i] = d.fingerprint();
        });
    for (std::thread &t : threads)
        t.join();
    for (std::uint64_t fp : seen)
        EXPECT_EQ(fp, freshFingerprint(d));
}

TEST(DeviceView, FullViewMatchesDevice)
{
    const Device d = Device::melbourne(3);
    const DeviceView full(d);
    EXPECT_TRUE(full.isFull());
    EXPECT_EQ(full.numQubits(), d.numQubits());
    EXPECT_EQ(full.numAllowed(), d.numQubits());
    EXPECT_EQ(full.maskPtr(), nullptr);
    EXPECT_EQ(full.fingerprint(), d.fingerprint());
    for (int q = 0; q < d.numQubits(); ++q)
        EXPECT_TRUE(full.allowed(q));
}

TEST(DeviceView, RestrictedViewMasksQubits)
{
    const Device d = Device::melbourne(3);
    const DeviceView view(d, {0, 1, 2, 12, 13});
    EXPECT_FALSE(view.isFull());
    EXPECT_EQ(view.numAllowed(), 5);
    EXPECT_NE(view.maskPtr(), nullptr);
    EXPECT_TRUE(view.allowed(1));
    EXPECT_FALSE(view.allowed(7));
    EXPECT_NE(view.fingerprint(), d.fingerprint());
    EXPECT_EQ(view.allowedQubits(),
              (std::vector<int>{0, 1, 2, 12, 13}));
}

TEST(DeviceView, ExplicitFullRegionEqualsFullView)
{
    // Listing every qubit explicitly is detected as a full view, so it
    // shares the device fingerprint (and hence all caches).
    const Device d = Device::melbourne(3);
    std::vector<int> all;
    for (int q = 0; q < d.numQubits(); ++q)
        all.push_back(q);
    const DeviceView view(d, all);
    EXPECT_TRUE(view.isFull());
    EXPECT_EQ(view.maskPtr(), nullptr);
    EXPECT_EQ(view.fingerprint(), d.fingerprint());
}

TEST(DeviceView, FingerprintDependsOnRegion)
{
    const Device d = Device::melbourne(3);
    const DeviceView a(d, {0, 1, 2});
    const DeviceView b(d, {0, 1, 3});
    const DeviceView a_again(d, {2, 1, 0, 1}); // order/dups irrelevant
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), a_again.fingerprint());
}

TEST(DeviceView, RejectsBadRegions)
{
    const Device d = Device::melbourne(3);
    EXPECT_THROW(DeviceView(d, std::vector<int>{}), UserError);
    EXPECT_THROW(DeviceView(d, {0, 14}), UserError);
    EXPECT_THROW(DeviceView(d, {-1}), UserError);
}

} // namespace
} // namespace qedm::hw
