/**
 * @file
 * Unit tests for qedm_sim: state-vector engine, Kraus channels,
 * density-matrix engine, and the noisy executor (including
 * trajectory-vs-exact cross-validation).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "benchmarks/benchmarks.hpp"
#include "circuit/unitary.hpp"
#include "common/error.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/executor.hpp"
#include "sim/statevector.hpp"
#include "stats/metrics.hpp"

namespace qedm::sim {
namespace {

using circuit::Circuit;
using circuit::OpKind;

TEST(StateVector, StartsInZero)
{
    const StateVector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_DOUBLE_EQ(sv.probability(0), 1.0);
    EXPECT_DOUBLE_EQ(sv.norm(), 1.0);
}

TEST(StateVector, HadamardGivesUniform)
{
    StateVector sv(1);
    sv.applyGate(OpKind::H, {0}, {});
    EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
}

TEST(StateVector, BellState)
{
    StateVector sv(2);
    sv.applyGate(OpKind::H, {0}, {});
    sv.applyGate(OpKind::Cx, {0, 1}, {});
    EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b01), 0.0, 1e-12);
    EXPECT_NEAR(sv.probability(0b10), 0.0, 1e-12);
}

TEST(StateVector, GhzOnFiveQubits)
{
    StateVector sv(5);
    sv.applyGate(OpKind::H, {0}, {});
    for (int q = 0; q + 1 < 5; ++q)
        sv.applyGate(OpKind::Cx, {q, q + 1}, {});
    EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(31), 0.5, 1e-12);
}

TEST(StateVector, XFlipsBit)
{
    StateVector sv(2);
    sv.applyGate(OpKind::X, {1}, {});
    EXPECT_NEAR(sv.probability(0b10), 1.0, 1e-12);
}

TEST(StateVector, ResetRestoresZero)
{
    StateVector sv(2);
    sv.applyGate(OpKind::H, {0}, {});
    sv.reset();
    EXPECT_DOUBLE_EQ(sv.probability(0), 1.0);
}

TEST(StateVector, SampleMeasurementFollowsBornRule)
{
    StateVector sv(1);
    sv.applyGate(OpKind::Ry, {0}, {2.0 * std::asin(std::sqrt(0.3))});
    Rng rng(3);
    int ones = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ones += sv.sampleMeasurement(rng) == 1 ? 1 : 0;
    EXPECT_NEAR(ones / double(n), 0.3, 0.01);
}

TEST(StateVector, RejectsThreeQubitGates)
{
    StateVector sv(3);
    EXPECT_THROW(sv.applyGate(OpKind::Ccx, {0, 1, 2}, {}), UserError);
}

TEST(StateVector, KrausTrajectoryPreservesNorm)
{
    StateVector sv(2);
    sv.applyGate(OpKind::H, {0}, {});
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        sv.applyKraus1q(amplitudeDamping(0.2), 0, rng);
        EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
    }
}

TEST(StateVector, KrausTrajectoryMatchesChannelStatistics)
{
    // Bit-flip channel on |0>: over many trajectories, P(1) -> p.
    Rng rng(7);
    const double p = 0.25;
    int flipped = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        StateVector sv(1);
        sv.applyKraus1q(bitFlip(p), 0, rng);
        flipped += sv.probability(1) > 0.5 ? 1 : 0;
    }
    EXPECT_NEAR(flipped / double(n), p, 0.01);
}

// All standard channels must be trace preserving for any parameter.
class ChannelTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ChannelTest, TracePreserving)
{
    const double p = GetParam();
    EXPECT_TRUE(isTracePreserving(depolarizing1q(p)));
    EXPECT_TRUE(isTracePreserving(bitFlip(p)));
    EXPECT_TRUE(isTracePreserving(phaseFlip(p)));
    EXPECT_TRUE(isTracePreserving(amplitudeDamping(p)));
    EXPECT_TRUE(isTracePreserving(phaseDamping(p)));
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ChannelTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.9,
                                           1.0));

TEST(Channels, ThermalRelaxationComposition)
{
    const auto sets = thermalRelaxation(1000.0, 50.0, 30.0);
    ASSERT_GE(sets.size(), 1u);
    for (const auto &k : sets)
        EXPECT_TRUE(isTracePreserving(k));
    // Zero duration -> no channels.
    EXPECT_TRUE(thermalRelaxation(0.0, 50.0, 30.0).empty());
    EXPECT_THROW(thermalRelaxation(10.0, 0.0, 30.0), UserError);
}

TEST(Channels, TwoQubitPauliEnumeration)
{
    // 15 distinct non-identity pairs.
    EXPECT_THROW(twoQubitPauli(15), UserError);
    EXPECT_THROW(twoQubitPauli(-1), UserError);
    const auto [a0, b0] = twoQubitPauli(0);
    // First entry is (I, X).
    EXPECT_NEAR(std::abs(a0[0] - circuit::Complex(1.0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(b0[1] - circuit::Complex(1.0)), 0.0, 1e-12);
}

TEST(DensityMatrix, PureEvolutionMatchesStateVector)
{
    DensityMatrix rho(3);
    StateVector sv(3);
    const auto apply_both = [&](OpKind k, std::vector<int> q,
                                std::vector<double> p) {
        rho.applyGate(k, q, p);
        sv.applyGate(k, q, p);
    };
    apply_both(OpKind::H, {0}, {});
    apply_both(OpKind::Cx, {0, 1}, {});
    apply_both(OpKind::Ry, {2}, {0.7});
    apply_both(OpKind::Cz, {1, 2}, {});
    const auto pr = rho.probabilities();
    const auto ps = sv.probabilities();
    for (std::size_t i = 0; i < pr.size(); ++i)
        EXPECT_NEAR(pr[i], ps[i], 1e-10) << "basis " << i;
    EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizingReducesPurity)
{
    DensityMatrix rho(1);
    rho.applyGate(OpKind::H, {0}, {});
    rho.applyKraus1q(depolarizing1q(0.3), 0);
    EXPECT_LT(rho.purity(), 1.0);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixed)
{
    DensityMatrix rho(1);
    rho.applyKraus1q(depolarizing1q(1.0), 0);
    // p = 1 depolarizing leaves I/2 plus residual coherence terms
    // zero; diagonal is 1/2 each... the standard convention maps rho
    // to (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z); for rho=|0><0|
    // this yields diag(1/3, 2/3).
    const auto p = rho.probabilities();
    EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-10);
    EXPECT_NEAR(p[1], 2.0 / 3.0, 1e-10);
}

TEST(DensityMatrix, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix rho(1);
    rho.applyGate(OpKind::X, {0}, {});
    rho.applyKraus1q(amplitudeDamping(0.4), 0);
    const auto p = rho.probabilities();
    EXPECT_NEAR(p[1], 0.6, 1e-10);
    EXPECT_NEAR(p[0], 0.4, 1e-10);
}

TEST(DensityMatrix, TwoQubitDepolarizing)
{
    DensityMatrix rho(2);
    rho.applyDepolarizing2q(0.5, 0, 1);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    EXPECT_LT(rho.purity(), 1.0);
    // p = 0 is the identity channel.
    DensityMatrix rho2(2);
    rho2.applyGate(OpKind::H, {0}, {});
    const double purity_before = rho2.purity();
    rho2.applyDepolarizing2q(0.0, 0, 1);
    EXPECT_NEAR(rho2.purity(), purity_before, 1e-12);
}

TEST(IdealDistribution, BellPairOverClassicalRegister)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    const auto d = idealDistribution(c);
    EXPECT_NEAR(d.prob(0b00), 0.5, 1e-12);
    EXPECT_NEAR(d.prob(0b11), 0.5, 1e-12);
}

TEST(IdealDistribution, MarginalizesUnmeasuredQubits)
{
    Circuit c(2, 1);
    c.h(1).x(0).measure(0, 0); // qubit 1 unmeasured
    const auto d = idealDistribution(c);
    EXPECT_NEAR(d.prob(1), 1.0, 1e-12);
}

TEST(IdealDistribution, ClbitPermutation)
{
    Circuit c(2, 2);
    c.x(0).measure(0, 1).measure(1, 0);
    const auto d = idealDistribution(c);
    EXPECT_NEAR(d.prob(0b10), 1.0, 1e-12);
}

TEST(IdealDistribution, RequiresMeasurement)
{
    Circuit c(1, 1);
    c.h(0);
    EXPECT_THROW(idealDistribution(c), UserError);
}

TEST(Executor, IdealDeviceReproducesIdealDistribution)
{
    const hw::Device device = hw::Device::idealMelbourne();
    const Executor exec(device);
    // A GHZ-like physical circuit on coupled qubits 0-1-2.
    Circuit c(14, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure(0, 0).measure(1, 1).measure(2, 2);
    Rng rng(11);
    const auto counts = exec.run(c, 40000, rng);
    const auto d = stats::Distribution::fromCounts(counts);
    EXPECT_NEAR(d.prob(0b000), 0.5, 0.01);
    EXPECT_NEAR(d.prob(0b111), 0.5, 0.01);
    EXPECT_NEAR(d.prob(0b010), 0.0, 1e-6);
}

TEST(Executor, RejectsTwoQubitGateOffTopology)
{
    const hw::Device device = hw::Device::idealMelbourne();
    const Executor exec(device);
    Circuit c(14, 2);
    c.cx(0, 5).measure(0, 0); // 0 and 5 are not coupled
    Rng rng(1);
    EXPECT_THROW(exec.run(c, 10, rng), UserError);
}

TEST(Executor, RejectsGateAfterMeasure)
{
    const hw::Device device = hw::Device::idealMelbourne();
    const Executor exec(device);
    Circuit c(14, 1);
    c.measure(0, 0).h(0);
    Rng rng(1);
    EXPECT_THROW(exec.run(c, 10, rng), UserError);
}

TEST(Executor, RejectsWrongRegisterSize)
{
    const hw::Device device = hw::Device::idealMelbourne();
    const Executor exec(device);
    Circuit c(5, 1);
    c.h(0).measure(0, 0);
    Rng rng(1);
    EXPECT_THROW(exec.run(c, 10, rng), UserError);
}

TEST(Executor, ReadoutConfusionFlipsBits)
{
    // Ideal gates but 20% readout error on qubit 0 (state 0 -> 1).
    hw::Device device = hw::Device::idealMelbourne();
    hw::Calibration cal = device.calibration();
    cal.qubit(0).readoutP01 = 0.2;
    device = device.withCalibration(cal);
    const Executor exec(device);
    Circuit c(14, 1);
    c.i(0).measure(0, 0);
    Rng rng(13);
    const auto counts = exec.run(c, 50000, rng);
    EXPECT_NEAR(counts.count(1) / 50000.0, 0.2, 0.01);
}

TEST(Executor, BiasedReadoutIsStateDependent)
{
    hw::Device device = hw::Device::idealMelbourne();
    hw::Calibration cal = device.calibration();
    cal.qubit(3).readoutP01 = 0.05;
    cal.qubit(3).readoutP10 = 0.30;
    device = device.withCalibration(cal);
    const Executor exec(device);
    Rng rng(17);

    Circuit zero(14, 1);
    zero.i(3).measure(3, 0);
    const auto c0 = exec.run(zero, 30000, rng);
    EXPECT_NEAR(c0.count(1) / 30000.0, 0.05, 0.01);

    Circuit one(14, 1);
    one.x(3).measure(3, 0);
    const auto c1 = exec.run(one, 30000, rng);
    EXPECT_NEAR(c1.count(0) / 30000.0, 0.30, 0.01);
}

TEST(Executor, TrajectoryMatchesExactDistribution)
{
    // Full correlated noise on: empirical trajectory histogram must
    // converge to the exact density-matrix distribution.
    const hw::Device device = hw::Device::melbourne(21);
    const Executor exec(device);
    Circuit c(14, 2);
    c.h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).measure(0, 0).measure(1, 1);
    Rng rng(23);
    const auto exact = exec.exactDistribution(c);
    const auto empirical = stats::Distribution::fromCounts(
        exec.runTrajectories(ExecutionTape::build(device, c), 200000,
                             rng));
    double tv = 0.0;
    for (Outcome o = 0; o < 4; ++o)
        tv += std::abs(exact.prob(o) - empirical.prob(o));
    EXPECT_LT(0.5 * tv, 0.01)
        << "exact:\n" << exact.toString()
        << "empirical:\n" << empirical.toString();
}

TEST(Executor, ExactDistributionNormalized)
{
    const hw::Device device = hw::Device::melbourne(5);
    const Executor exec(device);
    Circuit c(14, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure(0, 0).measure(1, 1).measure(2, 2);
    const auto d = exec.exactDistribution(c);
    EXPECT_TRUE(d.isNormalized(1e-9));
}

TEST(Executor, CorrelatedReadoutProducesJointFlips)
{
    // Build a device whose only noise is one correlated-readout pair
    // and verify double-flips dominate single-flips.
    hw::Device device = hw::Device::idealMelbourne();
    hw::NoiseSpec spec;
    spec.coherentScale = 0.0;
    spec.stochasticScale = 0.0;
    spec.enableDecoherence = false;
    spec.correlatedReadoutScale = 1.0;
    spec.correlatedReadoutMax = 0.2;
    Rng nrng(31);
    device = device.withNoise(hw::NoiseModel::sample(
        device.topology(), device.calibration(), spec, nrng));
    const Executor exec(device);
    Circuit c(14, 2);
    c.i(0).i(1).measure(0, 0).measure(1, 1);
    Rng rng(37);
    const auto counts = exec.run(c, 50000, rng);
    // Joint flips put mass on 11; independent-only noise would put
    // mass on 01/10 instead (readout is ideal here).
    EXPECT_GT(counts.count(0b11), 100u);
    EXPECT_EQ(counts.count(0b01), 0u);
    EXPECT_EQ(counts.count(0b10), 0u);
}

TEST(Executor, DeterministicFastPathMatchesSlowPath)
{
    // With stochastic noise disabled the executor evolves once; the
    // sampled histogram must match an ideal-device run gate-for-gate.
    hw::NoiseSpec spec;
    spec.coherentScale = 1.5;
    spec.stochasticScale = 0.0;
    spec.enableDecoherence = false;
    spec.correlatedReadoutScale = 0.0;
    const hw::Device device = hw::Device::melbourne(41, spec);
    const Executor exec(device);
    Circuit c(14, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    Rng rng(43);
    const auto counts =
        exec.runTrajectories(ExecutionTape::build(device, c), 100000, rng);
    const auto exact = exec.exactDistribution(c);
    const auto empirical = stats::Distribution::fromCounts(counts);
    for (Outcome o = 0; o < 4; ++o)
        EXPECT_NEAR(empirical.prob(o), exact.prob(o), 0.01);
}

TEST(Executor, BenchmarksRunOnIdealDeviceGiveExpectedOutput)
{
    // Logical circuits that already fit the coupling map can run
    // unmapped on the ideal device when padded to 14 qubits.
    const auto bench = benchmarks::greycode();
    Circuit padded(14, bench.outputWidth);
    for (const auto &g : bench.circuit.gates())
        padded.append(g);
    const hw::Device device = hw::Device::idealMelbourne();
    const Executor exec(device);
    Rng rng(47);
    const auto counts = exec.run(padded, 1000, rng);
    EXPECT_EQ(counts.count(bench.expected), 1000u);
}

} // namespace
} // namespace qedm::sim
