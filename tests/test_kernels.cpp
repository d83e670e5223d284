/**
 * @file
 * Regression tests for the statevector kernel rewrite (DESIGN.md §12).
 *
 * Three layers of protection:
 *  - golden fixed-seed outputs captured from the pre-rewrite engine
 *    (trajectory shot counts on stochastic and deterministic tapes,
 *    via Executor::runTrajectories), asserted bit-identical — the
 *    kernels' RNG draw-order contract; plus full EDM/WEDM merge
 *    probabilities at --jobs 1 and 4, whose members sample their
 *    exact law (DESIGN.md §19);
 *  - the straightforward reference kernels (full-scan loops the
 *    rewrite replaced) copied here verbatim and checked equal to the
 *    optimized kernels on random states, for every matrix structure
 *    class the dispatcher distinguishes (±0 differences are invisible
 *    to EXPECT_EQ on doubles, matching the contract);
 *  - trajectory-vs-density-matrix cross-validation: on a
 *    deterministic (coherent-only, readout-free) tape, replaying the
 *    pre-materialized tape matrices on a StateVector must reproduce
 *    the exact DensityMatrix distribution to 1e-12.
 */

#include <gtest/gtest.h>

#include <array>
#include <complex>
#include <cstdint>
#include <map>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/edm.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "sim/law_sampler.hpp"
#include "sim/statevector.hpp"
#include "stats/counts.hpp"
#include "transpile/transpiler.hpp"

namespace qedm {
namespace {

using circuit::Complex;
using circuit::OpKind;

// ---------------------------------------------------------------------
// Reference kernels: the pre-rewrite full-scan implementations.
// ---------------------------------------------------------------------

void
refApply1q(std::vector<Complex> &amps, const std::array<Complex, 4> &m,
           int q)
{
    const std::size_t mask = std::size_t(1) << q;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & mask)
            continue;
        const Complex a = amps[i];
        const Complex b = amps[i | mask];
        amps[i] = m[0] * a + m[1] * b;
        amps[i | mask] = m[2] * a + m[3] * b;
    }
}

void
refApply2q(std::vector<Complex> &amps, const std::array<Complex, 16> &m,
           int q0, int q1)
{
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & (m0 | m1))
            continue;
        const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
        Complex v[4];
        for (int k = 0; k < 4; ++k)
            v[k] = amps[idx[k]];
        for (int r = 0; r < 4; ++r) {
            Complex acc(0.0);
            for (int c = 0; c < 4; ++c)
                acc += m[r * 4 + c] * v[c];
            amps[idx[r]] = acc;
        }
    }
}

double
refNorm(const std::vector<Complex> &amps)
{
    double n = 0.0;
    for (const Complex &a : amps)
        n += std::norm(a);
    return n;
}

void
refNormalize(std::vector<Complex> &amps)
{
    const double inv = 1.0 / std::sqrt(refNorm(amps));
    for (Complex &a : amps)
        a *= inv;
}

std::size_t
refKraus1q(std::vector<Complex> &amps,
           const std::vector<std::array<Complex, 4>> &kraus, int q,
           Rng &rng)
{
    const std::size_t mask = std::size_t(1) << q;
    const double r = rng.uniform() * refNorm(amps);
    double acc = 0.0;
    std::size_t pick = kraus.size() - 1;
    for (std::size_t k = 0; k + 1 < kraus.size(); ++k) {
        const auto &m = kraus[k];
        double p = 0.0;
        for (std::size_t i = 0; i < amps.size(); ++i) {
            if (i & mask)
                continue;
            const Complex a = amps[i];
            const Complex b = amps[i | mask];
            p += std::norm(m[0] * a + m[1] * b);
            p += std::norm(m[2] * a + m[3] * b);
        }
        acc += p;
        if (r < acc) {
            pick = k;
            break;
        }
    }
    refApply1q(amps, kraus[pick], q);
    refNormalize(amps);
    return pick;
}

std::size_t
refSample(const std::vector<Complex> &amps, Rng &rng)
{
    const double r = rng.uniform() * refNorm(amps);
    double acc = 0.0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        acc += std::norm(amps[i]);
        if (r < acc)
            return i;
    }
    return amps.size() - 1;
}

/** A reproducible non-trivial entangled state on @p n qubits. */
sim::StateVector
randomState(int n, std::uint64_t seed)
{
    sim::StateVector sv(n);
    Rng rng(seed);
    for (int q = 0; q < n; ++q) {
        sv.applyGate(OpKind::Ry, {q}, {rng.uniform() * 3.0});
        sv.applyGate(OpKind::Rz, {q}, {rng.uniform() * 3.0});
    }
    for (int q = 0; q + 1 < n; ++q)
        sv.applyGate(OpKind::Cx, {q, q + 1}, {});
    for (int q = 0; q < n; ++q)
        sv.applyGate(OpKind::Rx, {q}, {rng.uniform() * 3.0});
    return sv;
}

void
expectAmpsEqual(const std::vector<Complex> &got,
                const std::vector<Complex> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        // EXPECT_EQ on doubles: exact equality, but +0 == -0 — the
        // only deviation the structured fast paths are allowed.
        EXPECT_EQ(got[i].real(), want[i].real()) << "basis " << i;
        EXPECT_EQ(got[i].imag(), want[i].imag()) << "basis " << i;
    }
}

// ---------------------------------------------------------------------
// Kernel equivalence: optimized vs reference on every structure class.
// ---------------------------------------------------------------------

TEST(KernelEquivalence, Apply1qAllStructureClasses)
{
    const int n = 5;
    const std::vector<std::array<Complex, 4>> matrices = {
        circuit::gateMatrix1q(OpKind::H, {}),        // general
        circuit::gateMatrix1q(OpKind::Rx, {0.83}),   // general, complex
        circuit::gateMatrix1q(OpKind::Rz, {0.37}),   // diagonal
        circuit::gateMatrix1q(OpKind::Z, {}),        // diagonal, real
        circuit::gateMatrix1q(OpKind::S, {}),        // diagonal, d0 = 1
        circuit::gateMatrix1q(OpKind::T, {}),        // diagonal, d0 = 1
        circuit::gateMatrix1q(OpKind::I, {}),        // identity
        circuit::gateMatrix1q(OpKind::X, {}),        // anti-diagonal
        circuit::gateMatrix1q(OpKind::Y, {}),        // anti-diagonal
        {Complex(1), 0, 0, Complex(0.94868329805051381)},  // Kraus-like
        {0, Complex(0.31622776601683794), 0, 0},     // damping jump
    };
    for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
        for (int q = 0; q < n; ++q) {
            sim::StateVector sv =
                randomState(n, 1000 + mi * 10 + std::uint64_t(q));
            std::vector<Complex> ref = sv.amplitudes();
            sv.apply1q(matrices[mi], q);
            refApply1q(ref, matrices[mi], q);
            expectAmpsEqual(sv.amplitudes(), ref);
        }
    }
}

TEST(KernelEquivalence, Apply2qAllStructureClasses)
{
    const int n = 5;
    const Complex i01(0.0, 1.0);
    std::vector<std::array<Complex, 16>> matrices = {
        circuit::gateMatrix2q(OpKind::Cx),   // permutation
        circuit::gateMatrix2q(OpKind::Cz),   // diagonal (phase on |11>)
        circuit::gateMatrix2q(OpKind::Swap), // permutation
    };
    // Monomial but neither permutation nor plain diagonal: iSWAP.
    matrices.push_back({1, 0, 0, 0,  //
                        0, 0, i01, 0,  //
                        0, i01, 0, 0,  //
                        0, 0, 0, 1});
    // General diagonal with non-unit entries.
    matrices.push_back({Complex(0.8, 0.6), 0, 0, 0,  //
                        0, Complex(0.0, 1.0), 0, 0,  //
                        0, 0, Complex(-1.0), 0,      //
                        0, 0, 0, Complex(0.6, -0.8)});
    // Dense 4x4 (not unitary; the kernel must not care).
    std::array<Complex, 16> dense{};
    for (int k = 0; k < 16; ++k)
        dense[std::size_t(k)] =
            Complex(0.1 * (k + 1), 0.05 * (15 - k));
    matrices.push_back(dense);
    for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
        for (int q0 = 0; q0 < n; ++q0) {
            for (int q1 = 0; q1 < n; ++q1) {
                if (q0 == q1)
                    continue;
                sim::StateVector sv = randomState(
                    n, 5000 + mi * 100 + std::uint64_t(q0 * n + q1));
                std::vector<Complex> ref = sv.amplitudes();
                sv.apply2q(matrices[mi], q0, q1);
                refApply2q(ref, matrices[mi], q0, q1);
                expectAmpsEqual(sv.amplitudes(), ref);
            }
        }
    }
}

TEST(KernelEquivalence, Kraus1qSamePicksAndAmplitudes)
{
    const int n = 4;
    const std::vector<sim::Kraus1q> channels = {
        sim::amplitudeDamping(0.3),
        sim::phaseDamping(0.25),
        sim::depolarizing1q(0.4),
        sim::bitFlip(0.5),
    };
    sim::StateVector sv = randomState(n, 42);
    std::vector<Complex> ref = sv.amplitudes();
    Rng rngNew(7);
    Rng rngRef(7);
    for (int round = 0; round < 8; ++round) {
        for (const auto &kraus : channels) {
            for (int q = 0; q < n; ++q) {
                const std::size_t pickNew =
                    sv.applyKraus1q(kraus, q, rngNew);
                const std::size_t pickRef =
                    refKraus1q(ref, kraus, q, rngRef);
                ASSERT_EQ(pickNew, pickRef);
                expectAmpsEqual(sv.amplitudes(), ref);
            }
        }
        // Interleave gates so the norm cache is repeatedly
        // invalidated and rebuilt mid-sequence.
        sv.applyGate(OpKind::H, {round % n}, {});
        refApply1q(ref, circuit::gateMatrix1q(OpKind::H, {}),
                   round % n);
    }
}

TEST(KernelEquivalence, CumulativeSamplingMatchesLinearScan)
{
    sim::StateVector sv = randomState(6, 2718);
    const std::vector<double> cum = sv.cumulativeProbabilities();
    ASSERT_EQ(cum.size(), sv.dim());
    EXPECT_EQ(cum.back(), sv.norm());
    const std::vector<Complex> ref = sv.amplitudes();
    const sim::LawSampler sampler(cum);
    Rng rngNew(31);
    Rng rngRef(31);
    for (int draw = 0; draw < 4096; ++draw) {
        EXPECT_EQ(sampler.sample(rngNew), refSample(ref, rngRef));
    }
}

// ---------------------------------------------------------------------
// Golden fixed-seed outputs captured from the pre-rewrite engine.
// ---------------------------------------------------------------------

void
expectCounts(const stats::Counts &counts,
             const std::vector<std::pair<Outcome, std::uint64_t>> &want,
             std::uint64_t total)
{
    EXPECT_EQ(counts.total(), total);
    std::map<Outcome, std::uint64_t> golden(want.begin(), want.end());
    for (Outcome o = 0; o < (Outcome(1) << counts.width()); ++o) {
        const auto it = golden.find(o);
        EXPECT_EQ(counts.count(o), it == golden.end() ? 0 : it->second)
            << "outcome 0x" << std::hex << o;
    }
}

TEST(GoldenCounts, StochasticBv6FixedSeed)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(benchmarks::bv6().circuit);
    const sim::Executor exec(device);
    Rng rng(12345);
    const stats::Counts counts = exec.runTrajectories(
        sim::ExecutionTape::build(device, program.physical), 512, rng);
    expectCounts(
        counts,
        {{0x0, 24},  {0x1, 28},  {0x2, 5},   {0x3, 8},   {0x5, 1},
         {0x9, 3},   {0x10, 30}, {0x11, 67}, {0x12, 8},  {0x13, 9},
         {0x14, 1},  {0x16, 2},  {0x17, 1},  {0x18, 1},  {0x19, 1},
         {0x1b, 1},  {0x20, 34}, {0x21, 35}, {0x22, 14}, {0x23, 8},
         {0x25, 1},  {0x28, 1},  {0x29, 2},  {0x30, 75}, {0x31, 108},
         {0x32, 11}, {0x33, 25}, {0x34, 1},  {0x35, 3},  {0x39, 1},
         {0x3a, 1},  {0x3b, 1},  {0x3d, 1}},
        512);
}

/** The coherent-only device of the deterministic-tape goldens. */
hw::Device
coherentOnlyDevice()
{
    hw::NoiseSpec spec;
    spec.coherentScale = 1.5;
    spec.stochasticScale = 0.0;
    spec.enableDecoherence = false;
    spec.correlatedReadoutScale = 0.0;
    return hw::Device::melbourne(41, spec);
}

TEST(GoldenCounts, DeterministicBv6FixedSeed)
{
    const hw::Device device = coherentOnlyDevice();
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(benchmarks::bv6().circuit);
    const sim::Executor exec(device);
    Rng rng(777);
    const stats::Counts counts = exec.runTrajectories(
        sim::ExecutionTape::build(device, program.physical), 512, rng);
    expectCounts(
        counts,
        {{0x0, 5},   {0x1, 2},   {0x2, 12},  {0x3, 7},   {0x9, 1},
         {0x10, 19}, {0x11, 11}, {0x12, 41}, {0x13, 34}, {0x14, 1},
         {0x16, 1},  {0x20, 6},  {0x21, 33}, {0x22, 10}, {0x23, 57},
         {0x27, 1},  {0x29, 1},  {0x2b, 1},  {0x30, 13}, {0x31, 80},
         {0x32, 24}, {0x33, 143}, {0x35, 1}, {0x37, 2},  {0x39, 2},
         {0x3a, 1},  {0x3b, 3}},
        512);
}

// Full EDM/WEDM merge probabilities for bv-6 on melbourne(2), 4096
// total shots, pipeline seed 2026 — captured at %.17g under the
// canonical tie-break (equal-ESP candidates order lexicographically on
// the mapping vector) and exact-law sampling (every member is at or
// below sim::kExactLawMaxQubits), so EXPECT_EQ is a bit-identity
// check. The runtime layer guarantees the same result at every jobs
// value.
const std::array<double, 64> kGoldenEdmBv6 = {
    0.021728515625, 0.04638671875, 0.040771484375, 0.07861328125,
    0.0009765625, 0.001953125, 0.001708984375, 0.001708984375,
    0.000732421875, 0.00244140625, 0.0009765625, 0.001708984375, 0, 0,
    0.000244140625, 0.000244140625, 0.02392578125, 0.051513671875,
    0.080322265625, 0.102294921875, 0.00048828125, 0.002197265625,
    0.00048828125, 0.003173828125, 0.00048828125, 0.00048828125,
    0.001708984375, 0.00244140625, 0, 0, 0.000244140625, 0,
    0.019287109375, 0.047119140625, 0.04052734375, 0.09375,
    0.00048828125, 0.000732421875, 0.001220703125, 0.002685546875,
    0.000244140625, 0.001708984375, 0.0009765625, 0.001220703125, 0, 0,
    0.000244140625, 0, 0.031982421875, 0.06982421875, 0.064453125,
    0.134521484375, 0.000244140625, 0.003173828125, 0.001708984375,
    0.005859375, 0.0009765625, 0.002685546875, 0.001220703125,
    0.002197265625, 0, 0.000244140625, 0.000732421875, 0,
};

const std::array<double, 64> kGoldenWedmBv6 = {
    0.022735368045585579, 0.051104897771808676, 0.044159486572745793,
    0.083707364693378139, 0.0011744998458162043, 0.0020087928794733289,
    0.0018549969564097418, 0.0018094371344840911,
    0.00077268869802900764, 0.0025132501278325387,
    0.0011466659060795398, 0.0018459608424462326, 0, 0,
    0.00027274950665155272, 0.00030058344638821723,
    0.023269590951143272, 0.047644183998181655, 0.082960628491900085,
    0.097248407827356095, 0.00050445724835920954, 0.0018254817580373888,
    0.00054549901330310543, 0.0029999816038535935,
    0.00040322954696022999, 0.00046341548341531365,
    0.0019238726610903024, 0.0023372103754490422, 0, 0,
    0.00027274950665155272, 0, 0.020846517316859839,
    0.050176122906581369, 0.043987964767493226, 0.09817704214514486,
    0.00047210525164079041, 0.00064362705689336363,
    0.0012082702417076567, 0.0025644000601749446,
    0.00030058344638821723, 0.0021040841247175206,
    0.0010454382046805604, 0.001244793949669798, 0, 0,
    0.00027274950665155272, 0, 0.030855330988579947,
    0.064256930893405562, 0.065299534288353292, 0.12148182462632512,
    0.00023170774170765682, 0.0025908990870139531,
    0.0015102720872689074, 0.0055045420733114865,
    0.00099570667151118765, 0.0024885992223291414,
    0.0011202503655159085, 0.0017242540566384094, 0,
    0.00027274950665155272, 0.00081824851995465815, 0,
};

class GoldenPipeline : public ::testing::TestWithParam<int>
{
};

TEST_P(GoldenPipeline, EdmWedmBv6FixedSeedBitIdentical)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EdmConfig config;
    config.totalShots = 4096;
    config.jobs = GetParam();
    core::EdmPipeline pipeline(device, config);
    Rng rng(2026);
    const auto result = pipeline.run(benchmarks::bv6().circuit, rng);
    ASSERT_EQ(result.edm.size(), kGoldenEdmBv6.size());
    ASSERT_EQ(result.wedm.size(), kGoldenWedmBv6.size());
    for (std::size_t i = 0; i < kGoldenEdmBv6.size(); ++i) {
        EXPECT_EQ(result.edm.probabilities()[i], kGoldenEdmBv6[i])
            << "edm outcome " << i;
        EXPECT_EQ(result.wedm.probabilities()[i], kGoldenWedmBv6[i])
            << "wedm outcome " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, GoldenPipeline, ::testing::Values(1, 4));

// ---------------------------------------------------------------------
// Trajectory vs exact density matrix on deterministic tapes.
// ---------------------------------------------------------------------

/** Zero every readout error so sampling noise is the only channel. */
hw::Device
withoutReadout(const hw::Device &device)
{
    hw::Calibration cal = device.calibration();
    for (int q = 0; q < int(cal.numQubits()); ++q) {
        cal.qubit(q).readoutP01 = 0.0;
        cal.qubit(q).readoutP10 = 0.0;
    }
    return device.withCalibration(cal);
}

void
expectTrajectoryMatchesExact(const benchmarks::Benchmark &bench)
{
    const hw::Device device = withoutReadout(coherentOnlyDevice());
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(bench.circuit);
    const auto tape =
        sim::ExecutionTape::build(device, program.physical);
    ASSERT_FALSE(tape.stochastic);
    ASSERT_LE(tape.numLocal, 10);

    // Replay the pre-materialized tape matrices on a pure state —
    // exactly what the executor's deterministic path evolves once.
    sim::StateVector sv(tape.numLocal);
    for (const sim::TapeOp &op : tape.ops) {
        if (op.l1 < 0) {
            sv.apply1q(op.gate1q, op.l0);
            if (op.overRotation != 0.0)
                sv.apply1q(op.overRotationMat, op.l0);
        } else {
            sv.apply2q(op.gate2q, op.l0, op.l1);
            if (op.overRotation != 0.0)
                sv.apply1q(op.overRotationMat, op.l1);
            if (op.controlPhase != 0.0)
                sv.apply1q(op.controlPhaseMat, op.l0);
            for (const auto &[spectator, kick] : op.crosstalk)
                sv.apply1q(kick, spectator);
        }
    }
    stats::Distribution traj(tape.numClbits);
    const std::vector<double> probs = sv.probabilities();
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        Outcome outcome = 0;
        for (const auto &m : tape.measures)
            outcome =
                setBit(outcome, m.clbit, getBit(basis, m.local));
        traj.addProb(outcome, probs[basis]);
    }
    traj.normalize();

    const sim::Executor exec(device);
    const stats::Distribution exact = exec.exactDistribution(tape);
    ASSERT_EQ(exact.size(), traj.size());
    for (std::size_t o = 0; o < exact.size(); ++o) {
        EXPECT_NEAR(traj.probabilities()[o], exact.probabilities()[o],
                    1e-12)
            << "outcome " << o;
    }
}

TEST(TrajectoryVsExact, DeterministicBv6Within1e12)
{
    expectTrajectoryMatchesExact(benchmarks::bv6());
}

TEST(TrajectoryVsExact, DeterministicFredkinWithin1e12)
{
    expectTrajectoryMatchesExact(benchmarks::fredkin());
}

} // namespace
} // namespace qedm
