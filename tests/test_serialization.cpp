/**
 * @file
 * Unit tests for device serialization and the IST bootstrap interval.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "benchmarks/benchmarks.hpp"
#include "common/error.hpp"
#include "core/ensemble.hpp"
#include "hw/serialization.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"

namespace qedm {
namespace {

TEST(DeviceSerialization, ExactRoundTrip)
{
    const hw::Device original = hw::Device::melbourne(7);
    const std::string text = hw::serializeDevice(original);
    const hw::Device parsed = hw::parseDevice(text);

    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.numQubits(), original.numQubits());
    EXPECT_EQ(parsed.topology().numEdges(),
              original.topology().numEdges());
    for (int q = 0; q < 14; ++q) {
        EXPECT_EQ(parsed.calibration().qubit(q).error1q,
                  original.calibration().qubit(q).error1q);
        EXPECT_EQ(parsed.calibration().qubit(q).readoutP10,
                  original.calibration().qubit(q).readoutP10);
        EXPECT_EQ(parsed.noise().overRotation1q(q),
                  original.noise().overRotation1q(q));
    }
    for (std::size_t e = 0; e < original.topology().numEdges(); ++e) {
        EXPECT_EQ(parsed.calibration().edge(e).cxError,
                  original.calibration().edge(e).cxError);
        EXPECT_EQ(parsed.noise().overRotation(e),
                  original.noise().overRotation(e));
        EXPECT_EQ(parsed.noise().controlPhase(e),
                  original.noise().controlPhase(e));
        ASSERT_EQ(parsed.noise().crosstalk(e).size(),
                  original.noise().crosstalk(e).size());
    }
    ASSERT_EQ(parsed.noise().correlatedReadout().size(),
              original.noise().correlatedReadout().size());
    EXPECT_EQ(parsed.noise().spec().stochasticScale,
              original.noise().spec().stochasticScale);
}

TEST(DeviceSerialization, RoundTripPreservesSimulation)
{
    // The strongest check: a parsed device must produce bit-identical
    // execution results.
    const hw::Device original = hw::Device::melbourne(5);
    const hw::Device parsed =
        hw::parseDevice(hw::serializeDevice(original));
    const auto bench = benchmarks::greycode();
    const core::EnsembleBuilder b1(original), b2(parsed);
    const auto p1 = b1.candidates(bench.circuit).front();
    const auto p2 = b2.candidates(bench.circuit).front();
    EXPECT_EQ(p1.initialMap, p2.initialMap);
    const sim::Executor e1(original), e2(parsed);
    Rng r1(3), r2(3);
    EXPECT_EQ(e1.run(p1.physical, 1000, r1).entries(),
              e2.run(p2.physical, 1000, r2).entries());
}

TEST(DeviceSerialization, FileRoundTrip)
{
    const hw::Device original = hw::Device::melbourne(9);
    const std::string path = "/tmp/qedm_device_test.qdev";
    hw::saveDevice(original, path);
    const hw::Device loaded = hw::loadDevice(path);
    EXPECT_EQ(hw::serializeDevice(loaded),
              hw::serializeDevice(original));
    std::remove(path.c_str());
    EXPECT_THROW(hw::loadDevice("/nonexistent/x.qdev"), UserError);
}

TEST(DeviceSerialization, RejectsMalformedInput)
{
    EXPECT_THROW(hw::parseDevice(""), UserError);
    EXPECT_THROW(hw::parseDevice("not-a-device\n"), UserError);
    EXPECT_THROW(hw::parseDevice("qedm-device v1\nqubits 2\n"),
                 UserError); // missing records
    const std::string good =
        hw::serializeDevice(hw::Device::melbourne(1));
    EXPECT_THROW(hw::parseDevice(good + "bogus 1 2\n"), UserError);
}

TEST(IstBootstrap, TightForLargeSamplesAndCoversEstimate)
{
    stats::Counts counts(2);
    counts.add(0b11, 5000); // correct
    counts.add(0b01, 3000);
    counts.add(0b10, 1500);
    counts.add(0b00, 500);
    Rng rng(3);
    const auto ci =
        stats::istConfidenceInterval(counts, 0b11, rng, 200, 0.95);
    EXPECT_NEAR(ci.pointEstimate, 5000.0 / 3000.0, 1e-9);
    EXPECT_LE(ci.lower, ci.pointEstimate);
    EXPECT_GE(ci.upper, ci.pointEstimate);
    // ~10k shots: the interval should be within ~10% of the point.
    EXPECT_GT(ci.lower, 0.9 * ci.pointEstimate);
    EXPECT_LT(ci.upper, 1.1 * ci.pointEstimate);
}

TEST(IstBootstrap, WideForSmallSamples)
{
    stats::Counts big(2), small(2);
    big.add(0b11, 5000);
    big.add(0b01, 4000);
    small.add(0b11, 50);
    small.add(0b01, 40);
    Rng rng(5);
    const auto wide =
        stats::istConfidenceInterval(small, 0b11, rng, 200);
    const auto tight =
        stats::istConfidenceInterval(big, 0b11, rng, 200);
    EXPECT_GT(wide.upper - wide.lower, tight.upper - tight.lower);
}

TEST(IstBootstrap, Validates)
{
    stats::Counts counts(1);
    Rng rng(1);
    EXPECT_THROW(stats::istConfidenceInterval(counts, 0, rng),
                 UserError);
    counts.add(0, 10);
    EXPECT_THROW(stats::istConfidenceInterval(counts, 0, rng, 5),
                 UserError);
    EXPECT_THROW(
        stats::istConfidenceInterval(counts, 0, rng, 100, 1.5),
        UserError);
}

} // namespace
} // namespace qedm
