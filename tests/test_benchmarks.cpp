/**
 * @file
 * Unit tests for qedm_benchmarks: every paper workload must produce
 * its documented correct output on an ideal machine, with sane gate
 * structure.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "common/error.hpp"
#include "sim/executor.hpp"
#include "transpile/interaction_graph.hpp"

namespace qedm::benchmarks {
namespace {

// Every benchmark in the suite: the ideal machine must output the
// documented answer as the unique mode.
class SuiteTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteTest, IdealModeIsExpectedOutput)
{
    const Benchmark b = byName(GetParam());
    const auto dist = sim::idealDistribution(b.circuit);
    EXPECT_EQ(dist.mode(), b.expected)
        << "mode " << toBitstring(dist.mode(), b.outputWidth)
        << " expected " << toBitstring(b.expected, b.outputWidth);
    // The expected answer must hold strictly more probability than
    // any other single outcome (unique mode).
    const auto top = dist.topK(2);
    if (top.size() > 1) {
        EXPECT_GT(top[0].second, top[1].second);
    }
}

TEST_P(SuiteTest, MetadataConsistent)
{
    const Benchmark b = byName(GetParam());
    EXPECT_EQ(b.circuit.numClbits(), b.outputWidth);
    EXPECT_LT(b.expected, Outcome(1) << b.outputWidth);
    EXPECT_FALSE(b.description.empty());
    EXPECT_GT(b.paperCounts.sg, 0);
    EXPECT_GT(b.paperCounts.cx, 0);
    EXPECT_GT(b.paperCounts.m, 0);
    // Measure count matches the output register.
    int measures = 0;
    for (const auto &g : b.circuit.gates()) {
        if (g.kind == circuit::OpKind::Measure)
            ++measures;
    }
    EXPECT_EQ(measures, b.outputWidth);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, SuiteTest,
    ::testing::Values("greycode", "bv-6", "bv-7", "qaoa-5", "qaoa-6",
                      "qaoa-7", "fredkin", "adder", "decode-24"));

TEST(PaperSuite, HasAllNineInTableOrder)
{
    const auto suite = paperSuite();
    ASSERT_EQ(suite.size(), 9u);
    EXPECT_EQ(suite[0].name, "greycode");
    EXPECT_EQ(suite[1].name, "bv-6");
    EXPECT_EQ(suite[8].name, "decode-24");
}

TEST(PaperSuite, ByNameRejectsUnknown)
{
    EXPECT_THROW(byName("nope"), UserError);
}

TEST(BernsteinVazirani, DeterministicOutputProbabilityOne)
{
    // BV is single-query exact: ideal machine returns the key with
    // probability 1.
    const Benchmark b = bernsteinVazirani("10101");
    const auto dist = sim::idealDistribution(b.circuit);
    EXPECT_NEAR(dist.prob(b.expected), 1.0, 1e-9);
}

TEST(BernsteinVazirani, OracleCxCountMatchesKeyWeight)
{
    const Benchmark b = bernsteinVazirani("110011");
    const auto counts = b.circuit.countGates();
    EXPECT_EQ(counts.twoQubit, 4); // popcount of the key
    EXPECT_EQ(counts.measure, 6);
    EXPECT_EQ(b.expected, parseBitstring("110011"));
}

TEST(BernsteinVazirani, InteractionGraphIsStar)
{
    const Benchmark b = bernsteinVazirani("1111");
    const auto ig = transpile::interactionGraph(b.circuit);
    // Ancilla (qubit 4) interacts with all four key qubits.
    EXPECT_EQ(ig.degree(4), 4);
}

TEST(BernsteinVazirani, RejectsBadKeys)
{
    EXPECT_THROW(bernsteinVazirani(""), UserError);
    EXPECT_THROW(bernsteinVazirani("012"), UserError);
    EXPECT_THROW(bernsteinVazirani(std::string(11, '1')), UserError);
}

TEST(Greycode, CxCascadeLength)
{
    const Benchmark b = greycode();
    const auto counts = b.circuit.countGates();
    EXPECT_EQ(counts.twoQubit, 5); // n - 1 for 6 bits (paper: CX 5)
    EXPECT_EQ(counts.measure, 6);
    EXPECT_EQ(b.expected, parseBitstring("001000"));
}

TEST(Qaoa, ExpectedCutIsAlternating)
{
    EXPECT_EQ(qaoa5().expected, parseBitstring("10101"));
    EXPECT_EQ(qaoa6().expected, parseBitstring("101010"));
    EXPECT_EQ(qaoa7().expected, parseBitstring("1010101"));
}

TEST(Qaoa, TwoQubitGateCountMatchesPaper)
{
    // 2 CX per path edge (paper Table 1: 8 / 10 / 12).
    EXPECT_EQ(qaoa5().circuit.countGates().twoQubit, 8);
    EXPECT_EQ(qaoa6().circuit.countGates().twoQubit, 10);
    EXPECT_EQ(qaoa7().circuit.countGates().twoQubit, 12);
}

TEST(Qaoa, InteractionGraphIsPath)
{
    const auto ig = transpile::interactionGraph(qaoa5().circuit);
    EXPECT_EQ(ig.edges.size(), 4u);
    EXPECT_EQ(ig.degree(0), 1);
    EXPECT_EQ(ig.degree(2), 2);
}

TEST(Qaoa, RejectsOutOfRangeSize)
{
    EXPECT_THROW(qaoaMaxcutPath(2), UserError);
    EXPECT_THROW(qaoaMaxcutPath(9), UserError);
}

TEST(Fredkin, SwapsWhenControlSet)
{
    const Benchmark b = fredkin();
    EXPECT_EQ(b.expected, parseBitstring("110"));
    const auto dist = sim::idealDistribution(b.circuit);
    EXPECT_NEAR(dist.prob(b.expected), 1.0, 1e-9);
}

TEST(Adder, OnePlusOneCarries)
{
    const Benchmark b = adder();
    // 1 + 1 + 0 = sum 0 carry 1, printed with a = 1 -> "011".
    EXPECT_EQ(b.expected, parseBitstring("011"));
    const auto dist = sim::idealDistribution(b.circuit);
    EXPECT_NEAR(dist.prob(b.expected), 1.0, 1e-9);
    EXPECT_EQ(b.circuit.countGates().twoQubit, 15); // paper: CX 15
}

TEST(Decoder24, SelectZeroFiresOutputZero)
{
    const Benchmark b = decoder24();
    EXPECT_EQ(b.expected, parseBitstring("100000"));
    const auto dist = sim::idealDistribution(b.circuit);
    EXPECT_NEAR(dist.prob(b.expected), 1.0, 1e-9);
}

// Reversible circuits are deterministic: every non-QAOA benchmark
// yields its answer with ideal probability ~1.
class DeterministicTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DeterministicTest, IdealProbabilityIsOne)
{
    const Benchmark b = byName(GetParam());
    const auto dist = sim::idealDistribution(b.circuit);
    EXPECT_NEAR(dist.prob(b.expected), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Reversible, DeterministicTest,
                         ::testing::Values("greycode", "bv-6", "bv-7",
                                           "fredkin", "adder",
                                           "decode-24"));

// QAOA is probabilistic: the expected cut must dominate but not be
// certain.
class QaoaModeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(QaoaModeTest, ExpectedCutDominatesButNotCertain)
{
    const Benchmark b = qaoaMaxcutPath(GetParam());
    const auto dist = sim::idealDistribution(b.circuit);
    const double p = dist.prob(b.expected);
    EXPECT_GT(p, 1.5 / dist.size()); // clearly above uniform
    EXPECT_LT(p, 0.999);
    EXPECT_EQ(dist.mode(), b.expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QaoaModeTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

// The pinned QAOA angles are what a coarse grid search over 15 gamma
// x 15 beta x 2 field signs picks: the point that makes the
// alternating cut the unique ideal mode with the highest probability,
// the first one found on ties.
QaoaGridPoint
searchQaoaAngles(int n)
{
    const Outcome expected = qaoaMaxcutPath(n).expected;
    double best_p = -1.0;
    QaoaGridPoint best;
    for (int gi = 1; gi <= 15; ++gi) {
        for (int bi = 1; bi <= 15; ++bi) {
            for (const int sign : {-1, 1}) {
                const QaoaGridPoint point{gi, bi, sign};
                const auto dist =
                    sim::idealDistribution(qaoaPathCircuit(n, point));
                if (dist.mode() != expected)
                    continue;
                const double p = dist.prob(expected);
                if (p > best_p) {
                    best_p = p;
                    best = point;
                }
            }
        }
    }
    EXPECT_GT(best_p, 0.0) << "no grid point has the cut as its mode";
    return best;
}

TEST(QaoaAngles, TableMatchesGridSearch)
{
    // Fingerprints of the circuits the search picks for n = 3..8. A
    // change to qaoaPathCircuit() moves the table's circuit and the
    // searched one together; these constants catch it.
    const std::uint64_t pinned[] = {
        0x890c12fdc5226305ull, 0xeeacdb73601952ccull,
        0x247afc62ce382caaull, 0x8ba775d8628c435dull,
        0xfe65d8845f1a097cull, 0x7995e87b04502828ull,
    };
    for (int n = 3; n <= 8; ++n) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const QaoaGridPoint searched = searchQaoaAngles(n);
        const QaoaGridPoint table = qaoaPathAngles(n);
        EXPECT_EQ(table.gammaStep, searched.gammaStep);
        EXPECT_EQ(table.betaStep, searched.betaStep);
        EXPECT_EQ(table.fieldSign, searched.fieldSign);

        const std::uint64_t fp = qaoaMaxcutPath(n).circuit.fingerprint();
        EXPECT_EQ(fp, qaoaPathCircuit(n, searched).fingerprint());
        EXPECT_EQ(fp, pinned[n - 3]);
    }
}

} // namespace
} // namespace qedm::benchmarks
