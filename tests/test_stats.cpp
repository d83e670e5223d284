/**
 * @file
 * Unit tests for qedm_stats: counts, distributions, and the paper's
 * metrics (PST, IST, KL divergence including the Table-2 worked
 * example, WEDM weights).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/counts.hpp"
#include "stats/distribution.hpp"
#include "stats/metrics.hpp"

namespace qedm::stats {
namespace {

TEST(Counts, AddAndTotal)
{
    Counts c(3);
    c.add(5);
    c.add(5, 2);
    c.add(0);
    EXPECT_EQ(c.total(), 4u);
    EXPECT_EQ(c.count(5), 3u);
    EXPECT_EQ(c.count(0), 1u);
    EXPECT_EQ(c.count(7), 0u);
    EXPECT_EQ(c.distinct(), 2u);
}

TEST(Counts, RejectsOutOfRangeOutcome)
{
    Counts c(3);
    EXPECT_THROW(c.add(8), UserError);
    EXPECT_THROW(Counts(0), UserError);
    EXPECT_THROW(Counts(21), UserError);
}

TEST(Counts, MergeAccumulates)
{
    Counts a(2), b(2);
    a.add(1, 5);
    b.add(1, 3);
    b.add(2, 7);
    a.merge(b);
    EXPECT_EQ(a.count(1), 8u);
    EXPECT_EQ(a.count(2), 7u);
    EXPECT_EQ(a.total(), 15u);
}

TEST(Counts, MergeRejectsWidthMismatch)
{
    Counts a(2), b(3);
    EXPECT_THROW(a.merge(b), UserError);
}

/** @p counts' entries as a std::map, the pre-flat representation. */
std::map<Outcome, std::uint64_t>
asMap(const Counts &counts)
{
    return {counts.entries().begin(), counts.entries().end()};
}

TEST(Counts, EntriesStrictlyIncreasing)
{
    Rng rng(31);
    Counts c(8);
    std::map<Outcome, std::uint64_t> want;
    for (int i = 0; i < 2000; ++i) {
        const Outcome o = rng.uniformInt(256);
        const std::uint64_t n = rng.uniformInt(3); // 0 still records o
        c.add(o, n);
        want[o] += n;
    }
    const auto &e = c.entries();
    for (std::size_t i = 1; i < e.size(); ++i)
        ASSERT_LT(e[i - 1].first, e[i].first);
    EXPECT_EQ(asMap(c), want);
    EXPECT_EQ(c.distinct(), want.size());
    std::uint64_t total = 0;
    for (const auto &[o, n] : want) {
        EXPECT_EQ(c.count(o), n);
        total += n;
    }
    EXPECT_EQ(c.total(), total);
}

TEST(Counts, MergeEqualsAddingOneByOne)
{
    Rng rng(32);
    const auto random_counts = [&](int shots, Outcome range) {
        Counts c(10);
        for (int i = 0; i < shots; ++i)
            c.add(rng.uniformInt(range), 1 + rng.uniformInt(4));
        return c;
    };
    // Interleaved, disjoint (other above and below), empty and equal.
    const std::vector<std::pair<Counts, Counts>> cases = {
        {random_counts(300, 1024), random_counts(300, 1024)},
        {random_counts(100, 512), [&] {
             Counts c(10);
             for (Outcome o = 512; o < 1024; o += 7)
                 c.add(o, o);
             return c;
         }()},
        {[&] {
             Counts c(10);
             for (Outcome o = 600; o < 1024; o += 5)
                 c.add(o, 2);
             return c;
         }(),
         random_counts(100, 512)},
        {Counts(10), random_counts(50, 1024)},
        {random_counts(50, 1024), Counts(10)},
        {random_counts(40, 64), random_counts(40, 64)},
    };
    for (const auto &[a, b] : cases) {
        Counts merged = a;
        merged.merge(b);
        Counts added = a;
        for (const auto &[o, n] : b.entries())
            added.add(o, n);
        EXPECT_EQ(merged.entries(), added.entries());
        EXPECT_EQ(merged.total(), added.total());
    }
}

TEST(Counts, WideTrajectoryFoldMatchesMap)
{
    // A trajectory loop on a 20-bit register: 16,384 distinct
    // outcomes in shot order, then repeats, folded in chunks.
    Rng rng(33);
    std::vector<Outcome> shots(Outcome(1) << 20);
    std::iota(shots.begin(), shots.end(), Outcome(0));
    for (std::size_t i = shots.size() - 1; i > 0; --i)
        std::swap(shots[i], shots[rng.uniformInt(i + 1)]);
    shots.resize(16384);
    for (int i = 0; i < 4096; ++i)
        shots.push_back(shots[rng.uniformInt(16384)]);

    std::map<Outcome, std::uint64_t> want;
    Counts one_by_one(20);
    for (const Outcome o : shots) {
        ++want[o];
        one_by_one.add(o);
    }
    Counts folded(20);
    for (std::size_t begin = 0; begin < shots.size(); begin += 5000) {
        std::vector<Outcome> chunk(
            shots.begin() + static_cast<std::ptrdiff_t>(begin),
            shots.begin() + static_cast<std::ptrdiff_t>(
                                std::min(begin + 5000, shots.size())));
        folded.addShots(chunk);
    }
    EXPECT_EQ(want.size(), 16384u);
    EXPECT_EQ(asMap(folded), want);
    EXPECT_EQ(folded.entries(), one_by_one.entries());
    EXPECT_EQ(folded.total(), shots.size());

    std::vector<Outcome> too_wide = {Outcome(1) << 20};
    EXPECT_THROW(folded.addShots(too_wide), UserError);
}

TEST(Counts, NarrowFoldMatchesAddingOneByOne)
{
    // At most 2^width distinct outcomes in a chunk at least that long:
    // addShots counts instead of sorting.
    Rng rng(34);
    Counts folded(6), one_by_one(6);
    folded.add(63, 5);
    one_by_one.add(63, 5);
    for (int chunk = 0; chunk < 3; ++chunk) {
        std::vector<Outcome> shots(64 + 100 * chunk);
        for (Outcome &o : shots)
            o = rng.uniformInt(chunk == 0 ? 64 : 13);
        for (const Outcome o : shots)
            one_by_one.add(o);
        folded.addShots(shots);
        EXPECT_EQ(folded.entries(), one_by_one.entries());
        EXPECT_EQ(folded.total(), one_by_one.total());
    }
    std::vector<Outcome> too_wide(64, 0);
    too_wide.back() = 64;
    EXPECT_THROW(folded.addShots(too_wide), UserError);
}

TEST(Counts, SortedByCountDescending)
{
    Counts c(3);
    c.add(1, 5);
    c.add(2, 9);
    c.add(3, 5);
    const auto sorted = c.sortedByCount();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].first, 2u);
    // Ties broken by outcome value.
    EXPECT_EQ(sorted[1].first, 1u);
    EXPECT_EQ(sorted[2].first, 3u);
}

TEST(Counts, ToStringShowsBitstrings)
{
    Counts c(3);
    c.add(5, 2);
    EXPECT_NE(c.toString().find("101: 2"), std::string::npos);
}

TEST(Distribution, FromCountsNormalizes)
{
    Counts c(2);
    c.add(0, 1);
    c.add(3, 3);
    const auto d = Distribution::fromCounts(c);
    EXPECT_DOUBLE_EQ(d.prob(0), 0.25);
    EXPECT_DOUBLE_EQ(d.prob(3), 0.75);
    EXPECT_TRUE(d.isNormalized());
}

TEST(Distribution, FromCountsRejectsEmpty)
{
    Counts c(2);
    EXPECT_THROW(Distribution::fromCounts(c), UserError);
}

TEST(Distribution, UniformAndPointMass)
{
    const auto u = Distribution::uniform(3);
    EXPECT_DOUBLE_EQ(u.prob(0), 1.0 / 8.0);
    EXPECT_TRUE(u.isNormalized());
    EXPECT_NEAR(u.relativeStdDev(), 0.0, 1e-12);

    const auto p = Distribution::pointMass(3, 5);
    EXPECT_DOUBLE_EQ(p.prob(5), 1.0);
    EXPECT_EQ(p.mode(), 5u);
}

TEST(Distribution, FromProbabilitiesValidates)
{
    EXPECT_THROW(Distribution::fromProbabilities({0.5, 0.5, 0.0}),
                 UserError);
    EXPECT_THROW(Distribution::fromProbabilities({0.5, -0.5}),
                 UserError);
    const auto d = Distribution::fromProbabilities({0.25, 0.75});
    EXPECT_EQ(d.width(), 1);
}

TEST(Distribution, NormalizeScalesToOne)
{
    Distribution d(2);
    d.setProb(0, 2.0);
    d.setProb(1, 6.0);
    d.normalize();
    EXPECT_DOUBLE_EQ(d.prob(0), 0.25);
    EXPECT_DOUBLE_EQ(d.prob(1), 0.75);
    Distribution zero(2);
    EXPECT_THROW(zero.normalize(), UserError);
}

TEST(Distribution, ModeAndTopK)
{
    const auto d =
        Distribution::fromProbabilities({0.1, 0.4, 0.3, 0.2});
    EXPECT_EQ(d.mode(), 1u);
    const auto top = d.topK(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 1u);
    EXPECT_EQ(top[1].first, 2u);
}

TEST(Distribution, EntropyKnownValues)
{
    EXPECT_NEAR(Distribution::uniform(3).entropy(), std::log(8.0),
                1e-12);
    EXPECT_NEAR(Distribution::pointMass(3, 1).entropy(), 0.0, 1e-12);
    const auto d = Distribution::fromProbabilities({0.5, 0.5});
    EXPECT_NEAR(d.entropy(), std::log(2.0), 1e-12);
}

TEST(Distribution, SampleMatchesProbabilities)
{
    const auto d =
        Distribution::fromProbabilities({0.1, 0.2, 0.3, 0.4});
    Rng rng(5);
    const auto counts = d.sample(rng, 100000);
    EXPECT_EQ(counts.total(), 100000u);
    for (Outcome o = 0; o < 4; ++o) {
        EXPECT_NEAR(counts.count(o) / 1e5, d.prob(o), 0.01)
            << "outcome " << o;
    }
}

TEST(Distribution, AccumulateAndScale)
{
    Distribution a(1), b(1);
    a.setProb(0, 0.5);
    b.setProb(1, 1.0);
    a.accumulate(b, 0.5);
    EXPECT_DOUBLE_EQ(a.prob(0), 0.5);
    EXPECT_DOUBLE_EQ(a.prob(1), 0.5);
    a.scale(2.0);
    EXPECT_DOUBLE_EQ(a.prob(1), 1.0);
    Distribution c(2);
    EXPECT_THROW(a.accumulate(c), UserError);
}

TEST(Merge, UniformIsPlainAverage)
{
    const auto a = Distribution::fromProbabilities({1.0, 0.0});
    const auto b = Distribution::fromProbabilities({0.0, 1.0});
    const auto m = mergeUniform({a, b});
    EXPECT_DOUBLE_EQ(m.prob(0), 0.5);
    EXPECT_DOUBLE_EQ(m.prob(1), 0.5);
}

TEST(Merge, WeightedRespectsWeights)
{
    const auto a = Distribution::fromProbabilities({1.0, 0.0});
    const auto b = Distribution::fromProbabilities({0.0, 1.0});
    const auto m = mergeWeighted({a, b}, {3.0, 1.0});
    EXPECT_DOUBLE_EQ(m.prob(0), 0.75);
    EXPECT_DOUBLE_EQ(m.prob(1), 0.25);
}

TEST(Merge, RejectsBadInputs)
{
    const auto a = Distribution::uniform(1);
    EXPECT_THROW(mergeUniform({}), UserError);
    EXPECT_THROW(mergeWeighted({a}, {1.0, 2.0}), UserError);
    EXPECT_THROW(mergeWeighted({a}, {-1.0}), UserError);
    EXPECT_THROW(mergeWeighted({a}, {0.0}), UserError);
}

TEST(Metrics, PstIsCorrectProbability)
{
    const auto d =
        Distribution::fromProbabilities({0.1, 0.2, 0.3, 0.4});
    EXPECT_DOUBLE_EQ(pst(d, 2), 0.3);
}

TEST(Metrics, IstRatioOfCorrectToStrongestWrong)
{
    const auto d =
        Distribution::fromProbabilities({0.1, 0.2, 0.3, 0.4});
    // correct = 3: 0.4 / 0.3
    EXPECT_NEAR(ist(d, 3), 0.4 / 0.3, 1e-12);
    // correct = 0: 0.1 / 0.4
    EXPECT_NEAR(ist(d, 0), 0.25, 1e-12);
    // Point mass: no wrong answer at all -> infinite strength.
    EXPECT_TRUE(std::isinf(ist(Distribution::pointMass(2, 1), 1)));
}

TEST(Metrics, KlDivergenceTable2Example)
{
    // The paper's Appendix-B worked example:
    // P = (0.2, 0.3, 0.4, 0.1), Q = uniform(4). The paper prints
    // 0.046 / 0.052 and writes "ln", but those numbers are the
    // base-10 values; in nats they are 0.1064 / 0.1218.
    const auto p =
        Distribution::fromProbabilities({0.2, 0.3, 0.4, 0.1});
    const auto q = Distribution::uniform(2);
    EXPECT_NEAR(klDivergence(p, q, 0.0), 0.1064, 5e-4);
    EXPECT_NEAR(klDivergence(q, p, 0.0), 0.1218, 5e-4);
    EXPECT_NEAR(klDivergence(p, q, 0.0) / std::log(10.0), 0.0462,
                5e-4);
    EXPECT_NEAR(klDivergence(q, p, 0.0) / std::log(10.0), 0.0529,
                5e-4);
    // Symmetric KL is the sum of both directions (Eq. 4).
    EXPECT_NEAR(symmetricKl(p, q, 0.0),
                klDivergence(p, q, 0.0) + klDivergence(q, p, 0.0),
                1e-12);
}

TEST(Metrics, KlOfIdenticalDistributionsIsZero)
{
    const auto p =
        Distribution::fromProbabilities({0.2, 0.3, 0.4, 0.1});
    EXPECT_NEAR(klDivergence(p, p, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(symmetricKl(p, p), 0.0, 1e-9);
}

TEST(Metrics, KlRequiresSmoothingWithZeros)
{
    const auto p = Distribution::pointMass(1, 0);
    const auto q = Distribution::pointMass(1, 1);
    EXPECT_THROW(klDivergence(p, q, 0.0), UserError);
    EXPECT_GT(klDivergence(p, q, 1e-6), 1.0);
}

TEST(Metrics, KlIsAsymmetric)
{
    const auto p =
        Distribution::fromProbabilities({0.9, 0.05, 0.03, 0.02});
    const auto q = Distribution::uniform(2);
    EXPECT_NE(klDivergence(p, q, 0.0), klDivergence(q, p, 0.0));
}

TEST(Metrics, JensenShannonBoundedAndSymmetric)
{
    const auto p = Distribution::pointMass(2, 0);
    const auto q = Distribution::pointMass(2, 3);
    const double js = jensenShannon(p, q);
    EXPECT_NEAR(js, std::log(2.0), 1e-12); // maximal for disjoint
    EXPECT_DOUBLE_EQ(jensenShannon(q, p), js);
    EXPECT_NEAR(jensenShannon(p, p), 0.0, 1e-12);
}

TEST(Metrics, WedmWeightsUniformForIdenticalMembers)
{
    const auto d =
        Distribution::fromProbabilities({0.25, 0.25, 0.25, 0.25});
    const auto w = wedmWeights({d, d, d});
    ASSERT_EQ(w.size(), 3u);
    for (double x : w)
        EXPECT_NEAR(x, 1.0 / 3.0, 1e-9);
}

TEST(Metrics, WedmWeightsFavorDivergentMember)
{
    const auto a =
        Distribution::fromProbabilities({0.9, 0.1, 0.0, 0.0});
    const auto b =
        Distribution::fromProbabilities({0.88, 0.12, 0.0, 0.0});
    const auto c =
        Distribution::fromProbabilities({0.0, 0.0, 0.1, 0.9});
    const auto w = wedmWeights({a, b, c});
    ASSERT_EQ(w.size(), 3u);
    EXPECT_GT(w[2], w[0]);
    EXPECT_GT(w[2], w[1]);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
}

TEST(Metrics, PairwiseDivergenceSymmetricZeroDiagonal)
{
    const auto a = Distribution::fromProbabilities({0.7, 0.3});
    const auto b = Distribution::fromProbabilities({0.2, 0.8});
    const auto m = pairwiseDivergence({a, b});
    EXPECT_DOUBLE_EQ(m[0][0], 0.0);
    EXPECT_DOUBLE_EQ(m[1][1], 0.0);
    EXPECT_DOUBLE_EQ(m[0][1], m[1][0]);
    EXPECT_GT(m[0][1], 0.0);
}

TEST(Metrics, MeanOffDiagonal)
{
    const std::vector<std::vector<double>> m{{0.0, 2.0}, {4.0, 0.0}};
    EXPECT_DOUBLE_EQ(meanOffDiagonal(m), 3.0);
    EXPECT_DOUBLE_EQ(meanOffDiagonal({{0.0}}), 0.0);
}

TEST(Metrics, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_THROW(median({}), UserError);
}

TEST(Metrics, IsNearUniform)
{
    EXPECT_TRUE(isNearUniform(Distribution::uniform(4)));
    EXPECT_FALSE(isNearUniform(Distribution::pointMass(4, 3)));
}

// Property sweep: merging any distribution with itself is identity,
// and WEDM weights always sum to one.
class MergePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MergePropertyTest, SelfMergeIsIdentityAndWeightsNormalized)
{
    Rng rng(GetParam());
    Distribution d(3);
    for (Outcome o = 0; o < 8; ++o)
        d.setProb(o, rng.uniform());
    d.normalize();

    const auto merged = mergeUniform({d, d, d, d});
    for (Outcome o = 0; o < 8; ++o)
        EXPECT_NEAR(merged.prob(o), d.prob(o), 1e-12);

    Distribution e(3);
    for (Outcome o = 0; o < 8; ++o)
        e.setProb(o, rng.uniform());
    e.normalize();
    const auto w = wedmWeights({d, e});
    EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
    // Two-member WEDM is symmetric: equal weights.
    EXPECT_NEAR(w[0], 0.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest,
                         ::testing::Range(1, 21));

// Property sweep: IST > 1 iff the correct outcome is the unique mode.
class IstPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(IstPropertyTest, IstAboveOneIffUniqueMode)
{
    Rng rng(100 + GetParam());
    Distribution d(4);
    for (Outcome o = 0; o < 16; ++o)
        d.setProb(o, rng.uniform());
    d.normalize();
    const Outcome correct = rng.uniformInt(16);
    const double s = ist(d, correct);
    if (s > 1.0) {
        EXPECT_EQ(d.mode(), correct);
    } else if (s < 1.0) {
        EXPECT_NE(d.mode(), correct);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IstPropertyTest,
                         ::testing::Range(1, 31));

} // namespace
} // namespace qedm::stats
