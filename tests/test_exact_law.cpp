/**
 * @file
 * Exact-law shot sampling (DESIGN.md §19): the fused density-matrix
 * law against the engine it replaced, and the exact sampler against
 * the trajectory engine, on every ensemble member of every Table-1
 * benchmark on melbourne, undrifted and after two drifted rounds.
 *
 * Per member tape:
 *  - the fused law equals the copy-per-Kraus reference evolution
 *    (copied below, minus its argument checks) to max |dp| <= 1e-12;
 *  - at the member's share of 4,096 trials, exact-sampled and
 *    trajectory-sampled histograms pass a two-sample chi-square
 *    homogeneity test (cells pooled to an expected count >= 5,
 *    p >= 1e-6), and the trajectory histogram sits within
 *    4 * E[TV] of the law, E[TV] = 1/2 sum_o sqrt(2 p_o (1 - p_o) /
 *    (pi N)). Both bounds follow from N and the law alone;
 *  - a TrialGate stopping at trial L returns exactly L trials,
 *    identical to an ungated run of L trials on the same seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/edm.hpp"
#include "core/ensemble.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "stats/counts.hpp"
#include "stats/distribution.hpp"
#include "stats/metrics.hpp"

namespace qedm {
namespace {

using circuit::Complex;

// ---------------------------------------------------------------------
// Reference: the copy-per-Kraus density matrix the fused engine
// replaced, and the evolution loop that drove it.
// ---------------------------------------------------------------------

class ReferenceDensityMatrix
{
  public:
    explicit ReferenceDensityMatrix(int num_qubits)
        : dim_(std::size_t(1) << num_qubits), rho_(dim_ * dim_)
    {
        rho_[0] = Complex(1.0);
    }

    Complex at(std::size_t row, std::size_t col) const
    {
        return rho_[row * dim_ + col];
    }

    void apply1q(const std::array<Complex, 4> &m, int q)
    {
        const std::size_t mask = std::size_t(1) << q;
        for (std::size_t col = 0; col < dim_; ++col) {
            for (std::size_t row = 0; row < dim_; ++row) {
                if (row & mask)
                    continue;
                const std::size_t r0 = row, r1 = row | mask;
                const Complex a = rho_[r0 * dim_ + col];
                const Complex b = rho_[r1 * dim_ + col];
                rho_[r0 * dim_ + col] = m[0] * a + m[1] * b;
                rho_[r1 * dim_ + col] = m[2] * a + m[3] * b;
            }
        }
        for (std::size_t row = 0; row < dim_; ++row) {
            for (std::size_t col = 0; col < dim_; ++col) {
                if (col & mask)
                    continue;
                const std::size_t c0 = col, c1 = col | mask;
                const Complex a = rho_[row * dim_ + c0];
                const Complex b = rho_[row * dim_ + c1];
                rho_[row * dim_ + c0] =
                    a * std::conj(m[0]) + b * std::conj(m[1]);
                rho_[row * dim_ + c1] =
                    a * std::conj(m[2]) + b * std::conj(m[3]);
            }
        }
    }

    void apply2q(const std::array<Complex, 16> &m, int q0, int q1)
    {
        const std::size_t m0 = std::size_t(1) << q0;
        const std::size_t m1 = std::size_t(1) << q1;
        for (std::size_t col = 0; col < dim_; ++col) {
            for (std::size_t row = 0; row < dim_; ++row) {
                if (row & (m0 | m1))
                    continue;
                const std::size_t idx[4] = {row, row | m1, row | m0,
                                            row | m0 | m1};
                Complex v[4];
                for (int k = 0; k < 4; ++k)
                    v[k] = rho_[idx[k] * dim_ + col];
                for (int r = 0; r < 4; ++r) {
                    Complex acc(0.0);
                    for (int c = 0; c < 4; ++c)
                        acc += m[r * 4 + c] * v[c];
                    rho_[idx[r] * dim_ + col] = acc;
                }
            }
        }
        for (std::size_t row = 0; row < dim_; ++row) {
            for (std::size_t col = 0; col < dim_; ++col) {
                if (col & (m0 | m1))
                    continue;
                const std::size_t idx[4] = {col, col | m1, col | m0,
                                            col | m0 | m1};
                Complex v[4];
                for (int k = 0; k < 4; ++k)
                    v[k] = rho_[row * dim_ + idx[k]];
                for (int c = 0; c < 4; ++c) {
                    Complex acc(0.0);
                    for (int k = 0; k < 4; ++k)
                        acc += v[k] * std::conj(m[c * 4 + k]);
                    rho_[row * dim_ + idx[c]] = acc;
                }
            }
        }
    }

    void applyKraus1q(const sim::Kraus1q &kraus, int q)
    {
        std::vector<Complex> acc(dim_ * dim_, Complex(0.0));
        const std::vector<Complex> original = rho_;
        for (const auto &k : kraus) {
            rho_ = original;
            apply1q(k, q);
            for (std::size_t i = 0; i < acc.size(); ++i)
                acc[i] += rho_[i];
        }
        rho_ = std::move(acc);
    }

    /** (1 - p) rho + p/15 sum over the 15 non-identity Pauli pairs. */
    void applyDepolarizing2q(double p, int q0, int q1)
    {
        if (p == 0.0)
            return;
        std::vector<Complex> acc(dim_ * dim_, Complex(0.0));
        const std::vector<Complex> original = rho_;
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] = (1.0 - p) * original[i];
        for (int w = 0; w < 15; ++w) {
            rho_ = original;
            const auto [pa, pb] = sim::twoQubitPauli(w);
            apply1q(pa, q0);
            apply1q(pb, q1);
            for (std::size_t i = 0; i < acc.size(); ++i)
                acc[i] += (p / 15.0) * rho_[i];
        }
        rho_ = std::move(acc);
    }

    std::vector<double> probabilities() const
    {
        std::vector<double> p(dim_);
        for (std::size_t i = 0; i < dim_; ++i)
            p[i] = std::max(rho_[i * dim_ + i].real(), 0.0);
        return p;
    }

  private:
    std::size_t dim_;
    std::vector<Complex> rho_;
};

stats::Distribution
referenceLaw(const sim::ExecutionTape &tape, const hw::Calibration &cal)
{
    ReferenceDensityMatrix rho(tape.numLocal);
    for (const sim::TapeOp &op : tape.ops) {
        for (const auto &[local, kraus] : op.preRelaxation)
            rho.applyKraus1q(kraus, local);
        if (op.l1 < 0) {
            rho.apply1q(op.gate1q, op.l0);
            if (op.overRotation != 0.0)
                rho.apply1q(op.overRotationMat, op.l0);
            if (op.depolProb > 0.0)
                rho.applyKraus1q(sim::depolarizing1q(op.depolProb),
                                 op.l0);
        } else {
            rho.apply2q(op.gate2q, op.l0, op.l1);
            if (op.overRotation != 0.0)
                rho.apply1q(op.overRotationMat, op.l1);
            if (op.controlPhase != 0.0)
                rho.apply1q(op.controlPhaseMat, op.l0);
            for (const auto &[spectator, kick] : op.crosstalk)
                rho.apply1q(kick, spectator);
            if (op.depolProb > 0.0)
                rho.applyDepolarizing2q(op.depolProb, op.l0, op.l1);
        }
        for (const auto &[local, kraus] : op.relaxation)
            rho.applyKraus1q(kraus, local);
    }
    for (const auto &m : tape.measures) {
        for (const auto &kraus : m.relaxation)
            rho.applyKraus1q(kraus, m.local);
    }

    stats::Distribution dist(tape.numClbits);
    const std::vector<double> probs = rho.probabilities();
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        Outcome outcome = 0;
        for (const auto &m : tape.measures)
            outcome = setBit(outcome, m.clbit, getBit(basis, m.local));
        dist.addProb(outcome, probs[basis]);
    }
    for (const auto &m : tape.measures) {
        const auto &qc = cal.qubit(m.phys);
        const std::size_t mask = std::size_t(1) << m.clbit;
        for (std::size_t o = 0; o < dist.size(); ++o) {
            if (o & mask)
                continue;
            const double p0 = dist.prob(o);
            const double p1 = dist.prob(o | mask);
            dist.setProb(o, p0 * (1.0 - qc.readoutP01) +
                                p1 * qc.readoutP10);
            dist.setProb(o | mask, p0 * qc.readoutP01 +
                                       p1 * (1.0 - qc.readoutP10));
        }
    }
    for (const auto &pr : tape.pairReadout) {
        for (std::size_t o = 0; o < dist.size(); ++o) {
            const Outcome f = flipBit(flipBit(o, pr.clbitA), pr.clbitB);
            if (f <= o)
                continue;
            const double po = dist.prob(o);
            const double pf = dist.prob(f);
            dist.setProb(o, po * (1.0 - pr.jointFlipProb) +
                                pf * pr.jointFlipProb);
            dist.setProb(f, po * pr.jointFlipProb +
                                pf * (1.0 - pr.jointFlipProb));
        }
    }
    dist.normalize();
    return dist;
}

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

/** Regularized upper incomplete gamma Q(a, x) (series below a + 1,
 *  Lentz continued fraction above). */
double
gammaQ(double a, double x)
{
    if (x <= 0.0)
        return 1.0;
    const double log_front = a * std::log(x) - x - std::lgamma(a);
    if (x < a + 1.0) {
        double term = 1.0 / a;
        double sum = term;
        for (int n = 1; n < 1000 && term > sum * 1e-16; ++n) {
            term *= x / (a + n);
            sum += term;
        }
        return 1.0 - sum * std::exp(log_front);
    }
    const double tiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 1000; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        d = std::abs(d) < tiny ? tiny : d;
        c = b + an / c;
        c = std::abs(c) < tiny ? tiny : c;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < 1e-16)
            break;
    }
    return std::exp(log_front) * h;
}

/**
 * Two-sample chi-square homogeneity p-value. Outcomes are visited in
 * descending law probability (a data-independent order) and pooled
 * until each cell's expected count per sample reaches 5; a short tail
 * joins the last full cell.
 */
double
homogeneityPValue(const stats::Counts &a, const stats::Counts &b,
                  const stats::Distribution &law)
{
    std::vector<Outcome> order(law.size());
    std::iota(order.begin(), order.end(), Outcome(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](Outcome x, Outcome y) {
                         return law.prob(x) > law.prob(y);
                     });
    const double na = static_cast<double>(a.total());
    const double nb = static_cast<double>(b.total());
    std::vector<std::pair<double, double>> cells;
    std::pair<double, double> open{0.0, 0.0};
    for (const Outcome o : order) {
        open.first += static_cast<double>(a.count(o));
        open.second += static_cast<double>(b.count(o));
        const double pooled = open.first + open.second;
        if (std::min(na, nb) * pooled / (na + nb) >= 5.0) {
            cells.push_back(open);
            open = {0.0, 0.0};
        }
    }
    if (cells.empty())
        return 1.0;
    cells.back().first += open.first;
    cells.back().second += open.second;
    double chi2 = 0.0;
    for (const auto &[ca, cb] : cells) {
        const double pooled = ca + cb;
        const double ea = na * pooled / (na + nb);
        const double eb = nb * pooled / (na + nb);
        chi2 += (ca - ea) * (ca - ea) / ea + (cb - eb) * (cb - eb) / eb;
    }
    const double dof = static_cast<double>(cells.size()) - 1.0;
    return dof < 1.0 ? 1.0 : gammaQ(dof / 2.0, chi2 / 2.0);
}

/** Expected TV between an N-trial histogram and its law (normal
 *  approximation per outcome). */
double
expectedTv(const stats::Distribution &law, std::uint64_t n)
{
    const double pi = std::acos(-1.0);
    double sum = 0.0;
    for (const double p : law.probabilities())
        sum += std::sqrt(2.0 * p * (1.0 - p) /
                         (pi * static_cast<double>(n)));
    return 0.5 * sum;
}

// ---------------------------------------------------------------------
// Per-benchmark suite.
// ---------------------------------------------------------------------

constexpr std::uint64_t kTotalTrials = 4096;

class ExactLawTest : public ::testing::TestWithParam<std::string>
{
};

void
checkDevice(const hw::Device &device, const benchmarks::Benchmark &bench,
            const SeedSequence &seeds)
{
    const core::EnsembleBuilder builder(device);
    const auto members = builder.build(bench.circuit);
    ASSERT_FALSE(members.empty());
    const std::vector<std::uint64_t> shares =
        core::EdmPipeline::splitShots(kTotalTrials, members.size());
    const sim::Executor exec(device);
    for (std::size_t m = 0; m < members.size(); ++m) {
        SCOPED_TRACE(bench.name + " member " + std::to_string(m));
        const auto tape =
            sim::ExecutionTape::build(device, members[m].physical);
        ASSERT_LE(tape.numLocal, sim::kExactLawMaxQubits);
        ASSERT_TRUE(tape.hasLaw());

        // Fused law against the reference evolution.
        const stats::Distribution law = exec.exactDistribution(tape);
        const stats::Distribution ref =
            referenceLaw(tape, device.calibration());
        ASSERT_EQ(law.size(), ref.size());
        double max_dp = 0.0;
        for (std::size_t o = 0; o < law.size(); ++o) {
            max_dp = std::max(max_dp, std::abs(law.probabilities()[o] -
                                               ref.probabilities()[o]));
        }
        EXPECT_LE(max_dp, 1e-12);

        // Exact sampler against trajectories at the member share.
        const std::uint64_t n = shares[m];
        const SeedSequence node = seeds.child(m);
        Rng exact_rng = node.child(0).rng();
        Rng traj_rng = node.child(1).rng();
        const stats::Counts exact = exec.run(tape, n, exact_rng);
        const stats::Counts traj = exec.runTrajectories(tape, n, traj_rng);
        ASSERT_EQ(exact.total(), n);
        ASSERT_EQ(traj.total(), n);
        EXPECT_GE(homogeneityPValue(exact, traj, law), 1e-6);
        EXPECT_LE(stats::totalVariation(
                      stats::Distribution::fromCounts(traj), law),
                  4.0 * expectedTv(law, n));

        // A gate stopping at trial L is an ungated run of L trials.
        const std::uint64_t limit = n / 3;
        Rng gated_rng = node.child(2).rng();
        Rng short_rng = node.child(2).rng();
        const stats::Counts gated =
            exec.run(tape, n, gated_rng, [limit](std::uint64_t trial) {
                return trial < limit;
            });
        const stats::Counts ungated = exec.run(tape, limit, short_rng);
        EXPECT_EQ(gated.total(), limit);
        EXPECT_EQ(gated.entries(), ungated.entries());
    }
}

TEST_P(ExactLawTest, MatchesReferenceAndTrajectories)
{
    const benchmarks::Benchmark bench = benchmarks::byName(GetParam());
    const hw::Device device = hw::Device::melbourne(2);
    const SeedSequence seeds(2026);
    {
        SCOPED_TRACE("undrifted");
        checkDevice(device, bench, seeds.child(0));
    }
    Rng drift_rng(5);
    const hw::Device drifted =
        device.driftedRound(drift_rng).driftedRound(drift_rng);
    {
        SCOPED_TRACE("after two drifted rounds");
        checkDevice(drifted, bench, seeds.child(1));
    }
}

INSTANTIATE_TEST_SUITE_P(Table1, ExactLawTest,
                         ::testing::Values("bv-6", "bv-7", "qaoa-5",
                                           "qaoa-6", "qaoa-7", "greycode",
                                           "fredkin", "adder",
                                           "decode-24"));

// ---------------------------------------------------------------------
// Closed-form two-qubit depolarizing.
// ---------------------------------------------------------------------

TEST(ExactLaw, ClosedFormDepolarizingEqualsPauliSum)
{
    // A generic 3-qubit mixed state, built identically on both.
    sim::DensityMatrix fused(3);
    ReferenceDensityMatrix ref(3);
    const auto h = circuit::gateMatrix1q(circuit::OpKind::H, {});
    const auto ry = circuit::gateMatrix1q(circuit::OpKind::Ry, {0.7});
    const auto rz = circuit::gateMatrix1q(circuit::OpKind::Rz, {1.3});
    const auto cx = circuit::gateMatrix2q(circuit::OpKind::Cx);
    const sim::Kraus1q damp = sim::amplitudeDamping(0.2);
    for (int q = 0; q < 3; ++q) {
        fused.apply1q(h, q);
        ref.apply1q(h, q);
    }
    fused.apply1q(ry, 1);
    ref.apply1q(ry, 1);
    fused.apply2q(cx, 0, 2);
    ref.apply2q(cx, 0, 2);
    fused.apply1q(rz, 2);
    ref.apply1q(rz, 2);
    fused.applyKraus1q(damp, 0);
    ref.applyKraus1q(damp, 0);

    for (const auto &[q0, q1, p] :
         {std::tuple{0, 2, 0.37}, std::tuple{2, 1, 0.05},
          std::tuple{1, 0, 1.0}}) {
        fused.applyDepolarizing2q(p, q0, q1);
        ref.applyDepolarizing2q(p, q0, q1);
        for (std::size_t r = 0; r < fused.dim(); ++r) {
            for (std::size_t c = 0; c < fused.dim(); ++c) {
                EXPECT_LE(std::abs(fused.at(r, c) - ref.at(r, c)), 1e-12)
                    << "(" << r << ", " << c << ") after p=" << p;
            }
        }
    }
    EXPECT_NEAR(fused.trace(), 1.0, 1e-12);
}

} // namespace
} // namespace qedm
