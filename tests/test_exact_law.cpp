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
 *
 * Above the cut, the trajectory engine is held to the density-matrix
 * law by the same chi-square and TV bounds at 9 and 10 active qubits.
 *
 * The sparse support (untouched and dephased qubits) is held to the
 * same reference on the tape shapes it special-cases, and its sweep
 * count to a tenth of a dense evolution's on the largest members.
 *
 * The hot path is held bit for bit: the guide-table sampler to
 * std::upper_bound on adversarial laws and to a binary-search loop's
 * Counts on every member, the dense superoperator kernel to a
 * test-local zero-skipping pass, and every member's cumulative law to
 * pinned fingerprints. Matrices evolved in a thread's reused buffer
 * match first-use evaluations bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/edm.hpp"
#include "core/ensemble.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "sim/law_sampler.hpp"
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

    double purity() const
    {
        double p = 0.0;
        for (const Complex &v : rho_)
            p += std::norm(v);
        return p;
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

double
maxAbsDiff(const stats::Distribution &a, const stats::Distribution &b)
{
    EXPECT_EQ(a.size(), b.size());
    double max_dp = 0.0;
    for (std::size_t o = 0; o < std::min(a.size(), b.size()); ++o) {
        max_dp = std::max(max_dp, std::abs(a.probabilities()[o] -
                                           b.probabilities()[o]));
    }
    return max_dp;
}

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
        EXPECT_LE(maxAbsDiff(law, referenceLaw(tape, device.calibration())),
                  1e-12);

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

const std::vector<std::string> kTable1 = {
    "bv-6",     "bv-7",    "qaoa-5", "qaoa-6",   "qaoa-7",
    "greycode", "fredkin", "adder",  "decode-24"};

INSTANTIATE_TEST_SUITE_P(Table1, ExactLawTest, ::testing::ValuesIn(kTable1));

// ---------------------------------------------------------------------
// Trajectories above the exact-law cut.
// ---------------------------------------------------------------------

/**
 * Registers above sim::kExactLawMaxQubits run on trajectories, and the
 * test above never reaches them. BV with an 8- and a 9-bit key on
 * melbourne(2), full noise: 9 and 10 active qubits, still within
 * exactDistribution's dense limit. At a fixed budget and seed the
 * trajectory histogram must pass the two-sample chi-square test
 * against 64 times as many draws from the density-matrix law (close
 * to a one-sample test against the law itself), and sit within
 * 4 E[TV] of it. The seeds are fixed, so the p-values repeat exactly;
 * a correct change that re-rolls the engine's draws fails one of the
 * two cases with probability ~2e-4 at the 1e-4 floor. At that floor,
 * dropping the readout flips, the measurement-window relaxation or
 * the two-qubit depolarizing errors from the engine each fail at
 * least one case.
 */
class TrajectoryAboveCutTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TrajectoryAboveCutTest, MatchesDensityMatrixLaw)
{
    constexpr std::uint64_t kTrials = 2048;
    const std::string &key = GetParam();
    const hw::Device device = hw::Device::melbourne(2);
    const core::EnsembleBuilder builder(device);
    const auto tape = sim::ExecutionTape::build(
        device, builder.build(benchmarks::bernsteinVazirani(key).circuit)
                    .front()
                    .physical);
    ASSERT_EQ(tape.numLocal, static_cast<int>(key.size()) + 1);
    ASSERT_FALSE(tape.hasLaw());

    const sim::Executor exec(device);
    const stats::Distribution law = exec.exactDistribution(tape);
    std::vector<double> cumulative(law.size());
    std::partial_sum(law.probabilities().begin(),
                     law.probabilities().end(), cumulative.begin());
    const sim::LawSampler sampler(std::move(cumulative));

    const SeedSequence seeds(2026);
    Rng exact_rng = seeds.child(0).rng();
    Rng traj_rng = seeds.child(1).rng();
    std::vector<Outcome> draws(64 * kTrials);
    for (Outcome &o : draws)
        o = static_cast<Outcome>(sampler.sample(exact_rng));
    stats::Counts exact(tape.numClbits);
    exact.addShots(draws);
    const stats::Counts traj = exec.run(tape, kTrials, traj_rng);
    ASSERT_EQ(traj.total(), kTrials);
    EXPECT_GE(homogeneityPValue(exact, traj, law), 1e-4);
    EXPECT_LE(stats::totalVariation(stats::Distribution::fromCounts(traj),
                                    law),
              4.0 * expectedTv(law, kTrials));
}

INSTANTIATE_TEST_SUITE_P(Bv, TrajectoryAboveCutTest,
                         ::testing::Values("10110101", "101101011"));

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

// ---------------------------------------------------------------------
// Sparse support: untouched and dephased qubits.
// ---------------------------------------------------------------------

/** Tape of @p physical on @p device, its fused law held to the
 *  reference evolution. */
sim::ExecutionTape
checkedTape(const hw::Device &device, const circuit::Circuit &physical)
{
    const auto tape = sim::ExecutionTape::build(device, physical);
    EXPECT_TRUE(tape.hasLaw());
    EXPECT_LE(maxAbsDiff(sim::exactLaw(tape, device.calibration()),
                         referenceLaw(tape, device.calibration())),
              1e-12);
    return tape;
}

/** Index of the last tape op on local qubit @p local, or -1. */
int
lastOp(const sim::ExecutionTape &tape, int local)
{
    int last = -1;
    for (std::size_t i = 0; i < tape.ops.size(); ++i) {
        if (tape.ops[i].l0 == local || tape.ops[i].l1 == local)
            last = static_cast<int>(i);
    }
    return last;
}

int
localOf(const sim::ExecutionTape &tape, int phys)
{
    const auto it = std::find(tape.localToPhys.begin(),
                              tape.localToPhys.end(), phys);
    return static_cast<int>(it - tape.localToPhys.begin());
}

TEST(ExactLawSparse, CrosstalkKicksAfterLastGate)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::Topology &topo = device.topology();
    // A CX on (a, b) that kicks a spectator s, which itself has a
    // partner t off that edge for its own last gate.
    for (std::size_t e = 0; e < topo.edges().size(); ++e) {
        const auto [a, b] = topo.edges()[e];
        for (const auto &xt : device.noise().crosstalk(e)) {
            const int s = xt.spectator;
            for (const int t : topo.neighbors(s)) {
                if (t == a || t == b)
                    continue;
                circuit::Circuit c(topo.numQubits(), 4);
                c.h(s).cx(s, t).h(a).cx(a, b).rx(0.3, b).cx(a, b);
                c.measure(a, 0).measure(b, 1).measure(s, 2).measure(t, 3);
                const auto tape = checkedTape(device, c);
                const int ls = localOf(tape, s);
                const auto &kicked = tape.ops.back().crosstalk;
                ASSERT_LT(lastOp(tape, ls),
                          static_cast<int>(tape.ops.size()) - 1);
                EXPECT_TRUE(std::any_of(kicked.begin(), kicked.end(),
                                        [&](const auto &k) {
                                            return k.first == ls;
                                        }));
                return;
            }
        }
    }
    FAIL() << "no crosstalk spectator with a partner off its edge";
}

TEST(ExactLawSparse, UnmeasuredActiveQubit)
{
    // Bernstein-Vazirani with key 11: the ancilla b is active but
    // never measured.
    const hw::Device device = hw::Device::melbourne(2);
    const hw::Topology &topo = device.topology();
    for (int b = 0; b < topo.numQubits(); ++b) {
        const auto &nb = topo.neighbors(b);
        if (nb.size() < 2)
            continue;
        const int a = nb[0], c = nb[1];
        circuit::Circuit bv(topo.numQubits(), 2);
        bv.x(b).h(b).h(a).h(c).cx(a, b).cx(c, b).h(a).h(c);
        bv.measure(a, 0).measure(c, 1);
        const auto tape = checkedTape(device, bv);
        EXPECT_EQ(tape.numLocal, 3);
        EXPECT_EQ(tape.measures.size(), 2u);
        return;
    }
    FAIL() << "no qubit with two neighbors";
}

TEST(ExactLawSparse, QubitTouchedOnlyByOneQubitGates)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::Topology &topo = device.topology();
    const auto [a, b] = topo.edges().front();
    int u = 0;
    while (u == a || u == b)
        ++u;
    circuit::Circuit c(topo.numQubits(), 3);
    c.h(u).ry(0.4, u).h(a).cx(a, b).t(u);
    c.measure(a, 0).measure(b, 1).measure(u, 2);
    const auto tape = checkedTape(device, c);
    const int lu = localOf(tape, u);
    for (const auto &op : tape.ops)
        EXPECT_TRUE(op.l1 < 0 || (op.l0 != lu && op.l1 != lu));
}

TEST(ExactLawSparse, OneQubitRegister)
{
    const hw::Device device = hw::Device::melbourne(2);
    circuit::Circuit c(device.topology().numQubits(), 1);
    c.h(3).rx(0.3, 3).measure(3, 0);
    const auto tape = checkedTape(device, c);
    EXPECT_EQ(tape.numLocal, 1);
}

TEST(ExactLawSparse, DephaseDropsCoherencesExactly)
{
    sim::DensityMatrix fused(3);
    ReferenceDensityMatrix ref(3);
    const auto h = circuit::gateMatrix1q(circuit::OpKind::H, {});
    const auto ry = circuit::gateMatrix1q(circuit::OpKind::Ry, {0.7});
    const auto rz = circuit::gateMatrix1q(circuit::OpKind::Rz, {1.3});
    const auto cx = circuit::gateMatrix2q(circuit::OpKind::Cx);
    const sim::Kraus1q damp = sim::amplitudeDamping(0.2);
    const sim::Kraus1q dephasing = {{1, 0, 0, 0}, {0, 0, 0, 1}};
    for (int q = 0; q < 3; ++q) {
        fused.apply1q(h, q);
        ref.apply1q(h, q);
    }
    fused.apply1q(ry, 1);
    ref.apply1q(ry, 1);
    fused.apply2q(cx, 1, 2);
    ref.apply2q(cx, 1, 2);
    fused.apply2q(cx, 0, 1);
    ref.apply2q(cx, 0, 1);
    fused.applyKraus1q(damp, 1);
    ref.applyKraus1q(damp, 1);

    fused.dephase(1);
    ref.applyKraus1q(dephasing, 1);
    const auto compare = [&](const char *when) {
        for (std::size_t r = 0; r < fused.dim(); ++r) {
            for (std::size_t c = 0; c < fused.dim(); ++c) {
                if ((r ^ c) & 2) {
                    EXPECT_EQ(fused.at(r, c), Complex(0.0))
                        << "(" << r << ", " << c << ") " << when;
                }
                EXPECT_LE(std::abs(fused.at(r, c) - ref.at(r, c)), 1e-12)
                    << "(" << r << ", " << c << ") " << when;
            }
        }
        EXPECT_NEAR(fused.purity(), ref.purity(), 1e-12) << when;
        EXPECT_LT(fused.purity(), 1.0 - 1e-3) << when;
    };
    compare("after dephase");

    // Diagonal and phase-covariant factors still queue on it, and the
    // other qubits keep evolving.
    fused.apply1q(rz, 1);
    ref.apply1q(rz, 1);
    fused.applyKraus1q(damp, 1);
    ref.applyKraus1q(damp, 1);
    fused.applyKraus1q(sim::phaseDamping(0.3), 1);
    ref.applyKraus1q(sim::phaseDamping(0.3), 1);
    fused.apply1q(ry, 2);
    ref.apply1q(ry, 2);
    fused.apply2q(cx, 2, 0);
    ref.apply2q(cx, 2, 0);
    compare("after later factors");

    // Misuse fails loudly instead of returning a wrong law.
    EXPECT_THROW(fused.apply2q(cx, 1, 0), UserError);
    EXPECT_THROW(fused.apply2q(cx, 2, 1), UserError);
    EXPECT_THROW(fused.applyDepolarizing2q(0.1, 0, 1), UserError);
    EXPECT_THROW(fused.apply1q(h, 1), UserError);
    EXPECT_THROW(fused.apply1q(ry, 1), UserError);
    compare("after refused calls");
}

TEST(ExactLawSparse, SweepsATenthOfTheDenseBlockPairs)
{
    // A dense evolution makes one 4x4-block pass per 2-qubit op and,
    // since every op queues relaxation on its operands, one 2x2-block
    // pass per qubit at the end; a pass over B blocks computes
    // B (B + 1) / 2 Hermitian pairs.
    const auto pairs = [](std::uint64_t blocks) {
        return blocks * (blocks + 1) / 2;
    };
    const hw::Device device = hw::Device::melbourne(2);
    const core::EnsembleBuilder builder(device);
    for (const char *name : {"bv-6", "bv-7", "decode-24"}) {
        const auto members =
            builder.build(benchmarks::byName(name).circuit);
        ASSERT_FALSE(members.empty());
        for (std::size_t m = 0; m < members.size(); ++m) {
            SCOPED_TRACE(std::string(name) + " member " +
                         std::to_string(m));
            const auto tape =
                sim::ExecutionTape::build(device, members[m].physical);
            const sim::DensityMatrix rho = sim::evolveDensityMatrix(tape);
            rho.probabilities();
            const std::uint64_t dim = rho.dim();
            const auto two_qubit = static_cast<std::uint64_t>(
                std::count_if(tape.ops.begin(), tape.ops.end(),
                              [](const sim::TapeOp &op) {
                                  return op.l1 >= 0;
                              }));
            const std::uint64_t dense =
                two_qubit * pairs(dim / 4) +
                static_cast<std::uint64_t>(tape.numLocal) *
                    pairs(dim / 2);
            EXPECT_LE(10 * rho.blockPairsSwept(), dense)
                << rho.blockPairsSwept() << " of " << dense;
        }
    }
}

// ---------------------------------------------------------------------
// Bit identity of the hot path: guide-table draws and the dense
// superoperator kernel.
// ---------------------------------------------------------------------

/** The binary-search draw the guide table must reproduce. */
std::size_t
upperBoundIndex(const std::vector<double> &cum, double r)
{
    const auto it = std::upper_bound(cum.begin(), cum.end(), r);
    return it == cum.end() ? cum.size() - 1
                           : static_cast<std::size_t>(it - cum.begin());
}

/** @p shots binary-search draws from @p cum, tallied as Counts. */
stats::Counts
binarySearchCounts(const std::vector<double> &cum, int width,
                   std::uint64_t shots, Rng &rng)
{
    std::vector<std::uint64_t> tally(cum.size(), 0);
    for (std::uint64_t t = 0; t < shots; ++t)
        ++tally[upperBoundIndex(cum, rng.uniform() * cum.back())];
    stats::Counts counts(width);
    for (std::size_t o = 0; o < tally.size(); ++o) {
        if (tally[o] > 0)
            counts.add(static_cast<Outcome>(o), tally[o]);
    }
    return counts;
}

/** Running sum of @p mass, accumulated as the tape accumulates its law. */
std::vector<double>
cumulativeOf(const std::vector<double> &mass)
{
    std::vector<double> cum(mass.size());
    double acc = 0.0;
    for (std::size_t o = 0; o < mass.size(); ++o) {
        acc += mass[o];
        cum[o] = acc;
    }
    return cum;
}

TEST(LawSampler, MatchesUpperBoundOnAdversarialLaws)
{
    Rng mass_rng(404);
    const auto random_mass = [&](std::size_t n) {
        std::vector<double> mass(n);
        double total = 0.0;
        for (double &m : mass) {
            m = mass_rng.uniform();
            total += m;
        }
        for (double &m : mass)
            m /= total;
        return mass;
    };
    const auto zero_run = [&](std::size_t begin, std::size_t end) {
        std::vector<double> mass = random_mass(256);
        for (std::size_t o = begin; o < end; ++o)
            mass[o] = 0.0;
        return mass;
    };
    const auto point_mass = [](std::size_t at) {
        std::vector<double> mass(256, 0.0);
        mass[at] = 1.0;
        return mass;
    };
    std::vector<double> concentrated(256, 0.1 / 255.0);
    concentrated[37] = 0.9;
    std::vector<double> above = random_mass(256);
    above.back() += 1e-15;
    std::vector<double> below = random_mass(256);
    below.back() -= 1e-15;
    ASSERT_GT(cumulativeOf(above).back(), 1.0);
    ASSERT_LT(cumulativeOf(below).back(), 1.0);
    // Every boundary on a bucket edge (every 16th of the 4096), total
    // 1 - 1e-15: the bucket products round, so draws just below an
    // edge must still start at or before their answer.
    std::vector<double> on_edges(256);
    for (std::size_t i = 0; i < on_edges.size(); ++i)
        on_edges[i] = static_cast<double>(i + 1) * (1.0 - 1e-15) / 256.0;

    const std::vector<std::pair<std::string, std::vector<double>>> laws = {
        {"n=1", cumulativeOf({1.0})},
        {"n=2", cumulativeOf({0.3, 0.7})},
        {"n=2 leading zero", cumulativeOf({0.0, 1.0})},
        {"n=2 trailing zero", cumulativeOf({1.0, 0.0})},
        {"n=256", cumulativeOf(random_mass(256))},
        {"leading zero run", cumulativeOf(zero_run(0, 100))},
        {"middle zero run", cumulativeOf(zero_run(100, 200))},
        {"trailing zero run", cumulativeOf(zero_run(156, 256))},
        {"all mass first", cumulativeOf(point_mass(0))},
        {"all mass middle", cumulativeOf(point_mass(77))},
        {"all mass last", cumulativeOf(point_mass(255))},
        {"concentrated", cumulativeOf(concentrated)},
        {"total 1 + 1e-15", cumulativeOf(above)},
        {"total 1 - 1e-15", cumulativeOf(below)},
        {"boundaries on bucket edges", on_edges},
        // 2^16 buckets, the cap, reached at n = 2^12 already; above
        // 2^16 entries the guide has one bucket per entry.
        {"n=2^13 at the cap", cumulativeOf(random_mass(1 << 13))},
        {"n=2^17 above the cap", cumulativeOf(random_mass(1 << 17))},
    };
    for (const auto &[name, cum] : laws) {
        SCOPED_TRACE(name);
        const double total = cum.back();
        const sim::LawSampler sampler(cum);
        ASSERT_EQ(sampler.cumulative(), cum);
        const std::size_t n = cum.size();
        ASSERT_EQ(sampler.buckets(),
                  std::min(16 * n, std::max<std::size_t>(n, 1 << 16)));

        // Every edge of the sampler's own buckets and every decision
        // boundary, each with its nextafter neighbours.
        const double m = static_cast<double>(sampler.buckets());
        std::vector<double> points;
        for (std::size_t b = 0; b <= sampler.buckets(); ++b)
            points.push_back(static_cast<double>(b) * total / m);
        points.insert(points.end(), cum.begin(), cum.end());
        for (const double p : std::vector<double>(points)) {
            points.push_back(std::nextafter(p, 0.0));
            points.push_back(std::nextafter(p, 2.0 * total + 1.0));
        }
        for (const double r : points) {
            ASSERT_EQ(sampler.index(r), upperBoundIndex(cum, r))
                << "r = " << r;
        }

        // 10^5 uniforms: same indices, same RNG stream.
        Rng guided(99);
        Rng reference(99);
        for (int t = 0; t < 100000; ++t) {
            const double r = reference.uniform() * total;
            ASSERT_EQ(sampler.sample(guided), upperBoundIndex(cum, r))
                << "draw " << t;
        }
        EXPECT_EQ(guided(), reference());
    }
}

TEST(LawSampler, ExecutorCountsMatchBinarySearch)
{
    const hw::Device device = hw::Device::melbourne(2);
    const core::EnsembleBuilder builder(device);
    const sim::Executor exec(device);
    constexpr std::uint64_t kShots = 16384;
    std::uint64_t seed = 1;
    for (const std::string &name : kTable1) {
        const auto members = builder.build(benchmarks::byName(name).circuit);
        ASSERT_FALSE(members.empty());
        for (std::size_t m = 0; m < members.size(); ++m, ++seed) {
            SCOPED_TRACE(name + " member " + std::to_string(m));
            const auto tape =
                sim::ExecutionTape::build(device, members[m].physical);
            ASSERT_TRUE(tape.hasLaw());
            const std::vector<double> &cum = tape.law.cumulative();

            Rng run_rng(seed);
            Rng ref_rng(seed);
            EXPECT_EQ(exec.run(tape, kShots, run_rng).entries(),
                      binarySearchCounts(cum, tape.numClbits, kShots,
                                         ref_rng)
                          .entries());
            EXPECT_EQ(run_rng(), ref_rng());
        }
    }
}

TEST(ExactLaw, CumulativeLawBitsPinned)
{
    // Fingerprints of every member's cumulative law, bit for bit, as
    // the zero-skipping superoperator loop computed them. The values
    // are specific to the toolchain (x86-64, GCC, no FP contraction)
    // and move with a one-ulp libm change too. To recapture, build the
    // commit before the kernel change in question, print law_bits()
    // for each pin there, and paste the values here.
    struct Pin
    {
        const char *name;
        std::uint64_t undrifted;
        std::uint64_t drifted;
    };
    const Pin pins[] = {
        {"bv-6", 0xc78865d735d59838ull, 0x9f516f152a69378aull},
        {"bv-7", 0x64cced0ddc5ff7d7ull, 0x144171f6f145b173ull},
        {"qaoa-5", 0xd452092a8104f4abull, 0x660d26cf3be0b1cbull},
        {"qaoa-6", 0xd788f331b100a22bull, 0x0b3fc9628df48471ull},
        {"qaoa-7", 0xfa1105255d4680bdull, 0xaa0ec270cdcb8fccull},
        {"greycode", 0x184d51f8cb408045ull, 0x29d862f3b74254b0ull},
        {"fredkin", 0x0771e3f4603b9549ull, 0xd18d8e81c2ab6cfbull},
        {"adder", 0x8589c79bf8d00d58ull, 0x796d496781058a03ull},
        {"decode-24", 0x367e399c9fbb05fdull, 0x53654176d7bf63c2ull},
    };
    const auto law_bits = [](const hw::Device &device,
                             const circuit::Circuit &logical) {
        const core::EnsembleBuilder builder(device);
        Fingerprint fp;
        for (const auto &member : builder.build(logical)) {
            const auto tape =
                sim::ExecutionTape::build(device, member.physical);
            fp.addRange(tape.law.cumulative());
        }
        return fp.value();
    };
    const hw::Device device = hw::Device::melbourne(2);
    Rng drift_rng(5);
    const hw::Device drifted = device.driftedRound(drift_rng);
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        const circuit::Circuit logical = benchmarks::byName(pin.name).circuit;
        EXPECT_EQ(law_bits(device, logical), pin.undrifted);
        EXPECT_EQ(law_bits(drifted, logical), pin.drifted);
    }
}

// Test-local copies of how DensityMatrix builds a fused superoperator,
// and the zero-skipping term loop every pass ran before the dense
// kernel.

using Superop1q = sim::DensityMatrix::Superop1q;
using Superop2q = std::array<Complex, 256>;

Superop1q
superopOf(const sim::Kraus1q &kraus)
{
    Superop1q s{};
    for (const auto &k : kraus)
        for (int a = 0; a < 2; ++a)
            for (int b = 0; b < 2; ++b)
                for (int c = 0; c < 2; ++c)
                    for (int d = 0; d < 2; ++d)
                        s[(2 * a + b) * 4 + (2 * c + d)] +=
                            k[2 * a + c] * std::conj(k[2 * b + d]);
    return s;
}

Superop2q
fusedGate(const std::array<Complex, 16> &u, const Superop1q &p0,
          const Superop1q &p1)
{
    Superop2q g{};
    Superop2q lift{};
    for (int x = 0; x < 4; ++x)
        for (int y = 0; y < 4; ++y)
            for (int xi = 0; xi < 4; ++xi)
                for (int yi = 0; yi < 4; ++yi) {
                    const int row = 4 * x + y, col = 4 * xi + yi;
                    g[row * 16 + col] =
                        u[x * 4 + xi] * std::conj(u[y * 4 + yi]);
                    lift[row * 16 + col] =
                        p0[(2 * (x >> 1) + (y >> 1)) * 4 +
                           2 * (xi >> 1) + (yi >> 1)] *
                        p1[(2 * (x & 1) + (y & 1)) * 4 + 2 * (xi & 1) +
                           (yi & 1)];
                }
    Superop2q out{};
    for (int i = 0; i < 16; ++i)
        for (int k = 0; k < 16; ++k) {
            const Complex gik = g[i * 16 + k];
            if (gik == Complex(0.0))
                continue;
            for (int j = 0; j < 16; ++j)
                out[i * 16 + j] += gik * lift[k * 16 + j];
        }
    return out;
}

/**
 * One pass of the N^2 x N^2 superoperator @p s over every block pair
 * (r, c), r <= c, whose bases clear @p operands, through the indexed
 * zero-skipping loop (terms in column order), mirroring the adjoint.
 * Blocks are gathered at offsets @p off.
 */
template <std::size_t N>
void
zeroSkippingPass(std::vector<Complex> &rho, std::size_t dim,
                 std::size_t operands,
                 const std::array<Complex, N * N * N * N> &s,
                 const std::array<std::size_t, N> &off)
{
    constexpr std::size_t M = N * N;
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = r; c < dim; ++c) {
            if ((r | c) & operands)
                continue;
            double vr[M], vi[M], wr[M] = {}, wi[M] = {};
            for (std::size_t x = 0; x < N; ++x)
                for (std::size_t y = 0; y < N; ++y) {
                    const Complex e = rho[(r | off[x]) * dim + (c | off[y])];
                    vr[N * x + y] = e.real();
                    vi[N * x + y] = e.imag();
                }
            for (std::size_t i = 0; i < M; ++i)
                for (std::size_t o = 0; o < M; ++o) {
                    const Complex v = s[o * M + i];
                    if (v == Complex(0.0))
                        continue;
                    wr[o] += v.real() * vr[i] - v.imag() * vi[i];
                    wi[o] += v.real() * vi[i] + v.imag() * vr[i];
                }
            for (std::size_t x = 0; x < N; ++x)
                for (std::size_t y = 0; y < N; ++y) {
                    rho[(r | off[x]) * dim + (c | off[y])] =
                        Complex(wr[N * x + y], wi[N * x + y]);
                    if (c != r)
                        rho[(c | off[y]) * dim + (r | off[x])] =
                            Complex(wr[N * x + y], -wi[N * x + y]);
                }
        }
    }
}

std::vector<Complex>
snapshot(const sim::DensityMatrix &rho)
{
    std::vector<Complex> out(rho.dim() * rho.dim());
    for (std::size_t r = 0; r < rho.dim(); ++r)
        for (std::size_t c = 0; c < rho.dim(); ++c)
            out[r * rho.dim() + c] = rho.at(r, c);
    return out;
}

void
expectSameBits(const std::vector<Complex> &got,
               const std::vector<Complex> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].real()),
                  std::bit_cast<std::uint64_t>(want[i].real()))
            << "entry " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].imag()),
                  std::bit_cast<std::uint64_t>(want[i].imag()))
            << "entry " << i;
    }
}

bool
allNonzero(const auto &superop)
{
    return std::none_of(superop.begin(), superop.end(),
                        [](Complex v) { return v == Complex(0.0); });
}

TEST(ExactLaw, DenseFusedPassMatchesZeroSkipping)
{
    using circuit::OpKind;
    // Rz(phi) Ry(theta) Rz(lambda): every entry nonzero and complex.
    const auto u3 = [](double theta, double phi, double lambda) {
        const auto a = circuit::gateMatrix1q(OpKind::Rz, {phi});
        const auto b = circuit::gateMatrix1q(OpKind::Ry, {theta});
        const auto c = circuit::gateMatrix1q(OpKind::Rz, {lambda});
        std::array<Complex, 4> ab{}, abc{};
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j)
                for (int k = 0; k < 2; ++k)
                    ab[i * 2 + j] += a[i * 2 + k] * b[k * 2 + j];
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j)
                for (int k = 0; k < 2; ++k)
                    abc[i * 2 + j] += ab[i * 2 + k] * c[k * 2 + j];
        return abc;
    };
    const auto cx = circuit::gateMatrix2q(OpKind::Cx);

    // A generic mixed state on three qubits, none of them fresh.
    sim::DensityMatrix rho(3);
    rho.apply1q(u3(0.9, 0.3, -0.4), 0);
    rho.apply1q(u3(1.7, -1.1, 0.2), 1);
    rho.apply1q(u3(0.5, 2.1, 0.8), 2);
    rho.apply2q(cx, 0, 1, 0.02);
    rho.apply2q(cx, 1, 2);
    std::vector<Complex> want = snapshot(rho);

    // Pending factors on both operands make the CX pass fully dense.
    const sim::Kraus1q mixed = {
        [&] {
            auto k = u3(0.6, 0.4, 1.9);
            for (Complex &v : k)
                v *= std::sqrt(0.9);
            return k;
        }(),
        [&] {
            auto k = u3(2.3, -0.7, 0.1);
            for (Complex &v : k)
                v *= std::sqrt(0.1);
            return k;
        }()};
    const std::array<Complex, 4> on2 = u3(1.2, 0.9, -2.4);
    rho.applyKraus1q(mixed, 0);
    rho.apply1q(on2, 2);
    rho.apply2q(cx, 2, 0);
    const Superop2q g = fusedGate(cx, superopOf({on2}), superopOf(mixed));
    ASSERT_TRUE(allNonzero(g));
    zeroSkippingPass<4>(want, 8, 0b101, g, {0, 0b001, 0b100, 0b101});
    expectSameBits(snapshot(rho), want);

    // A dense pending factor flushed on its own 2x2 blocks.
    const std::array<Complex, 4> on1 = u3(0.8, -1.4, 0.6);
    rho.apply1q(on1, 1);
    const Superop1q s = superopOf({on1});
    ASSERT_TRUE(allNonzero(s));
    zeroSkippingPass<2>(want, 8, 0b010, s, {0, 0b010});
    expectSameBits(snapshot(rho), want);
}

// Each thread keeps one zeroed spare matrix buffer; a matrix refills
// its buffer with zeros and hands it back (DESIGN.md §19).

sim::ExecutionTape
firstMemberTape(const hw::Device &device, const std::string &name)
{
    const core::EnsembleBuilder builder(device);
    return sim::ExecutionTape::build(
        device,
        builder.build(benchmarks::byName(name).circuit).front().physical);
}

/** @p tape's evolved matrix on a thread that has built none before. */
std::vector<Complex>
firstUseMatrix(const sim::ExecutionTape &tape)
{
    std::vector<Complex> out;
    std::thread([&] { out = snapshot(sim::evolveDensityMatrix(tape)); })
        .join();
    return out;
}

/**
 * On the calling thread: 8 qubits, then a fully coherent 8-qubit
 * matrix dropped mid-evolution, 3 qubits, 8 again, then copies, moves
 * and assignments over both. Every matrix must equal its first-use
 * evaluation.
 */
void
reuseSequence(const sim::ExecutionTape &tape8,
              const std::vector<Complex> &want8,
              const sim::ExecutionTape &tape3,
              const std::vector<Complex> &want3)
{
    using circuit::OpKind;
    expectSameBits(snapshot(sim::evolveDensityMatrix(tape8)), want8);
    {
        // Every qubit touched and none dephased: all 4^8 entries live.
        sim::DensityMatrix dropped(8);
        for (int q = 0; q < 8; ++q)
            dropped.apply1q(circuit::gateMatrix1q(OpKind::H, {}), q);
        for (int q = 0; q + 1 < 8; ++q)
            dropped.apply2q(circuit::gateMatrix2q(OpKind::Cx), q, q + 1,
                            0.01);
        ASSERT_NE(dropped.at(0, 255), Complex(0.0));
    }
    expectSameBits(snapshot(sim::evolveDensityMatrix(tape3)), want3);
    expectSameBits(snapshot(sim::evolveDensityMatrix(tape8)), want8);

    sim::DensityMatrix a = sim::evolveDensityMatrix(tape8);
    sim::DensityMatrix b = a;
    sim::DensityMatrix c = std::move(a);
    a = b;
    b = sim::evolveDensityMatrix(tape3);
    sim::DensityMatrix d = b;
    d = std::move(c);
    expectSameBits(snapshot(a), want8);
    expectSameBits(snapshot(b), want3);
    expectSameBits(snapshot(d), want8);
    expectSameBits(snapshot(sim::evolveDensityMatrix(tape3)), want3);
}

TEST(DensityMatrixReuse, ReusedBuffersMatchFirstUse)
{
    const hw::Device device = hw::Device::melbourne(2);
    const sim::ExecutionTape tape8 = firstMemberTape(device, "bv-7");
    const sim::ExecutionTape tape3 = firstMemberTape(device, "fredkin");
    ASSERT_EQ(tape8.numLocal, 8);
    ASSERT_EQ(tape3.numLocal, 3);
    const std::vector<Complex> want8 = firstUseMatrix(tape8);
    const std::vector<Complex> want3 = firstUseMatrix(tape3);
    reuseSequence(tape8, want8, tape3, want3);
    // The same law again on a fresh thread: the spare is per thread.
    expectSameBits(firstUseMatrix(tape8), want8);
}

TEST(DensityMatrixReuse, FourThreadsAtOnce)
{
    const hw::Device device = hw::Device::melbourne(2);
    const sim::ExecutionTape tape8 = firstMemberTape(device, "bv-7");
    const sim::ExecutionTape tape3 = firstMemberTape(device, "fredkin");
    const std::vector<Complex> want8 = firstUseMatrix(tape8);
    const std::vector<Complex> want3 = firstUseMatrix(tape3);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(
            [&] { reuseSequence(tape8, want8, tape3, want3); });
    for (std::thread &t : threads)
        t.join();
}

} // namespace
} // namespace qedm
