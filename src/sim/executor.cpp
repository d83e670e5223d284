#include "sim/executor.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/channels.hpp"
#include "sim/law_sampler.hpp"
#include "sim/statevector.hpp"

namespace qedm::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::OpKind;

Executor::Executor(hw::Device device) : device_(std::move(device)) {}

stats::Counts
Executor::run(const Circuit &physical, std::uint64_t shots,
              Rng &rng) const
{
    return run(ExecutionTape::build(device_, physical), shots, rng);
}

namespace {

/**
 * The trajectory loop folds its per-shot outcomes into Counts a
 * chunk at a time (Counts::addShots: one counting pass or sort, one
 * linear merge); an ordered insert per shot would cost O(distinct)
 * each on a wide register.
 */
constexpr std::size_t kFoldChunk = std::size_t(1) << 14;

/**
 * The trajectory loop, one shot at a time. Every unitary factor comes
 * pre-materialized from the tape: the shot loop applies stored
 * matrices (with the StateVector's structured-matrix fast paths) and
 * never re-derives a gate matrix.
 */
stats::Counts
runShots(const hw::Calibration &cal, const ExecutionTape &tape,
         std::uint64_t shots, Rng &rng)
{
    stats::Counts counts(tape.numClbits);
    std::vector<Outcome> outcomes;
    outcomes.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(shots, kFoldChunk)));
    StateVector sv(tape.numLocal);

    // Deterministic fast path: with no per-shot randomness before
    // readout, evolve once and only sample measurement + readout noise.
    const bool deterministic = !tape.stochastic;

    auto applyTrajectoryNoise = [&](StateVector &state) {
        for (const TapeOp &op : tape.ops) {
            for (const auto &[local, kraus] : op.preRelaxation)
                state.applyKraus1q(kraus, local, rng);
            if (op.l1 < 0) {
                state.apply1q(op.gate1q, op.l0);
                if (op.overRotation != 0.0)
                    state.apply1q(op.overRotationMat, op.l0);
                if (op.depolProb > 0.0 &&
                    rng.bernoulli(op.depolProb)) {
                    // Uniform X/Y/Z error.
                    state.apply1q(
                        pauliMatrix1q(
                            static_cast<int>(rng.uniformInt(3))),
                        op.l0);
                }
            } else {
                state.apply2q(op.gate2q, op.l0, op.l1);
                if (op.overRotation != 0.0)
                    state.apply1q(op.overRotationMat, op.l1);
                if (op.controlPhase != 0.0)
                    state.apply1q(op.controlPhaseMat, op.l0);
                for (const auto &[spectator, kick] : op.crosstalk)
                    state.apply1q(kick, spectator);
                if (op.depolProb > 0.0 &&
                    rng.bernoulli(op.depolProb)) {
                    const auto &[pa, pb] = twoQubitPauliRef(
                        static_cast<int>(rng.uniformInt(15)));
                    state.apply1q(pa, op.l0);
                    state.apply1q(pb, op.l1);
                }
            }
            for (const auto &[local, kraus] : op.relaxation)
                state.applyKraus1q(kraus, local, rng);
        }
        // Decoherence during the measurement window.
        for (const auto &m : tape.measures) {
            for (const auto &kraus : m.relaxation)
                state.applyKraus1q(kraus, m.local, rng);
        }
    };

    // On the deterministic path the Born distribution is fixed across
    // shots: sample it like an exact law, one guided draw per shot
    // instead of an O(2^n) scan.
    LawSampler born;
    if (deterministic) {
        applyTrajectoryNoise(sv); // no randomness is consumed
        born = LawSampler(sv.cumulativeProbabilities());
    }

    for (std::uint64_t shot = 0; shot < shots; ++shot) {
        std::size_t basis;
        if (deterministic) {
            basis = born.sample(rng);
        } else {
            sv.reset();
            applyTrajectoryNoise(sv);
            basis = sv.sampleMeasurement(rng);
        }

        Outcome outcome = 0;
        for (const auto &m : tape.measures) {
            int bit = getBit(basis, m.local);
            const auto &qc = cal.qubit(m.phys);
            const double flip = bit ? qc.readoutP10 : qc.readoutP01;
            if (flip > 0.0 && rng.bernoulli(flip))
                bit ^= 1;
            outcome = setBit(outcome, m.clbit, bit);
        }
        for (const auto &pr : tape.pairReadout) {
            if (rng.bernoulli(pr.jointFlipProb)) {
                outcome = flipBit(outcome, pr.clbitA);
                outcome = flipBit(outcome, pr.clbitB);
            }
        }
        outcomes.push_back(outcome);
        if (outcomes.size() == kFoldChunk) {
            counts.addShots(outcomes);
            outcomes.clear();
        }
    }
    counts.addShots(outcomes);
    return counts;
}

/** Exact-law sampling: one uniform per trial, one guided draw from
 *  the tape's law, so a run of L trials draws exactly the first L
 *  uniforms of any longer run on the same stream. */
stats::Counts
sampleLaw(const ExecutionTape &tape, std::uint64_t shots, Rng &rng)
{
    std::vector<std::uint64_t> tally(tape.law.size(), 0);
    for (std::uint64_t trial = 0; trial < shots; ++trial)
        ++tally[tape.law.sample(rng)];
    stats::Counts counts(tape.numClbits);
    for (std::size_t o = 0; o < tally.size(); ++o) {
        if (tally[o] > 0)
            counts.add(static_cast<Outcome>(o), tally[o]);
    }
    return counts;
}

} // namespace

stats::Counts
Executor::run(const ExecutionTape &tape, std::uint64_t shots,
              Rng &rng) const
{
    QEDM_REQUIRE(shots > 0, "shots must be positive");
    if (tape.hasLaw())
        return sampleLaw(tape, shots, rng);
    return runTrajectories(tape, shots, rng);
}

stats::Counts
Executor::runTrajectories(const ExecutionTape &tape, std::uint64_t shots,
                          Rng &rng) const
{
    QEDM_REQUIRE(shots > 0, "shots must be positive");
    return runShots(device_.calibration(), tape, shots, rng);
}

stats::Distribution
Executor::exactDistribution(const Circuit &physical) const
{
    return exactDistribution(ExecutionTape::build(device_, physical));
}

stats::Distribution
Executor::exactDistribution(const ExecutionTape &tape) const
{
    if (!tape.hasLaw())
        return exactLaw(tape, device_.calibration());
    const std::vector<double> &cum = tape.law.cumulative();
    std::vector<double> probs(cum.size());
    double prev = 0.0;
    for (std::size_t o = 0; o < probs.size(); ++o) {
        probs[o] = cum[o] - prev;
        prev = cum[o];
    }
    stats::Distribution dist =
        stats::Distribution::fromProbabilities(std::move(probs));
    dist.normalize();
    return dist;
}

stats::Distribution
idealDistribution(const Circuit &logical)
{
    const Circuit flat = logical.decomposed();
    QEDM_REQUIRE(flat.numQubits() <= 24, "circuit too large");

    StateVector sv(flat.numQubits());
    std::vector<std::pair<int, int>> measures; // (qubit, clbit)
    std::vector<bool> measured(flat.numQubits(), false);
    for (const Gate &g : flat.gates()) {
        if (g.kind == OpKind::Barrier)
            continue;
        for (int q : g.qubits)
            QEDM_REQUIRE(!measured[q],
                         "gate after measurement is not supported");
        if (g.kind == OpKind::Measure) {
            measured[g.qubits[0]] = true;
            measures.emplace_back(g.qubits[0], g.clbit);
            continue;
        }
        sv.applyGate(g.kind, g.qubits, g.params);
    }
    QEDM_REQUIRE(!measures.empty(),
                 "circuit must measure at least one qubit");

    stats::Distribution dist(flat.numClbits());
    const std::vector<double> probs = sv.probabilities();
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        Outcome outcome = 0;
        for (const auto &[q, c] : measures)
            outcome = setBit(outcome, c, getBit(basis, q));
        dist.addProb(outcome, probs[basis]);
    }
    dist.normalize();
    return dist;
}

} // namespace qedm::sim
