#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/batched_statevector.hpp"
#include "sim/channels.hpp"
#include "sim/kernel_shapes.hpp"
#include "sim/law_sampler.hpp"
#include "sim/shot_plan.hpp"
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
 * The trajectory loops fold their per-shot outcomes into Counts a
 * chunk at a time (Counts::addShots: one counting pass or sort, one
 * linear merge); an ordered insert per shot would cost O(distinct)
 * each on a wide register.
 */
constexpr std::size_t kFoldChunk = std::size_t(1) << 14;

/**
 * The scalar trajectory loop. Every unitary factor comes
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

/**
 * One batch through the SoA engine: the tape is walked once, shared
 * unitary factors broadcast to every lane, and the pre-sampled plan
 * supplies each lane's stochastic realization (Pauli fixups, Kraus
 * uniforms, measurement/readout uniforms) in the scalar loop's draw
 * positions. Kraus (ks) and depolarizing (ds) site counters advance
 * exactly as the pre-sampler's did, pairing every site with its
 * recorded lane row.
 */
/** Per-Kraus-site chain hint for applyKraus1qLanes: when mask is
 *  nonzero, the site that follows this one in walk order starts with
 *  diag(1, d1) on that qubit bit and nothing else touches the state
 *  in between, so the closing renormalization can pre-accumulate the
 *  next site's Born probability in the same sweep. */
struct ChainHint
{
    std::size_t mask = 0;
    Complex d1{0.0, 0.0};
};

/**
 * Walk the tape in the exact runOneBatch order and record, for each
 * Kraus site, whether the next state mutation is another Kraus site
 * whose first operator is diag(1, d1) — the amplitude-damping shape.
 * Gates (and their fixups) break the chain; consecutive relaxation
 * sites, the seam from one op's post-relaxation into the next op's
 * pre-relaxation, and the measurement relaxation run all chain.
 * Hints are advisory: a wrong one costs a redundant sweep, never a
 * different bit (BatchedStateVector re-validates before consuming).
 */
std::vector<ChainHint>
buildChainHints(const ExecutionTape &tape)
{
    std::vector<ChainHint> hints;
    int prev = -1;
    const auto site = [&](const Kraus1q &kraus, int local) {
        if (prev >= 0 && kraus.size() > 1 &&
            kernels::classify1q(kraus[0]) ==
                kernels::Mat2Shape::Diagonal &&
            kraus[0][0] == kernels::kOne) {
            hints[static_cast<std::size_t>(prev)] = {
                std::size_t(1) << local, kraus[0][3]};
        }
        prev = static_cast<int>(hints.size());
        hints.emplace_back();
    };
    for (const TapeOp &op : tape.ops) {
        for (const auto &[local, kraus] : op.preRelaxation)
            site(kraus, local);
        prev = -1; // the gate and its fixups break the chain
        for (const auto &[local, kraus] : op.relaxation)
            site(kraus, local);
    }
    for (const auto &m : tape.measures)
        for (const auto &kraus : m.relaxation)
            site(kraus, m.local);
    return hints;
}

void
runOneBatch(BatchedStateVector &sv, const BatchPlan &plan,
            const hw::Calibration &cal, const ExecutionTape &tape,
            const std::vector<ChainHint> &hints,
            std::vector<Outcome> &outcomes, std::vector<std::size_t> &basis)
{
    const std::size_t lanes = plan.lanes();
    std::size_t ks = 0;
    std::size_t ds = 0;
    const auto kraus_site = [&](const Kraus1q &kraus, int local) {
        sv.applyKraus1qLanes(kraus, local, plan.krausU(ks),
                             hints[ks].mask, hints[ks].d1);
        ++ks;
    };
    for (const TapeOp &op : tape.ops) {
        for (const auto &[local, kraus] : op.preRelaxation)
            kraus_site(kraus, local);
        if (op.l1 < 0) {
            sv.apply1q(op.gate1q, op.l0);
            if (op.overRotation != 0.0)
                sv.apply1q(op.overRotationMat, op.l0);
            if (op.depolProb > 0.0)
                sv.applyPauli1qLanes(plan.pauli(ds++), op.l0);
        } else {
            sv.apply2q(op.gate2q, op.l0, op.l1);
            if (op.overRotation != 0.0)
                sv.apply1q(op.overRotationMat, op.l1);
            if (op.controlPhase != 0.0)
                sv.apply1q(op.controlPhaseMat, op.l0);
            for (const auto &[spectator, kick] : op.crosstalk)
                sv.apply1q(kick, spectator);
            if (op.depolProb > 0.0)
                sv.applyPauli2qLanes(plan.pauli(ds++), op.l0, op.l1);
        }
        for (const auto &[local, kraus] : op.relaxation)
            kraus_site(kraus, local);
    }
    for (const auto &m : tape.measures) {
        for (const auto &kraus : m.relaxation)
            kraus_site(kraus, m.local);
    }

    basis.resize(lanes);
    sv.sampleMeasurementLanes(plan.measureU(), basis.data());

    for (std::size_t l = 0; l < lanes; ++l) {
        Outcome outcome = 0;
        std::size_t rs = 0;
        for (const auto &m : tape.measures) {
            int bit = getBit(basis[l], m.local);
            const auto &qc = cal.qubit(m.phys);
            // Eligibility guarantees P01 > 0 <=> P10 > 0, so the
            // site is active independent of the measured bit.
            if (qc.readoutP01 > 0.0) {
                const double flip =
                    bit ? qc.readoutP10 : qc.readoutP01;
                if (plan.readoutU(rs)[l] < flip)
                    bit ^= 1;
                ++rs;
            }
            outcome = setBit(outcome, m.clbit, bit);
        }
        for (std::size_t p = 0; p < tape.pairReadout.size(); ++p) {
            if (plan.pairFlip(p)[l] != 0) {
                outcome = flipBit(outcome, tape.pairReadout[p].clbitA);
                outcome = flipBit(outcome, tape.pairReadout[p].clbitB);
            }
        }
        outcomes.push_back(outcome);
    }
}

stats::Counts
runShotsBatched(const hw::Calibration &cal, const ExecutionTape &tape,
                std::uint64_t shots, Rng &rng, std::size_t width)
{
    // Cap the width so both amplitude planes together stay in the
    // lower half of L1 (~16 KiB): every tape op sweeps the full
    // working set, and the pair-order replay buffer plus the plan
    // rows stream alongside it, so wider batches that push the
    // combined footprint past L1 run slower, not faster. Keep at
    // least 4 lanes (one SIMD vector) for large registers, but never
    // above ~16 MiB total.
    const std::size_t dim = std::size_t(1) << tape.numLocal;
    const std::size_t amp_bytes = dim * 2 * sizeof(double);
    const std::size_t l1_lanes = (std::size_t(16) << 10) / amp_bytes;
    const std::size_t mem_lanes = std::max<std::size_t>(
        1, (std::size_t(16) << 20) / amp_bytes);
    width = std::min(
        {width, std::max<std::size_t>(l1_lanes, 4), mem_lanes});

    stats::Counts counts(tape.numClbits);
    std::vector<Outcome> outcomes;
    BatchPlan plan;
    const std::vector<ChainHint> hints = buildChainHints(tape);
    std::vector<std::size_t> basis;
    std::unique_ptr<BatchedStateVector> full;
    std::uint64_t done = 0;
    while (done < shots) {
        const auto batch = static_cast<std::size_t>(
            std::min<std::uint64_t>(width, shots - done));
        BatchedStateVector *sv = nullptr;
        std::unique_ptr<BatchedStateVector> tail;
        if (batch == width) {
            if (full)
                full->reset();
            else
                full = std::make_unique<BatchedStateVector>(
                    tape.numLocal, width);
            sv = full.get();
        } else {
            // Non-multiple remainder: a one-off engine of exactly the
            // leftover lane count (plan rows are stride-`batch`).
            tail = std::make_unique<BatchedStateVector>(tape.numLocal,
                                                        batch);
            sv = tail.get();
        }
        plan.presample(tape, cal, batch, rng);
        runOneBatch(*sv, plan, cal, tape, hints, outcomes, basis);
        if (outcomes.size() >= kFoldChunk) {
            counts.addShots(outcomes);
            outcomes.clear();
        }
        done += batch;
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
    if (simBatch_ > 0 && batchEligible(tape, device_.calibration())) {
        return runShotsBatched(device_.calibration(), tape, shots,
                               rng, simBatch_);
    }
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
