#include "core/experiment.hpp"

#include <optional>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "runtime/scheduler.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/compile_cache.hpp"

namespace qedm::core {
namespace {

PolicyOutcome
score(const stats::Distribution &dist, Outcome correct)
{
    return PolicyOutcome{stats::ist(dist, correct),
                         stats::pst(dist, correct)};
}

/** Median of one policy field across rounds. */
PolicyOutcome
medianPolicy(const std::vector<RoundOutcome> &rounds,
             PolicyOutcome RoundOutcome::*field)
{
    std::vector<double> ists, psts;
    ists.reserve(rounds.size());
    psts.reserve(rounds.size());
    for (const auto &r : rounds) {
        ists.push_back((r.*field).ist);
        psts.push_back((r.*field).pst);
    }
    return PolicyOutcome{stats::median(ists), stats::median(psts)};
}

// Per-round RNG stream layout under root.child(round): the four
// stochastic stages of a round each own a fixed subdomain key, so no
// stage's consumption can perturb another's stream (and rounds can run
// concurrently without sharing generator state).
constexpr std::uint64_t kStreamDrift = 0;
constexpr std::uint64_t kStreamPipeline = 1;
constexpr std::uint64_t kStreamBaselineEst = 2;
constexpr std::uint64_t kStreamBaselinePost = 3;

/** Pack a round's four policy outcomes into a journal RoundRecord. */
resilience::RoundRecord
packRound(const RoundOutcome &out)
{
    resilience::RoundRecord rec;
    rec.policy = {out.baselineEst.ist, out.baselineEst.pst,
                  out.baselinePost.ist, out.baselinePost.pst,
                  out.edm.ist,          out.edm.pst,
                  out.wedm.ist,         out.wedm.pst};
    rec.degradation = out.degradation;
    return rec;
}

/** Restore a committed round from its journal record, bit-exactly. */
RoundOutcome
unpackRound(const resilience::RoundRecord &rec)
{
    RoundOutcome out;
    out.baselineEst = {rec.policy[0], rec.policy[1]};
    out.baselinePost = {rec.policy[2], rec.policy[3]};
    out.edm = {rec.policy[4], rec.policy[5]};
    out.wedm = {rec.policy[6], rec.policy[7]};
    out.degradation = rec.degradation;
    return out;
}

} // namespace

resilience::JournalFingerprint
experimentFingerprint(const hw::Device &device,
                      const benchmarks::Benchmark &benchmark,
                      const ExperimentConfig &config, std::uint64_t seed)
{
    // Everything that shapes the summary goes in — including the
    // shot sampler's stream contract, so a journal recorded by another
    // sampler is refused rather than mixed into this run; operational
    // knobs (jobs, simBatch, wallDeadlineMs, backoff pacing)
    // deliberately stay out so a journal can be resumed under
    // different machine conditions.
    Fingerprint fp(0x4a4f55524e414cull); // "JOURNAL"
    fp.add(sim::kSamplerVersion);
    fp.add(std::string_view(benchmark.name));
    fp.add(config.rounds);
    fp.add(config.totalShots);
    fp.add(config.ensembleSize);
    fp.add(config.calibrationDrift);
    fp.add(config.uniformityGuard);
    const resilience::FaultConfig &faults = config.resilience.faults;
    fp.add(faults.dropoutProb);
    fp.add(faults.stalenessProb);
    fp.add(faults.stalenessSeverity);
    fp.add(faults.transientProb);
    fp.add(faults.slowProb);
    fp.add(faults.slowFactor);
    fp.add(faults.batchMsPerShot);
    fp.addRange(faults.forcedDropouts);
    fp.add(config.resilience.retryMax);
    fp.add(config.resilience.memberDeadlineMs);
    fp.add(config.resilience.minTrialsPerMember);
    fp.addRange(config.region);

    resilience::JournalFingerprint id;
    id.config = fp.value();
    id.device = device.fingerprint();
    id.seedRoot = seed;
    return id;
}

double
ExperimentSummary::edmIstGain() const
{
    QEDM_REQUIRE(median.baselineEst.ist > 0.0,
                 "baseline IST is zero; gain undefined");
    return median.edm.ist / median.baselineEst.ist;
}

double
ExperimentSummary::wedmIstGain() const
{
    QEDM_REQUIRE(median.baselineEst.ist > 0.0,
                 "baseline IST is zero; gain undefined");
    return median.wedm.ist / median.baselineEst.ist;
}

ExperimentSummary
runExperiment(const hw::Device &device,
              const benchmarks::Benchmark &benchmark,
              const ExperimentConfig &config, std::uint64_t seed)
{
    QEDM_REQUIRE(config.rounds >= 1, "need at least one round");
    if (config.replay != nullptr) {
        config.replay->requireMatches(
            experimentFingerprint(device, benchmark, config, seed));
    }
    const SeedSequence root(seed);

    // One pool serves both the round fan-out and the nested
    // member/shot-batch fan-outs; caches are shared so baselines reuse
    // the ensemble's tapes and undrifted rounds reuse compilations
    // (drift changes the device fingerprint, invalidating both).
    const runtime::JobScheduler scheduler(config.jobs);
    transpile::CompileCache compile_cache;
    sim::TapeCache tape_cache;

    EdmConfig edm_config;
    edm_config.ensemble.size = config.ensembleSize;
    edm_config.ensemble.compileCache = &compile_cache;
    edm_config.ensemble.region = config.region;
    edm_config.totalShots = config.totalShots;
    edm_config.uniformityGuard = config.uniformityGuard;
    edm_config.simBatch = config.simBatch;
    edm_config.verifyPasses = config.verifyPasses;
    edm_config.scheduler = &scheduler;
    edm_config.tapeCache = &tape_cache;
    edm_config.resilience = config.resilience;

    ExperimentSummary summary;
    summary.benchmark = benchmark.name;
    summary.rounds.resize(static_cast<std::size_t>(config.rounds));

    const Outcome correct = benchmark.expected;
    scheduler.parallelFor(
        static_cast<std::size_t>(config.rounds), [&](std::size_t round) {
            // Committed rounds restore from the journal without
            // compiling or executing anything (the round record is the
            // commit point; its policy doubles are stored bit-exactly).
            if (config.replay != nullptr && !config.replayFaultsOnly) {
                const resilience::RoundRecord *rec =
                    config.replay->findRound(
                        static_cast<std::uint32_t>(round));
                if (rec != nullptr) {
                    summary.rounds[round] = unpackRound(*rec);
                    return;
                }
            }

            EdmConfig round_config = edm_config;
            round_config.journalRound =
                static_cast<std::uint32_t>(round);
            round_config.journal = config.journal;
            if (config.replay != nullptr) {
                // Recorded wall-clock fires become forced faults so
                // the resumed or replayed round makes the same cut the
                // live watchdog made.
                round_config.resilience.forcedWallAbandons =
                    config.replay->wallAbandons(
                        static_cast<std::uint32_t>(round));
                if (config.replayFaultsOnly) {
                    // Re-execute everything; the only journal input is
                    // the forced fires, and the live watchdog is off
                    // so no *new* nondeterminism can creep in.
                    round_config.resilience.wallDeadlineMs = 0.0;
                } else {
                    round_config.replay = config.replay;
                }
            }

            const SeedSequence seq =
                root.child(static_cast<std::uint64_t>(round));

            std::optional<hw::Device> drifted;
            if (round != 0) {
                Rng drift_rng = seq.child(kStreamDrift).rng();
                drifted = device.driftedRound(drift_rng,
                                              config.calibrationDrift);
            }
            const hw::Device &round_device =
                drifted ? *drifted : device;
            const EdmPipeline pipeline(round_device, round_config);

            const EdmResult result = pipeline.run(
                benchmark.circuit, seq.child(kStreamPipeline));

            RoundOutcome out;
            out.degradation = result.degradation;
            out.edm = score(result.edm, correct);
            out.wedm = score(result.wedm, correct);

            // Baseline-est: all trials on the compile-time best
            // mapping (ensemble member 0 by construction).
            out.baselineEst = score(
                pipeline.runSingle(result.members.front().program,
                                   seq.child(kStreamBaselineEst),
                                   resilience::JournalStage::BaselineEst),
                correct);

            // Baseline-post: all trials on the member that showed the
            // best PST at runtime.
            const std::size_t best = result.bestMemberByPst(correct);
            if (best == 0) {
                out.baselinePost = out.baselineEst;
            } else {
                out.baselinePost = score(
                    pipeline.runSingle(
                        result.members[best].program,
                        seq.child(kStreamBaselinePost),
                        resilience::JournalStage::BaselinePost),
                    correct);
            }
            summary.rounds[round] = out;

            // Commit the round: after this record lands, a resumed run
            // restores the round wholesale and never recompiles it.
            // recordRound fsyncs, so the commit (and every record
            // before it) also survives an OS crash.
            if (config.journal != nullptr) {
                config.journal->recordRound(
                    static_cast<std::uint32_t>(round), packRound(out));
            }
        });

    summary.median.baselineEst =
        medianPolicy(summary.rounds, &RoundOutcome::baselineEst);
    summary.median.baselinePost =
        medianPolicy(summary.rounds, &RoundOutcome::baselinePost);
    summary.median.edm = medianPolicy(summary.rounds, &RoundOutcome::edm);
    summary.median.wedm =
        medianPolicy(summary.rounds, &RoundOutcome::wedm);

    // Roll the per-round resilience accounts up into the summary.
    for (const auto &round : summary.rounds) {
        if (round.degradation.degraded())
            ++summary.degradedRounds;
        summary.trialsLost += round.degradation.trialsLost;
        summary.trialsReassigned += round.degradation.trialsReassigned;
        summary.retriesTotal += round.degradation.retriesTotal;
    }
    return summary;
}

} // namespace qedm::core
