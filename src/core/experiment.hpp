/**
 * @file
 * Experiment driver reproducing the paper's methodology (Section 4.2):
 * run baseline and proposed policies back-to-back within each round,
 * repeat over rounds with drifted calibration, and report the median
 * round.
 *
 * Policies evaluated per round:
 *  - baseline-est:  all trials on the single best compile-time mapping
 *                   (highest ESP) — the variation-aware baseline;
 *  - baseline-post: all trials on the mapping that turned out to have
 *                   the highest PST at runtime (oracle baseline of
 *                   Fig. 7);
 *  - EDM:           uniform merge of the top-K ensemble;
 *  - WEDM:          diversity-weighted merge of the same runs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "check/check.hpp"
#include "core/edm.hpp"
#include "hw/device.hpp"

namespace qedm::core {

/** IST/PST pair for one policy in one round. */
struct PolicyOutcome
{
    double ist = 0.0;
    double pst = 0.0;
};

/** All policies for one round. */
struct RoundOutcome
{
    PolicyOutcome baselineEst;
    PolicyOutcome baselinePost;
    PolicyOutcome edm;
    PolicyOutcome wedm;
    /** Resilience account for this round (empty when faults are off). */
    resilience::DegradationReport degradation;
};

/** Aggregate over rounds (medians, as in the paper). */
struct ExperimentSummary
{
    std::string benchmark;
    std::vector<RoundOutcome> rounds;
    RoundOutcome median;
    /** Rounds in which at least one member degraded. */
    std::size_t degradedRounds = 0;
    /** Trials lost to faults across all rounds (not recovered). */
    std::uint64_t trialsLost = 0;
    /** Trials reassigned to healthy members across all rounds. */
    std::uint64_t trialsReassigned = 0;
    /** Retries consumed across all rounds. */
    int retriesTotal = 0;

    /** IST improvement ratios over baseline-est. */
    double edmIstGain() const;
    double wedmIstGain() const;
};

/** Experiment configuration. */
struct ExperimentConfig
{
    int rounds = 10;
    std::uint64_t totalShots = 16384;
    int ensembleSize = 4;
    /** Calibration drift between rounds (0 = frozen machine). */
    double calibrationDrift = 0.10;
    bool uniformityGuard = false;
    /**
     * Worker threads shared by the round fan-out and each round's
     * nested member/shot-batch fan-out: 1 = sequential, 0 = hardware
     * concurrency, N = pool of N. Summaries are bit-identical for
     * every value (see runtime/scheduler.hpp).
     */
    int jobs = 1;
    /**
     * Ignored: nothing in the pipeline reads it. Kept only because
     * perfbench/trace.cpp still passes it to Executor::setSimBatch;
     * it goes when that call does.
     */
    std::size_t simBatch = 0;
    /**
     * Run the qedm::check static verifiers over every compiled
     * program of every round (forwarded to EdmConfig::verifyPasses).
     * Always-on in debug builds; opt-in in release.
     */
    bool verifyPasses = check::kDefaultVerify;
    /**
     * Fault injection + graceful degradation, forwarded to every
     * round's EdmConfig. Rounds share one fault model but draw their
     * fault decisions from independent per-round streams.
     */
    resilience::ResilienceConfig resilience;
    /**
     * Allowed-region mask forwarded to EnsembleConfig::region: the
     * physical qubits every round's placements, SWAPs, and
     * measurements are confined to. Empty means the whole device.
     */
    std::vector<int> region;
    /**
     * Crash-safe journal to record into (resilience/journal.hpp).
     * Every completed work unit and every committed round is written
     * before execution proceeds, so it survives a process death; each
     * round commit fsyncs the file, so committed rounds also survive
     * an OS crash. Not owned.
     */
    resilience::Journal *journal = nullptr;
    /**
     * Parsed journal to resume from: committed rounds are restored
     * without recompiling or re-executing, completed batches restore
     * their recorded outcome, and recorded wall-clock fires are forced
     * so the resumed summary is bit-identical to an uninterrupted run.
     * Not owned. The caller must have validated the fingerprint
     * (runExperiment re-validates).
     */
    const resilience::JournalReplay *replay = nullptr;
    /**
     * Replay-faults mode: ignore the journal's batch and round records
     * and re-execute everything, but force its recorded wall-clock
     * abandonments and disable the live watchdog — a watchdog-hit run
     * then reproduces bit-identically at any jobs value.
     */
    bool replayFaultsOnly = false;
};

/**
 * Identity triple binding a journal to one experiment invocation:
 * everything that shapes the summary (benchmark, rounds, budgets,
 * fault model, region, device calibration epoch, seed) and nothing
 * operational (jobs, wall deadline, backoff pacing) — a journal
 * recorded at --jobs 8 resumes at --jobs 1 and vice versa.
 */
resilience::JournalFingerprint
experimentFingerprint(const hw::Device &device,
                      const benchmarks::Benchmark &benchmark,
                      const ExperimentConfig &config, std::uint64_t seed);

/**
 * Run the full EDM experiment for one benchmark on @p device.
 * @param seed drives shot noise and calibration drift.
 */
ExperimentSummary runExperiment(const hw::Device &device,
                                const benchmarks::Benchmark &benchmark,
                                const ExperimentConfig &config,
                                std::uint64_t seed);

} // namespace qedm::core
