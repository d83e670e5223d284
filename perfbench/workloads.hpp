/**
 * @file
 * The benchmark's workloads: generated inputs, the experiment path each
 * one drives through qedm, and the output checks.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Inclusive reference band for one workload-level output statistic. */
struct Band
{
    double lo = 0.0;
    double hi = 0.0;

    bool contains(double v) const { return v >= lo && v <= hi; }
};

/** One experiment of a workload: a benchmark, the device it runs on and
 *  its experiment seed. */
struct Experiment
{
    qedm::benchmarks::Benchmark bench;
    qedm::hw::Device device;
    std::uint64_t seed = 0;
};

/** The generated inputs and fixed settings of one workload. */
struct Workload
{
    std::string name;
    std::vector<Experiment> experiments;
    /** Rounds, trials, K, faults and jobs shared by every experiment. */
    qedm::core::ExperimentConfig config;
    /** Record with a journal, truncate it to half, resume from it. */
    bool resume = false;
    /** Rounds per experiment in the traced run (which runs every
     *  experiment four times over), so that it stays near a minute. */
    int traceRounds = 0;
    /** Band on the geometric mean of the EDM / baseline-est IST gain. */
    Band gain;
    /** Band on the mean of the median EDM PST. */
    Band pst;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run attempted, what failed, and its metrics. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;

    /** Add @p other's counts and failures (not its metrics). */
    void absorb(RunResult other);
};

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Generate workload @p name from @p seed: benchmark circuits (including
 * the QAOA angle search) and devices. Every device noise seed and
 * experiment seed derives from @p seed. @p smoke shrinks every workload
 * to one round and a tiny trial budget. Throws std::invalid_argument
 * for an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool smoke);

/** Bit-exact digest of everything a summary reports. */
std::uint64_t digest(const qedm::core::ExperimentSummary &summary);

/** What one experiment produced along its workload's path. */
struct ExperimentRun
{
    /** The summary the workload reports (the resumed one on resume
     *  workloads). */
    qedm::core::ExperimentSummary summary;
    /** Resume workloads: the uninterrupted, journaled summary. */
    std::optional<qedm::core::ExperimentSummary> uninterrupted;
    /** Resume workloads: journal size before truncation. */
    std::uint64_t journalBytes = 0;
    /** Resume workloads, traced only: records in the full journal. */
    std::uint64_t journalRecords = 0;
    /** Resume workloads: batch records the resume restored from. */
    std::uint64_t restoredBatches = 0;
};

/**
 * Run experiment @p e of @p w at @p jobs workers. Resume workloads
 * journal into @p journal_path and delete it afterwards. A non-null
 * @p tracer gets one span per resume step.
 */
ExperimentRun runOne(const Workload &w, const Experiment &e, int jobs,
                     const std::string &journal_path,
                     Tracer *tracer = nullptr);

/** Per-experiment output checks; returns one message per failure. */
std::vector<std::string> checkExperiment(const Workload &w,
                                         const ExperimentRun &run);

/**
 * Workload-level checks of the reference bands over @p runs (one per
 * experiment, in workload order); returns one message per failure.
 */
std::vector<std::string>
checkBands(const Workload &w, const std::vector<ExperimentRun> &runs);

/** Geometric mean of the EDM / baseline-est IST gain over @p runs. */
double gainGeomean(const std::vector<ExperimentRun> &runs);

/** Mean of the median EDM PST over @p runs. */
double edmPstMean(const std::vector<ExperimentRun> &runs);

} // namespace perfbench
