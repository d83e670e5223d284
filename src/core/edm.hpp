/**
 * @file
 * The EDM / WEDM pipelines (paper Sections 5-6).
 *
 * EDM: split the shot budget evenly across the top-K mappings, run
 * each, and average the K output distributions. WEDM: same runs, but
 * merge with weights proportional to each member's cumulative
 * symmetric-KL divergence from the others (Appendix B).
 *
 * Execution goes through the qedm::runtime layer: members and fixed
 * shot batches fan out over a JobScheduler, each work unit drawing
 * from its own SeedSequence-derived RNG stream and writing into a
 * pre-assigned result slot. Outputs are therefore bit-identical for
 * any jobs value, including fully sequential execution.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/ensemble.hpp"
#include "hw/device.hpp"
#include "resilience/degradation.hpp"
#include "resilience/journal.hpp"
#include "runtime/scheduler.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "stats/distribution.hpp"
#include "stats/metrics.hpp"

namespace qedm::core {

/** How member distributions are combined. */
enum class MergeRule
{
    Uniform,         ///< plain average (EDM)
    KlWeighted,      ///< symmetric-KL diversity weights (WEDM)
    EntropyWeighted, ///< weight by member output entropy (ablation)
};

/** Pipeline configuration. */
struct EdmConfig
{
    EnsembleConfig ensemble;
    /** Total trials, split evenly across members (paper: 16384). */
    std::uint64_t totalShots = 16384;
    /** Smoothing used inside KL computations. */
    double klSmoothing = 1e-6;
    /**
     * Paper footnote 2: drop members whose output is statistically
     * indistinguishable from uniform noise before merging (unless all
     * members are, in which case everything is kept).
     */
    bool uniformityGuard = false;
    double uniformityMargin = 0.25;
    /**
     * Worker threads for the member/shot-batch fan-out: 1 = strictly
     * sequential (no threads), 0 = hardware concurrency, N = pool of
     * N. Ignored when @ref scheduler is set. Results are identical for
     * every value.
     */
    int jobs = 1;
    /**
     * External scheduler to run on instead of building one from
     * @ref jobs (not owned; must outlive the pipeline). runExperiment
     * hands each round's pipeline its own scheduler so nested
     * fan-outs share one pool.
     */
    const runtime::JobScheduler *scheduler = nullptr;
    /**
     * Execution-granularity unit: each member's shots are cut into
     * batches of this size, each batch an independent RNG stream and
     * a schedulable work unit. Part of the result's identity — the
     * same (seed, shotBatch) yields the same distributions at any
     * jobs value; changing shotBatch changes which streams are drawn.
     */
    std::uint64_t shotBatch = 2048;
    /** Optional shared tape cache (not owned; must outlive run()). */
    sim::TapeCache *tapeCache = nullptr;
    /**
     * Run the qedm::check static verifiers over every compiled
     * ensemble member before execution (ORed into
     * EnsembleConfig::verifyPasses). Always-on in debug builds;
     * opt-in via this flag or `qedm_cli --check` in release.
     */
    bool verifyPasses = check::kDefaultVerify;
    /**
     * Fault injection + graceful degradation (all-off by default).
     * Ensemble members, faulted or not, and the baselines of
     * runSingle share one shot-unit runner; all-off, it runs every
     * batch once and the degradation report stays empty. Baselines
     * always run with this all-off.
     */
    resilience::ResilienceConfig resilience;
    /**
     * Crash-safe journaling (resilience/journal.hpp). When @ref journal
     * is set, every completed work unit's outcome is written to it
     * before the run proceeds (it survives a process death; it becomes
     * durable across an OS crash at the next round commit); when
     * @ref replay is set, units found in it are restored instead of
     * executed (crash resume). Neither is owned. @ref journalRound keys this pipeline execution's records
     * inside a multi-round experiment.
     */
    resilience::Journal *journal = nullptr;
    const resilience::JournalReplay *replay = nullptr;
    std::uint32_t journalRound = 0;
};

/** One executed ensemble member. */
struct MemberResult
{
    transpile::CompiledProgram program;
    /** Trials merged into the ensemble (0 for failed members). */
    std::uint64_t shots = 0;
    stats::Distribution output{1};
    /**
     * True when the member failed mid-run and its trials were dropped
     * by the degradation policy; @ref output is then a uniform
     * placeholder and the member is excluded from every merge.
     */
    bool failed = false;
};

/** Output of one EDM pipeline execution. */
struct EdmResult
{
    std::vector<MemberResult> members;
    /** EDM merge (uniform weights) over the kept members. */
    stats::Distribution edm{1};
    /** WEDM merge (diversity weights) over the kept members. */
    stats::Distribution wedm{1};
    /** WEDM weights, parallel to members (0 for discarded/failed). */
    std::vector<double> wedmWeights;
    /** Member indices discarded by the uniformity guard. */
    std::vector<std::size_t> discarded;
    /** What the resilience layer saw (empty when faults are off). */
    resilience::DegradationReport degradation;

    /** Member with the highest observed PST for @p correct
     *  (failed members are never selected). */
    std::size_t bestMemberByPst(Outcome correct) const;
};

/** Runs the full EDM/WEDM flow against one device. */
class EdmPipeline
{
  public:
    EdmPipeline(const hw::Device &device, EdmConfig config = EdmConfig{});

    /**
     * Compile the ensemble, run each member for totalShots / K trials,
     * and build the merged distributions. Consumes exactly one draw
     * from @p rng to root the execution streams.
     */
    EdmResult run(const circuit::Circuit &logical, Rng &rng) const;

    /** Same, rooted at an explicit stream node (the parallel-safe
     *  entry point used by runExperiment). */
    EdmResult run(const circuit::Circuit &logical,
                  const SeedSequence &seq) const;

    /**
     * Run @p program for all totalShots trials (the single-mapping
     * baselines). Consumes one draw from @p rng. @p stage keys the
     * journal records of this run (the two baselines of a round must
     * not collide).
     */
    stats::Distribution
    runSingle(const transpile::CompiledProgram &program, Rng &rng,
              resilience::JournalStage stage =
                  resilience::JournalStage::BaselineEst) const;

    /** Same, rooted at an explicit stream node. */
    stats::Distribution
    runSingle(const transpile::CompiledProgram &program,
              const SeedSequence &seq,
              resilience::JournalStage stage =
                  resilience::JournalStage::BaselineEst) const;

    /** Merge explicitly with a chosen rule (ablation hook). */
    static stats::Distribution
    merge(const std::vector<MemberResult> &members, MergeRule rule,
          double kl_smoothing = 1e-6);

    /**
     * Split @p total trials across @p members: every member gets the
     * floor share and the remainder goes to the lowest-indexed members
     * one trial each, so the budget is preserved exactly. Degenerate
     * case total < members: every member still gets one trial (the
     * historical minimum-viable-ensemble behaviour).
     */
    static std::vector<std::uint64_t> splitShots(std::uint64_t total,
                                                 std::size_t members);

    const hw::Device &device() const { return device_; }
    const EdmConfig &config() const { return config_; }

  private:
    const hw::Device &device_;
    EdmConfig config_;
};

} // namespace qedm::core
