#include "core/edm.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include <mutex>

#include "common/error.hpp"
#include "resilience/fault_injector.hpp"
#include "runtime/retry.hpp"
#include "runtime/watchdog.hpp"
#include "sim/executor.hpp"

namespace qedm::core {
namespace {

/**
 * Stream key rooting the fault-injection domain under the pipeline's
 * SeedSequence. Member execution streams use child keys 0..K-1, so
 * the fault domain sits at a large constant that can never collide
 * with a member index.
 */
constexpr std::uint64_t kStreamFaults = 0xFA171D05ull;

/**
 * Stream key under a unit's (member, batch) node for its retry-backoff
 * jitter draws. The unit's execution RNG is the node itself, so the
 * jitter domain sits one level down at a constant key.
 */
constexpr std::uint64_t kStreamRetryJitter = 0xBAC0FFull;

/** One schedulable unit: a shot batch of one member, cut short when
 *  the member's dropout lands inside it. */
struct BatchUnit
{
    std::size_t member;
    std::uint64_t batch;
    std::uint64_t shots;
};

/** What one unit produced across its retry attempts. */
struct UnitResult
{
    std::optional<stats::Counts> counts;
    int attempts = 1;
    bool exhausted = false;
    /** Abandoned by the live wall-clock watchdog (never executed). */
    bool abandoned = false;
};

/** Per-member counts + keep mask + degradation report. */
struct UnitsOutcome
{
    std::vector<stats::Counts> counts;
    std::vector<bool> kept;
    resilience::DegradationReport report;
};

/** Primary failure cause, by severity:
 *  dropout > virtual deadline > wall clock > retries. */
resilience::FaultKind
memberCause(const resilience::MemberFaultPlan &plan,
            std::uint64_t abandon_batch, std::uint64_t wall_batch)
{
    if (plan.dropsOut)
        return resilience::FaultKind::QubitDropout;
    if (abandon_batch != resilience::FaultEvent::kNoBatch)
        return resilience::FaultKind::DeadlineAbandoned;
    if (wall_batch != resilience::FaultEvent::kNoBatch)
        return resilience::FaultKind::WallClockAbandoned;
    return resilience::FaultKind::RetryExhausted;
}

/**
 * The one shot-unit runner, for ensemble members and baselines alike:
 * cut each member's share into batches, replay or execute each
 * (member, batch) unit on its own stream under @p res, journal it,
 * and fold the units back per member. Member m's units draw from
 * roots[m].child(batch) and are journaled under (stage, m, batch).
 *
 * Every *injected* fault decision is a pure function of SeedSequence
 * streams and the static batch plan (virtual-time deadlines), so a
 * run — including its fault log and degradation report — is
 * bit-identical at any --jobs value. With no fault source, deadline
 * or watchdog, every unit runs its full batch once and the report
 * stays empty.
 *
 * The wall-clock watchdog is the one deliberately nondeterministic
 * input: live fires depend on real elapsed time. Determinism is
 * restored by canonicalizing each member's fire to the *minimum*
 * abandoned batch index and excluding every contribution (counts,
 * fault events, retries) from batches at or past it — even ones that
 * happened to execute out of order — and by recording fires so a
 * replay can force the identical cut through forcedWallAbandons.
 */
UnitsOutcome
runShotUnits(const hw::Device &device, const EdmConfig &config,
             const resilience::ResilienceConfig &res,
             resilience::JournalStage stage,
             const std::vector<const circuit::Circuit *> &physical,
             const std::vector<SeedSequence> &roots,
             const SeedSequence &fault_root,
             const std::vector<std::uint64_t> &splits)
{
    const std::size_t count = physical.size();
    std::optional<runtime::JobScheduler> owned;
    const runtime::JobScheduler &scheduler =
        config.scheduler != nullptr ? *config.scheduler
                                    : owned.emplace(config.jobs);
    const sim::Executor executor(device);
    const resilience::FaultInjector injector(res.faults, fault_root);

    // Tapes are immutable and shared across all batches of a member;
    // building one is independent of the others, so members fan out
    // over the scheduler into pre-assigned slots.
    std::vector<std::shared_ptr<const sim::ExecutionTape>> tapes(count);
    scheduler.parallelFor(count, [&](std::size_t m) {
        tapes[m] = config.tapeCache != nullptr
                       ? config.tapeCache->get(device, *physical[m])
                       : std::make_shared<const sim::ExecutionTape>(
                             sim::ExecutionTape::build(device,
                                                       *physical[m]));
    });

    // Per-member fault plans. Stale members execute against their own
    // perturbed device snapshot (fresh tape, never cached).
    std::vector<resilience::MemberFaultPlan> plans(count);
    std::vector<std::optional<sim::Executor>> stale_execs(count);
    for (std::size_t m = 0; m < count; ++m) {
        plans[m] = injector.memberPlan(m, splits[m]);
        if (plans[m].stale) {
            Rng stale_rng(plans[m].staleSeed);
            const hw::Device stale = device.withStaleCalibration(
                stale_rng, res.faults.stalenessSeverity);
            tapes[m] = std::make_shared<const sim::ExecutionTape>(
                sim::ExecutionTape::build(stale, *physical[m]));
            stale_execs[m].emplace(stale);
        }
    }
    const auto executorFor = [&](std::size_t m) -> const sim::Executor & {
        return stale_execs[m] ? *stale_execs[m] : executor;
    };

    // Wall-fire bookkeeping. wall_fire[m] is the canonical cut point:
    // the minimum batch index wall-abandoned for member m. Forced
    // entries (recorded fires from a resumed or replayed journal)
    // apply at plan time; live watchdog fires are collected during
    // execution and filtered out of every merge below.
    std::vector<std::uint64_t> wall_fire(
        count, resilience::FaultEvent::kNoBatch);
    for (const resilience::WallAbandon &w : res.forcedWallAbandons) {
        QEDM_REQUIRE(w.member < count,
                     "forced wall abandon names a member outside the "
                     "ensemble");
        wall_fire[w.member] = std::min(wall_fire[w.member], w.batch);
    }
    std::optional<runtime::Watchdog> watchdog;
    if (res.wallDeadlineMs > 0.0)
        watchdog.emplace(res.effectiveClock(), res.wallDeadlineMs, count);

    // Static batch plan: deadline abandonment (cumulative virtual time
    // exceeding the member budget) and dropout truncation are decided
    // up front, so the schedule is independent of execution order.
    std::vector<BatchUnit> units;
    std::vector<std::uint64_t> next_batch(count, 0);
    std::vector<std::uint64_t> abandon_batch(
        count, resilience::FaultEvent::kNoBatch);
    for (std::size_t m = 0; m < count; ++m) {
        double virtual_ms = 0.0;
        std::uint64_t b = 0;
        for (std::uint64_t done = 0; done < splits[m];
             done += config.shotBatch, ++b) {
            const std::uint64_t batch_shots =
                std::min(config.shotBatch, splits[m] - done);
            virtual_ms += injector.virtualBatchMs(plans[m], batch_shots);
            if (res.memberDeadlineMs > 0.0 &&
                virtual_ms > res.memberDeadlineMs) {
                if (abandon_batch[m] == resilience::FaultEvent::kNoBatch)
                    abandon_batch[m] = b;
                continue;
            }
            if (b >= wall_fire[m])
                continue; // replaying a recorded wall-clock cut
            if (plans[m].dropsOut && done >= plans[m].dropoutTrial)
                continue; // batch lies entirely after the dropout
            // A batch cut at the dropout runs only the trials before
            // it: the same stream prefix the full batch would draw.
            std::uint64_t shots = batch_shots;
            if (plans[m].dropsOut &&
                done + batch_shots > plans[m].dropoutTrial)
                shots = plans[m].dropoutTrial - done;
            units.push_back(BatchUnit{m, b, shots});
        }
        next_batch[m] = b;
    }

    // Execute one wave of units; each unit owns the RNG stream keyed
    // by (member, batch) and retries within its own result slot.
    const runtime::RetryPolicy policy{res.retryMax + 1,
                                      res.backoffBaseMs, 2.0,
                                      res.backoffJitter};
    const auto batchKey = [&](const BatchUnit &unit) {
        return resilience::BatchKey{
            config.journalRound, stage,
            static_cast<std::uint32_t>(unit.member), unit.batch};
    };
    std::mutex wall_mutex;
    const auto runWave = [&](const std::vector<BatchUnit> &wave,
                             std::vector<UnitResult> &results) {
        scheduler.parallelFor(wave.size(), [&](std::size_t u) {
            const BatchUnit &unit = wave[u];
            if (config.replay != nullptr) {
                // Crash resume: completed units restore their durable
                // outcome instead of executing (no watchdog charge —
                // that wall time was spent before the crash).
                const resilience::BatchRecord *rec =
                    config.replay->findBatch(batchKey(unit));
                if (rec != nullptr) {
                    // Only exhausted retries lose a batch, and only
                    // transient faults exhaust them.
                    QEDM_REQUIRE(rec->counts.has_value() ||
                                     (rec->exhausted &&
                                      res.faults.transientProb > 0.0),
                                 "journal holds a lost batch for a run "
                                 "that cannot lose one");
                    results[u].counts = rec->counts;
                    results[u].attempts = rec->attempts;
                    results[u].exhausted = rec->exhausted;
                    return;
                }
            }
            if (watchdog && watchdog->expired(unit.member)) {
                // The member's wall budget is blown: abandon instead
                // of executing. Which batch observes the fire first is
                // racy; contributions are canonicalized to the minimum
                // abandoned batch when waves are recorded, and the
                // fire is journaled so replays can force the same cut.
                results[u].abandoned = true;
                const std::lock_guard<std::mutex> lock(wall_mutex);
                if (unit.batch < wall_fire[unit.member]) {
                    wall_fire[unit.member] = unit.batch;
                    if (config.journal != nullptr) {
                        config.journal->recordWallAbandon(
                            config.journalRound,
                            {unit.member, unit.batch});
                    }
                }
                return;
            }
            const double start_ms =
                watchdog ? watchdog->timeSource().nowMs() : 0.0;
            const SeedSequence node =
                roots[unit.member].child(unit.batch);
            const runtime::RetryOutcome attempt_log =
                runtime::retryWithBackoff(
                    policy,
                    [&](int attempt) {
                        if (injector.transientFails(unit.member,
                                                    unit.batch,
                                                    attempt)) {
                            throw runtime::TransientError(
                                "injected transient batch failure");
                        }
                        Rng unit_rng = node.rng();
                        results[u].counts =
                            executorFor(unit.member)
                                .run(*tapes[unit.member], unit.shots,
                                     unit_rng);
                    },
                    res.effectiveClock(),
                    node.child(kStreamRetryJitter));
            if (watchdog) {
                watchdog->charge(unit.member,
                                 watchdog->timeSource().nowMs() - start_ms);
            }
            results[u].attempts = attempt_log.attempts;
            results[u].exhausted = !attempt_log.succeeded;
            if (config.journal != nullptr) {
                config.journal->recordBatch(
                    batchKey(unit),
                    {results[u].attempts, results[u].exhausted,
                     results[u].counts});
            }
        });
    };

    UnitsOutcome out;
    out.counts.reserve(count);
    for (std::size_t m = 0; m < count; ++m)
        out.counts.emplace_back(tapes[m]->numClbits);
    std::vector<std::uint64_t> completed(count, 0);
    std::vector<int> retries(count, 0);
    resilience::DegradationReport &report = out.report;

    // Fold a wave back in fixed unit order: counts into the member
    // histograms, failed attempts into the deterministic fault log.
    // Units at or past a member's wall fire contribute nothing — not
    // counts, events, or retries — even when they executed before the
    // fire was observed, so the live cut matches the replayed one.
    const auto recordWave = [&](const std::vector<BatchUnit> &wave,
                                const std::vector<UnitResult> &results) {
        for (std::size_t u = 0; u < wave.size(); ++u) {
            const BatchUnit &unit = wave[u];
            const UnitResult &r = results[u];
            if (r.abandoned || unit.batch >= wall_fire[unit.member])
                continue;
            const int failed_attempts =
                r.exhausted ? r.attempts : r.attempts - 1;
            for (int a = 0; a < failed_attempts; ++a) {
                report.faults.push_back(
                    {resilience::FaultKind::TransientTrialFailure,
                     unit.member, unit.batch, a});
            }
            retries[unit.member] += r.attempts - 1;
            if (r.exhausted) {
                report.faults.push_back(
                    {resilience::FaultKind::RetryExhausted, unit.member,
                     unit.batch, r.attempts - 1});
                continue;
            }
            QEDM_ASSERT(r.counts.has_value(),
                        "successful unit produced no counts");
            completed[unit.member] += r.counts->total();
            out.counts[unit.member].merge(*r.counts);
        }
    };

    // Plan-level events first, in member order, then execution events.
    for (std::size_t m = 0; m < count; ++m) {
        if (plans[m].slow) {
            report.faults.push_back({resilience::FaultKind::SlowMember,
                                     m, resilience::FaultEvent::kNoBatch,
                                     -1});
        }
        if (plans[m].stale) {
            report.faults.push_back(
                {resilience::FaultKind::CalibrationStaleness, m,
                 resilience::FaultEvent::kNoBatch, -1});
        }
        if (plans[m].dropsOut) {
            report.faults.push_back(
                {resilience::FaultKind::QubitDropout, m,
                 plans[m].dropoutTrial / config.shotBatch, -1});
        }
        if (abandon_batch[m] != resilience::FaultEvent::kNoBatch) {
            report.faults.push_back(
                {resilience::FaultKind::DeadlineAbandoned, m,
                 abandon_batch[m], -1});
        }
    }
    std::vector<UnitResult> first(units.size());
    runWave(units, first);
    recordWave(units, first);

    // Degradation policy: a member that completed its full share is
    // healthy; anything else keeps its partial trials only above the
    // floor, and otherwise drops out of the merge entirely.
    out.kept.assign(count, false);
    std::vector<std::size_t> full;
    std::size_t failed_members = 0;
    const std::uint64_t floor =
        std::max<std::uint64_t>(res.minTrialsPerMember, 1);
    for (std::size_t m = 0; m < count; ++m) {
        if (completed[m] == splits[m]) {
            out.kept[m] = true;
            full.push_back(m);
            continue;
        }
        ++failed_members;
        out.kept[m] = completed[m] >= floor;
        resilience::MemberDegradation deg;
        deg.member = m;
        deg.cause = memberCause(plans[m], abandon_batch[m], wall_fire[m]);
        deg.plannedShots = splits[m];
        deg.completedShots = completed[m];
        deg.kept = out.kept[m];
        deg.retries = retries[m];
        report.members.push_back(deg);
    }
    if (std::none_of(out.kept.begin(), out.kept.end(),
                     [](bool k) { return k; }))
        throw resilience::EnsembleFailedError(count, failed_members);

    // Reassign the lost budget to fully-healthy survivors. The extra
    // batches continue each survivor's planned batch numbering, so the
    // reassigned streams stay a pure function of (member, batch).
    std::uint64_t budget = 0;
    for (std::uint64_t s : splits)
        budget += s;
    std::uint64_t used = 0;
    for (std::size_t m = 0; m < count; ++m) {
        if (out.kept[m])
            used += completed[m];
    }
    const std::uint64_t deficit = budget - used;
    if (deficit > 0 && !full.empty()) {
        std::vector<BatchUnit> extra;
        const std::uint64_t base = deficit / full.size();
        const std::uint64_t rem = deficit % full.size();
        for (std::size_t i = 0; i < full.size(); ++i) {
            const std::size_t m = full[i];
            const std::uint64_t share = base + (i < rem ? 1 : 0);
            for (std::uint64_t done = 0, b = next_batch[m]; done < share;
                 done += config.shotBatch, ++b) {
                const std::uint64_t batch_shots =
                    std::min(config.shotBatch, share - done);
                extra.push_back(BatchUnit{m, b, batch_shots});
            }
        }
        std::vector<UnitResult> extra_results(extra.size());
        runWave(extra, extra_results);
        recordWave(extra, extra_results);
        std::uint64_t used_after = 0;
        for (std::size_t m = 0; m < count; ++m) {
            if (out.kept[m])
                used_after += completed[m];
        }
        report.trialsReassigned = used_after - used;
        used = used_after;
    }
    report.trialsLost = budget - used;
    for (int r : retries)
        report.retriesTotal += r;
    QEDM_ASSERT(used + report.trialsLost == budget,
                "degraded reallocation lost track of the trial budget");

    // Wall-clock fires last, in member order: the canonical cut point
    // per member, identical whether the fire was live or forced.
    for (std::size_t m = 0; m < count; ++m) {
        if (wall_fire[m] != resilience::FaultEvent::kNoBatch) {
            report.faults.push_back(
                {resilience::FaultKind::WallClockAbandoned, m,
                 wall_fire[m], -1});
        }
    }
    return out;
}

} // namespace

std::size_t
EdmResult::bestMemberByPst(Outcome correct) const
{
    QEDM_REQUIRE(!members.empty(), "empty ensemble result");
    std::size_t best = 0;
    double best_pst = -1.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i].failed)
            continue;
        const double p = stats::pst(members[i].output, correct);
        if (p > best_pst) {
            best_pst = p;
            best = i;
        }
    }
    return best;
}

EdmPipeline::EdmPipeline(const hw::Device &device, EdmConfig config)
    : device_(device), config_(std::move(config))
{
    QEDM_REQUIRE(config_.totalShots > 0, "totalShots must be positive");
    QEDM_REQUIRE(config_.shotBatch > 0, "shotBatch must be positive");
    QEDM_REQUIRE(config_.resilience.retryMax >= 0,
                 "retryMax must be non-negative");
    QEDM_REQUIRE(config_.resilience.memberDeadlineMs >= 0.0,
                 "memberDeadlineMs must be non-negative");
    QEDM_REQUIRE(config_.resilience.wallDeadlineMs >= 0.0,
                 "wallDeadlineMs must be non-negative");
}

std::vector<std::uint64_t>
EdmPipeline::splitShots(std::uint64_t total, std::size_t members)
{
    QEDM_REQUIRE(members > 0, "cannot split shots over zero members");
    std::vector<std::uint64_t> splits(members, 1);
    if (total < members)
        return splits; // degenerate: every member still runs one trial
    const std::uint64_t base = total / members;
    const std::uint64_t rem = total % members;
    std::uint64_t sum = 0;
    for (std::size_t m = 0; m < members; ++m) {
        splits[m] = base + (m < rem ? 1 : 0);
        sum += splits[m];
    }
    QEDM_ASSERT(sum == total, "shot split does not preserve the budget");
    return splits;
}

EdmResult
EdmPipeline::run(const circuit::Circuit &logical, Rng &rng) const
{
    return run(logical, SeedSequence(rng()));
}

EdmResult
EdmPipeline::run(const circuit::Circuit &logical,
                 const SeedSequence &seq) const
{
    EnsembleConfig ensemble_config = config_.ensemble;
    ensemble_config.verifyPasses =
        ensemble_config.verifyPasses || config_.verifyPasses;
    // Fault-aware sizing: when the fault plan predicts probabilistic
    // dropout, tell the builder so it over-provisions K and the
    // ensemble *expected to survive* still has the configured size.
    // Deliberate --fail-member injections are NOT over-provisioned —
    // they exist to watch a member fail and the survivors absorb its
    // share; padding them away would defeat the experiment. Without
    // fault sources the config stays untouched (bit-identical).
    if (config_.resilience.faults.any())
        ensemble_config.expectedDropoutProb =
            config_.resilience.faults.dropoutProb;
    const EnsembleBuilder builder(device_, ensemble_config);
    std::vector<transpile::CompiledProgram> programs =
        builder.build(logical);
    QEDM_ASSERT(!programs.empty(), "ensemble builder returned nothing");

    const std::vector<std::uint64_t> splits =
        splitShots(config_.totalShots, programs.size());
    std::vector<const circuit::Circuit *> physical;
    std::vector<SeedSequence> roots;
    for (std::size_t m = 0; m < programs.size(); ++m) {
        physical.push_back(&programs[m].physical);
        roots.push_back(seq.child(m));
    }
    UnitsOutcome out =
        runShotUnits(device_, config_, config_.resilience,
                     resilience::JournalStage::Members, physical, roots,
                     seq.child(kStreamFaults), splits);

    EdmResult result;
    result.degradation = std::move(out.report);
    result.members.reserve(programs.size());
    for (std::size_t m = 0; m < programs.size(); ++m) {
        MemberResult member;
        if (out.kept[m]) {
            member.shots = out.counts[m].total();
            member.output = stats::Distribution::fromCounts(out.counts[m]);
        } else {
            member.failed = true;
            member.output =
                stats::Distribution::uniform(out.counts[m].width());
        }
        member.program = std::move(programs[m]);
        result.members.push_back(std::move(member));
    }

    // Uniformity guard (footnote 2): drop signal-free members. Failed
    // members are already out of the merge and are never "discarded".
    std::vector<MemberResult> kept;
    for (std::size_t i = 0; i < result.members.size(); ++i) {
        if (result.members[i].failed)
            continue;
        if (config_.uniformityGuard &&
            stats::isNearUniform(result.members[i].output,
                                 config_.uniformityMargin)) {
            result.discarded.push_back(i);
        } else {
            kept.push_back(result.members[i]);
        }
    }
    if (kept.empty()) {
        // Nothing usable: keep every surviving member.
        result.discarded.clear();
        for (const auto &member : result.members) {
            if (!member.failed)
                kept.push_back(member);
        }
    }
    QEDM_ASSERT(!kept.empty(), "no ensemble member survived to merge");

    result.edm = merge(kept, MergeRule::Uniform, config_.klSmoothing);
    result.wedm = merge(kept, MergeRule::KlWeighted, config_.klSmoothing);

    // Expose WEDM weights aligned with the full member list,
    // renormalized over the members that actually contribute.
    std::vector<stats::Distribution> kept_outputs;
    kept_outputs.reserve(kept.size());
    for (const auto &m : kept)
        kept_outputs.push_back(m.output);
    const std::vector<double> kept_weights =
        stats::wedmWeights(kept_outputs, config_.klSmoothing);
    result.wedmWeights.assign(result.members.size(), 0.0);
    std::size_t kept_idx = 0;
    for (std::size_t i = 0; i < result.members.size(); ++i) {
        if (result.members[i].failed)
            continue;
        if (std::find(result.discarded.begin(), result.discarded.end(),
                      i) == result.discarded.end()) {
            result.wedmWeights[i] = kept_weights[kept_idx++];
        }
    }
    return result;
}

stats::Distribution
EdmPipeline::runSingle(const transpile::CompiledProgram &program,
                       Rng &rng, resilience::JournalStage stage) const
{
    return runSingle(program, SeedSequence(rng()), stage);
}

stats::Distribution
EdmPipeline::runSingle(const transpile::CompiledProgram &program,
                       const SeedSequence &seq,
                       resilience::JournalStage stage) const
{
    // A baseline is one member holding the whole budget, with no
    // faults and no watchdog: only the ensemble is fault-injected.
    const UnitsOutcome out = runShotUnits(
        device_, config_, resilience::ResilienceConfig{}, stage,
        {&program.physical}, {seq}, seq.child(kStreamFaults),
        {config_.totalShots});
    return stats::Distribution::fromCounts(out.counts.front());
}

stats::Distribution
EdmPipeline::merge(const std::vector<MemberResult> &members,
                   MergeRule rule, double kl_smoothing)
{
    QEDM_REQUIRE(!members.empty(), "cannot merge an empty ensemble");
    std::vector<stats::Distribution> outputs;
    outputs.reserve(members.size());
    for (const auto &m : members)
        outputs.push_back(m.output);

    switch (rule) {
      case MergeRule::Uniform:
        return stats::mergeUniform(outputs);
      case MergeRule::KlWeighted:
        return stats::mergeWeighted(
            outputs, stats::wedmWeights(outputs, kl_smoothing));
      case MergeRule::EntropyWeighted: {
        std::vector<double> weights;
        weights.reserve(outputs.size());
        for (const auto &o : outputs)
            weights.push_back(o.entropy());
        double sum = 0.0;
        for (double w : weights)
            sum += w;
        if (sum <= 0.0)
            return stats::mergeUniform(outputs);
        return stats::mergeWeighted(outputs, weights);
      }
    }
    throw InternalError("unknown merge rule");
}

} // namespace qedm::core
