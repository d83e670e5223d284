/**
 * @file
 * Tests for the resilience layer: deterministic fault injection,
 * retry-with-backoff, per-member deadlines, and the graceful
 * degradation policy in the EDM pipeline. The load-bearing properties
 * are (1) a seeded fault schedule replays bit-identically at any
 * --jobs value, including the fault log and DegradationReport, and
 * (2) the trial budget is preserved exactly when healthy survivors
 * absorb a failed member's share.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/edm.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "resilience/degradation.hpp"
#include "resilience/fault_injector.hpp"
#include "runtime/clock.hpp"
#include "runtime/retry.hpp"
#include "runtime/watchdog.hpp"

namespace qedm {
namespace {

using core::EdmConfig;
using core::EdmPipeline;
using core::EdmResult;
using resilience::FaultConfig;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::ResilienceConfig;

constexpr std::uint64_t kSeed = 7;

/** Run the bv-6 pipeline with @p resilience at @p jobs workers. */
EdmResult
runFaulted(const ResilienceConfig &resilience, int jobs,
           std::uint64_t total_shots = 4096,
           std::uint64_t shot_batch = 512)
{
    const hw::Device device = hw::Device::melbourne(2);
    EdmConfig config;
    config.totalShots = total_shots;
    config.shotBatch = shot_batch;
    config.jobs = jobs;
    config.resilience = resilience;
    const EdmPipeline pipeline(device, config);
    return pipeline.run(benchmarks::bv6().circuit, SeedSequence(kSeed));
}

bool
sameEvent(const resilience::FaultEvent &a,
          const resilience::FaultEvent &b)
{
    return a.kind == b.kind && a.member == b.member &&
           a.batch == b.batch && a.attempt == b.attempt;
}

void
expectSameReport(const resilience::DegradationReport &a,
                 const resilience::DegradationReport &b)
{
    EXPECT_EQ(a.trialsLost, b.trialsLost);
    EXPECT_EQ(a.trialsReassigned, b.trialsReassigned);
    EXPECT_EQ(a.retriesTotal, b.retriesTotal);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i)
        EXPECT_TRUE(sameEvent(a.faults[i], b.faults[i])) << "event " << i;
    ASSERT_EQ(a.members.size(), b.members.size());
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        EXPECT_EQ(a.members[i].member, b.members[i].member);
        EXPECT_EQ(a.members[i].cause, b.members[i].cause);
        EXPECT_EQ(a.members[i].completedShots, b.members[i].completedShots);
        EXPECT_EQ(a.members[i].plannedShots, b.members[i].plannedShots);
        EXPECT_EQ(a.members[i].kept, b.members[i].kept);
        EXPECT_EQ(a.members[i].retries, b.members[i].retries);
    }
    EXPECT_EQ(a.toString(), b.toString());
}

// ---------------------------------------------------------------------
// splitShots: remainder distribution preserves the exact budget.

TEST(SplitShotsTest, DistributesRemainderToLowestMembers)
{
    EXPECT_EQ(EdmPipeline::splitShots(10, 4),
              (std::vector<std::uint64_t>{3, 3, 2, 2}));
    EXPECT_EQ(EdmPipeline::splitShots(16, 4),
              (std::vector<std::uint64_t>{4, 4, 4, 4}));
    EXPECT_EQ(EdmPipeline::splitShots(7, 3),
              (std::vector<std::uint64_t>{3, 2, 2}));
}

TEST(SplitShotsTest, BudgetPreservedForManySizes)
{
    for (std::uint64_t total : {5u, 97u, 1024u, 16384u, 16385u}) {
        for (std::size_t members : {1u, 2u, 3u, 4u, 7u}) {
            if (total < members)
                continue;
            const auto splits = EdmPipeline::splitShots(total, members);
            const std::uint64_t sum = std::accumulate(
                splits.begin(), splits.end(), std::uint64_t{0});
            EXPECT_EQ(sum, total) << total << "/" << members;
        }
    }
}

TEST(SplitShotsTest, DegenerateCaseGivesEveryMemberOneTrial)
{
    EXPECT_EQ(EdmPipeline::splitShots(2, 4),
              (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

// ---------------------------------------------------------------------
// Retry primitive.

TEST(RetryTest, SucceedsAfterTransientFailures)
{
    runtime::RetryPolicy policy;
    policy.maxAttempts = 4;
    int calls = 0;
    const auto outcome =
        runtime::retryWithBackoff(policy, [&](int attempt) {
            EXPECT_EQ(attempt, calls);
            ++calls;
            if (attempt < 2)
                throw runtime::TransientError("flaky");
        });
    EXPECT_TRUE(outcome.succeeded);
    EXPECT_EQ(outcome.attempts, 3);
    EXPECT_EQ(outcome.retries(), 2);
    EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustionNeverThrows)
{
    runtime::RetryPolicy policy;
    policy.maxAttempts = 2;
    const auto outcome = runtime::retryWithBackoff(policy, [](int) {
        throw runtime::TransientError("always down");
    });
    EXPECT_FALSE(outcome.succeeded);
    EXPECT_EQ(outcome.attempts, 2);
    EXPECT_EQ(outcome.lastError, "always down");
}

TEST(RetryTest, PermanentErrorsPropagate)
{
    runtime::RetryPolicy policy;
    EXPECT_THROW(runtime::retryWithBackoff(
                     policy, [](int) { throw UserError("bad input"); }),
                 UserError);
}

TEST(RetryTest, BackoffScheduleIsDeterministic)
{
    runtime::RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.backoffBaseMs = 0.0; // schedule computed, never slept
    const auto outcome = runtime::retryWithBackoff(policy, [](int) {
        throw runtime::TransientError("down");
    });
    EXPECT_DOUBLE_EQ(outcome.totalBackoffMs, 0.0);
}

TEST(RetryTest, BackoffSleepsOnTheInjectedClock)
{
    // 10ms, 20ms, 40ms of backoff between four failing attempts, all
    // of it virtual: the manual clock advances, no real time passes.
    const runtime::ManualClock clock;
    runtime::RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.backoffBaseMs = 10.0;
    const auto outcome = runtime::retryWithBackoff(
        policy, [](int) { throw runtime::TransientError("down"); },
        clock, SeedSequence(0));
    EXPECT_FALSE(outcome.succeeded);
    EXPECT_DOUBLE_EQ(outcome.totalBackoffMs, 70.0);
    EXPECT_DOUBLE_EQ(clock.nowMs(), 70.0);
}

TEST(RetryTest, JitterIsAPureFunctionOfTheStream)
{
    const runtime::ManualClock clock;
    runtime::RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.backoffBaseMs = 10.0;
    policy.jitterFraction = 0.5;

    const auto run = [&](std::uint64_t seed) {
        return runtime::retryWithBackoff(
            policy,
            [](int) { throw runtime::TransientError("down"); }, clock,
            SeedSequence(seed));
    };
    const auto a = run(11);
    const auto b = run(11);
    const auto c = run(12);

    // Same stream: the same schedule, bit for bit. Different stream:
    // a different one (with overwhelming probability), but always
    // inside the +/-50% envelope of the un-jittered 150ms total.
    EXPECT_EQ(a.totalBackoffMs, b.totalBackoffMs);
    EXPECT_NE(a.totalBackoffMs, c.totalBackoffMs);
    for (const auto &o : {a, b, c}) {
        EXPECT_GE(o.totalBackoffMs, 75.0);
        EXPECT_LE(o.totalBackoffMs, 225.0);
    }
}

TEST(RetryTest, ZeroJitterDrawsNothingFromTheStream)
{
    // jitterFraction == 0 must leave legacy schedules untouched no
    // matter what stream is handed in.
    const runtime::ManualClock clock;
    runtime::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseMs = 4.0;
    const auto a = runtime::retryWithBackoff(
        policy, [](int) { throw runtime::TransientError("down"); },
        clock, SeedSequence(1));
    const auto b = runtime::retryWithBackoff(
        policy, [](int) { throw runtime::TransientError("down"); },
        clock, SeedSequence(999));
    EXPECT_DOUBLE_EQ(a.totalBackoffMs, 12.0);
    EXPECT_DOUBLE_EQ(b.totalBackoffMs, 12.0);
}

TEST(RetryTest, RejectsInvalidPolicies)
{
    const runtime::ManualClock clock;
    runtime::RetryPolicy bad;
    bad.jitterFraction = 1.5;
    EXPECT_THROW(runtime::retryWithBackoff(
                     bad, [](int) {}, clock, SeedSequence(0)),
                 Error);
}

// ---------------------------------------------------------------------
// Watchdog: wall-clock budget bookkeeping on an injectable clock.

TEST(WatchdogTest, FiresOnlyPastTheBudget)
{
    const runtime::ManualClock clock;
    const runtime::Watchdog watchdog(clock, 100.0, 2);
    EXPECT_FALSE(watchdog.expired(0));
    watchdog.charge(0, 100.0); // exactly on budget: not expired yet
    EXPECT_FALSE(watchdog.expired(0));
    watchdog.charge(0, 0.5);
    EXPECT_TRUE(watchdog.expired(0));
    EXPECT_DOUBLE_EQ(watchdog.spentMs(0), 100.5);

    // Budgets are per member: member 1 is untouched.
    EXPECT_FALSE(watchdog.expired(1));
    EXPECT_DOUBLE_EQ(watchdog.spentMs(1), 0.0);
}

TEST(WatchdogTest, ChargesAccumulate)
{
    const runtime::ManualClock clock;
    const runtime::Watchdog watchdog(clock, 50.0, 1);
    for (int i = 0; i < 5; ++i)
        watchdog.charge(0, 10.0);
    EXPECT_FALSE(watchdog.expired(0));
    watchdog.charge(0, 10.0);
    EXPECT_TRUE(watchdog.expired(0));
    EXPECT_DOUBLE_EQ(watchdog.spentMs(0), 60.0);
}

// ---------------------------------------------------------------------
// FaultInjector: decisions are pure functions of the seed tree.

TEST(FaultInjectorTest, PlansAndTransientsReplayExactly)
{
    FaultConfig faults;
    faults.dropoutProb = 0.5;
    faults.stalenessProb = 0.5;
    faults.slowProb = 0.5;
    faults.transientProb = 0.3;
    const FaultInjector a(faults, SeedSequence(11));
    const FaultInjector b(faults, SeedSequence(11));
    for (std::size_t m = 0; m < 6; ++m) {
        const auto pa = a.memberPlan(m, 1024);
        const auto pb = b.memberPlan(m, 1024);
        EXPECT_EQ(pa.dropsOut, pb.dropsOut);
        EXPECT_EQ(pa.dropoutTrial, pb.dropoutTrial);
        EXPECT_EQ(pa.stale, pb.stale);
        EXPECT_EQ(pa.staleSeed, pb.staleSeed);
        EXPECT_EQ(pa.slow, pb.slow);
        for (std::uint64_t batch = 0; batch < 4; ++batch)
            for (int attempt = 0; attempt < 3; ++attempt)
                EXPECT_EQ(a.transientFails(m, batch, attempt),
                          b.transientFails(m, batch, attempt));
    }
}

TEST(FaultInjectorTest, ForcedDropoutAlwaysFires)
{
    FaultConfig faults;
    faults.forcedDropouts = {2};
    const FaultInjector injector(faults, SeedSequence(3));
    EXPECT_TRUE(injector.memberPlan(2, 512).dropsOut);
    EXPECT_LT(injector.memberPlan(2, 512).dropoutTrial, 512u);
    EXPECT_FALSE(injector.memberPlan(0, 512).dropsOut);
    EXPECT_TRUE(faults.any());
}

TEST(FaultInjectorTest, SlowMembersStretchVirtualTime)
{
    FaultConfig faults;
    faults.slowProb = 1.0;
    faults.slowFactor = 16.0;
    faults.batchMsPerShot = 0.01;
    const FaultInjector injector(faults, SeedSequence(3));
    resilience::MemberFaultPlan slow;
    slow.slow = true;
    resilience::MemberFaultPlan healthy;
    EXPECT_DOUBLE_EQ(injector.virtualBatchMs(healthy, 100), 1.0);
    EXPECT_DOUBLE_EQ(injector.virtualBatchMs(slow, 100), 16.0);
}

TEST(FaultInjectorTest, RejectsInvalidConfig)
{
    FaultConfig faults;
    faults.dropoutProb = 1.5;
    EXPECT_THROW(FaultInjector(faults, SeedSequence(1)), UserError);
    FaultConfig slow;
    slow.slowFactor = 0.5;
    EXPECT_THROW(FaultInjector(slow, SeedSequence(1)), UserError);
}

// ---------------------------------------------------------------------
// Staleness perturbation.

TEST(StalenessTest, StaleJumpIsPessimisticAndDeterministic)
{
    const hw::Device fresh = hw::Device::melbourne(2);
    Rng a(5), b(5);
    const hw::Device stale1 = fresh.withStaleCalibration(a, 0.5);
    const hw::Device stale2 = fresh.withStaleCalibration(b, 0.5);
    EXPECT_EQ(stale1.calibration().meanCxError(),
              stale2.calibration().meanCxError());
    // One-sided: stale tables are never better than fresh ones.
    EXPECT_GE(stale1.calibration().meanCxError(),
              fresh.calibration().meanCxError());
}

// ---------------------------------------------------------------------
// Pipeline integration: determinism across jobs.

TEST(ResilientPipelineTest, FaultedRunBitIdenticalAcrossJobs)
{
    ResilienceConfig resilience;
    resilience.faults.dropoutProb = 0.4;
    resilience.faults.transientProb = 0.2;
    resilience.faults.stalenessProb = 0.3;
    resilience.retryMax = 1;

    const EdmResult sequential = runFaulted(resilience, 1);
    const EdmResult parallel = runFaulted(resilience, 4);

    ASSERT_EQ(sequential.members.size(), parallel.members.size());
    for (std::size_t m = 0; m < sequential.members.size(); ++m) {
        EXPECT_EQ(sequential.members[m].failed,
                  parallel.members[m].failed);
        EXPECT_EQ(sequential.members[m].shots,
                  parallel.members[m].shots);
        EXPECT_EQ(sequential.members[m].output.probabilities(),
                  parallel.members[m].output.probabilities())
            << "member " << m;
    }
    EXPECT_EQ(sequential.edm.probabilities(),
              parallel.edm.probabilities());
    EXPECT_EQ(sequential.wedm.probabilities(),
              parallel.wedm.probabilities());
    EXPECT_EQ(sequential.wedmWeights, parallel.wedmWeights);
    expectSameReport(sequential.degradation, parallel.degradation);
}

TEST(ResilientPipelineTest, DisabledFaultsMatchOriginalPath)
{
    // All-off resilience: nothing degrades and every member runs its
    // full share, bit-identically at any jobs.
    const EdmResult plain = runFaulted(ResilienceConfig{}, 1);
    const EdmResult threaded = runFaulted(ResilienceConfig{}, 4);
    EXPECT_FALSE(plain.degradation.degraded());
    EXPECT_TRUE(plain.degradation.faults.empty());
    EXPECT_EQ(plain.edm.probabilities(), threaded.edm.probabilities());
    for (const auto &member : plain.members) {
        EXPECT_FALSE(member.failed);
        EXPECT_EQ(member.shots, 1024u);
    }
}

// ---------------------------------------------------------------------
// Degradation policy.

TEST(ResilientPipelineTest, SurvivorsAbsorbForcedFailure)
{
    // K-1 survivors: member 1 is forced out and its partial trials are
    // dropped by a high keep floor; the other members absorb the lost
    // budget exactly.
    ResilienceConfig resilience;
    resilience.faults.forcedDropouts = {1};
    resilience.minTrialsPerMember = 5000; // > any member share

    const EdmResult result = runFaulted(resilience, 2);
    ASSERT_EQ(result.members.size(), 4u);
    EXPECT_TRUE(result.members[1].failed);
    EXPECT_EQ(result.members[1].shots, 0u);
    EXPECT_EQ(result.wedmWeights[1], 0.0);

    std::uint64_t merged = 0;
    double weight_sum = 0.0;
    for (std::size_t m = 0; m < result.members.size(); ++m) {
        if (m == 1)
            continue;
        EXPECT_FALSE(result.members[m].failed);
        merged += result.members[m].shots;
        weight_sum += result.wedmWeights[m];
    }
    // Exact budget preservation: survivors absorbed member 1's share.
    EXPECT_EQ(merged, 4096u);
    EXPECT_NEAR(weight_sum, 1.0, 1e-9);

    ASSERT_EQ(result.degradation.members.size(), 1u);
    EXPECT_EQ(result.degradation.members[0].member, 1u);
    EXPECT_EQ(result.degradation.members[0].cause,
              FaultKind::QubitDropout);
    EXPECT_FALSE(result.degradation.members[0].kept);
    EXPECT_EQ(result.degradation.trialsLost, 0u);
    EXPECT_GT(result.degradation.trialsReassigned, 0u);

    // The merged answers stay usable: IST/PST are computable from the
    // survivor-only merge.
    EXPECT_TRUE(result.edm.isNormalized());
    EXPECT_TRUE(result.wedm.isNormalized());
    EXPECT_NE(result.bestMemberByPst(benchmarks::bv6().expected), 1u);
}

TEST(ResilientPipelineTest, PartialTrialsKeptAboveFloor)
{
    ResilienceConfig resilience;
    resilience.faults.forcedDropouts = {1};
    resilience.minTrialsPerMember = 1;

    const EdmResult result = runFaulted(resilience, 1);
    ASSERT_EQ(result.members.size(), 4u);
    // The member is degraded but its completed trials merge.
    EXPECT_FALSE(result.members[1].failed);
    EXPECT_GT(result.members[1].shots, 0u);
    EXPECT_LT(result.members[1].shots, 1024u);
    EXPECT_GT(result.wedmWeights[1], 0.0);
    ASSERT_EQ(result.degradation.members.size(), 1u);
    EXPECT_TRUE(result.degradation.members[0].kept);

    // Budget preserved: kept partial + survivor absorption == total.
    std::uint64_t merged = 0;
    for (const auto &member : result.members)
        merged += member.shots;
    EXPECT_EQ(merged, 4096u);
}

TEST(ResilientPipelineTest, AllMembersFailedThrowsStructuredError)
{
    ResilienceConfig resilience;
    resilience.faults.forcedDropouts = {0, 1, 2, 3};
    resilience.minTrialsPerMember = 5000; // nothing clears the floor
    try {
        runFaulted(resilience, 1);
        FAIL() << "total ensemble loss not surfaced";
    } catch (const resilience::EnsembleFailedError &err) {
        EXPECT_EQ(err.totalMembers(), 4u);
        EXPECT_EQ(err.failedMembers(), 4u);
        EXPECT_NE(std::string(err.what()).find("no distribution"),
                  std::string::npos);
    }
}

TEST(ResilientPipelineTest, DeadlineAbandonsSlowMembers)
{
    // Every member is slow; the virtual-time deadline admits only the
    // first of its two batches, so each keeps exactly half its share
    // and there are no healthy survivors to absorb the rest.
    ResilienceConfig resilience;
    resilience.faults.slowProb = 1.0;
    resilience.faults.slowFactor = 64.0;
    resilience.faults.batchMsPerShot = 0.01;
    resilience.memberDeadlineMs = 400.0; // one 512-shot slow batch fits

    const EdmResult result = runFaulted(resilience, 2);
    ASSERT_EQ(result.members.size(), 4u);
    ASSERT_EQ(result.degradation.members.size(), 4u);
    for (const auto &deg : result.degradation.members) {
        EXPECT_EQ(deg.cause, FaultKind::DeadlineAbandoned);
        EXPECT_TRUE(deg.kept);
        EXPECT_EQ(deg.completedShots, 512u);
        EXPECT_EQ(deg.plannedShots, 1024u);
    }
    EXPECT_EQ(result.degradation.trialsLost, 4u * 512u);
    EXPECT_EQ(result.degradation.trialsReassigned, 0u);
}

TEST(ResilientPipelineTest, DeadlineAppliesWithoutFaultSources)
{
    // No fault source at all: each 512-shot batch still costs 5.12
    // virtual ms, so a 6 ms deadline admits only the first of every
    // member's two batches.
    ResilienceConfig resilience;
    resilience.memberDeadlineMs = 6.0;
    EXPECT_TRUE(resilience.active());

    const EdmResult result = runFaulted(resilience, 2);
    ASSERT_EQ(result.members.size(), 4u);
    ASSERT_EQ(result.degradation.members.size(), 4u);
    for (const auto &deg : result.degradation.members) {
        EXPECT_EQ(deg.cause, FaultKind::DeadlineAbandoned);
        EXPECT_TRUE(deg.kept);
        EXPECT_EQ(deg.completedShots, 512u);
    }
    EXPECT_EQ(result.degradation.trialsLost, 4u * 512u);
}

TEST(ResilientPipelineTest, RejectsNegativeOrNanDeadlines)
{
    const hw::Device device = hw::Device::melbourne(2);
    for (const double bad :
         {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
        EdmConfig member;
        member.resilience.memberDeadlineMs = bad;
        EXPECT_THROW(EdmPipeline(device, member), UserError);
        EdmConfig wall;
        wall.resilience.wallDeadlineMs = bad;
        EXPECT_THROW(EdmPipeline(device, wall), UserError);
    }
}

TEST(ResilientPipelineTest, RetryExhaustionAppearsInReport)
{
    ResilienceConfig resilience;
    resilience.faults.transientProb = 0.5;
    resilience.retryMax = 0; // single attempt per batch

    const EdmResult result = runFaulted(resilience, 1);
    bool saw_exhaustion = false;
    bool saw_transient = false;
    for (const auto &event : result.degradation.faults) {
        saw_exhaustion |= event.kind == FaultKind::RetryExhausted;
        saw_transient |=
            event.kind == FaultKind::TransientTrialFailure;
    }
    EXPECT_TRUE(saw_transient);
    EXPECT_TRUE(saw_exhaustion);
    ASSERT_FALSE(result.degradation.members.empty());
    bool exhausted_member = false;
    for (const auto &deg : result.degradation.members)
        exhausted_member |= deg.cause == FaultKind::RetryExhausted;
    EXPECT_TRUE(exhausted_member);
    EXPECT_TRUE(result.degradation.degraded());
}

TEST(ResilientPipelineTest, StalenessAloneLosesNoTrials)
{
    ResilienceConfig resilience;
    resilience.faults.stalenessProb = 1.0;
    resilience.faults.stalenessSeverity = 1.0;

    const EdmResult stale = runFaulted(resilience, 1);
    const EdmResult fresh = runFaulted(ResilienceConfig{}, 1);
    // No trials lost, nothing dropped — but every member executed on a
    // perturbed calibration, so the fault log records it and the
    // distributions differ from the fresh run.
    EXPECT_FALSE(stale.degradation.degraded());
    std::size_t stale_events = 0;
    for (const auto &event : stale.degradation.faults)
        stale_events +=
            event.kind == FaultKind::CalibrationStaleness ? 1 : 0;
    EXPECT_EQ(stale_events, stale.members.size());
    for (const auto &member : stale.members)
        EXPECT_EQ(member.shots, 1024u);
    EXPECT_NE(stale.edm.probabilities(), fresh.edm.probabilities());
}

TEST(ResilientPipelineTest, ExperimentThreadsReportThrough)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::ExperimentConfig config;
    config.rounds = 2;
    config.totalShots = 1024;
    config.resilience.faults.forcedDropouts = {1};
    config.resilience.minTrialsPerMember = 1;
    const auto summary = core::runExperiment(
        device, benchmarks::bv6(), config, kSeed);
    EXPECT_EQ(summary.degradedRounds, 2u);
    EXPECT_GT(summary.rounds[0].degradation.members.size(), 0u);
    EXPECT_EQ(summary.trialsLost, 0u);
    EXPECT_GT(summary.trialsReassigned, 0u);
}

// ---------------------------------------------------------------------
// Fault-aware ensemble sizing.

TEST(FaultAwareSizingTest, DropoutPredictionOverProvisionsK)
{
    // Expected dropout p = 0.25 on K = 4: the builder must provision
    // ceil(4 / 0.75) = 6 members so the expected surviving ensemble
    // still has 4.
    const hw::Device device = hw::Device::melbourne(2);
    core::EnsembleConfig config;
    config.expectedDropoutProb = 0.25;
    const core::EnsembleBuilder builder(device, config);
    const auto members = builder.build(benchmarks::bv6().circuit);
    EXPECT_EQ(members.size(), 6u);
}

TEST(FaultAwareSizingTest, PlannedDropoutsAddSlots)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EnsembleConfig config;
    config.plannedDropouts = 2;
    const core::EnsembleBuilder builder(device, config);
    const auto members = builder.build(benchmarks::bv6().circuit);
    EXPECT_EQ(members.size(), 6u); // 4 + 2 deterministic losses
}

TEST(FaultAwareSizingTest, NoFaultPlanKeepsK)
{
    const hw::Device device = hw::Device::melbourne(2);
    const core::EnsembleBuilder builder(device);
    EXPECT_EQ(builder.build(benchmarks::bv6().circuit).size(), 4u);
}

TEST(FaultAwareSizingTest, PipelineForwardsDropoutPrediction)
{
    // --faults dropout=0.25 through the pipeline: the run carries 6
    // members, so even after expected losses the surviving ensemble
    // averages K = 4. Forced --fail-member injections must NOT
    // over-provision (they exist to watch a member fail).
    ResilienceConfig predicted;
    predicted.faults.dropoutProb = 0.25;
    predicted.minTrialsPerMember = 1;
    const EdmResult result = runFaulted(predicted, 1);
    EXPECT_EQ(result.members.size(), 6u);

    ResilienceConfig forced;
    forced.faults.forcedDropouts = {1};
    forced.minTrialsPerMember = 1;
    const EdmResult forced_result = runFaulted(forced, 1);
    EXPECT_EQ(forced_result.members.size(), 4u);
}

TEST(FaultAwareSizingTest, RejectsInvalidSizingConfig)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EnsembleConfig bad_prob;
    bad_prob.expectedDropoutProb = 1.0;
    EXPECT_THROW(core::EnsembleBuilder(device, bad_prob), UserError);
    core::EnsembleConfig bad_planned;
    bad_planned.plannedDropouts = -1;
    EXPECT_THROW(core::EnsembleBuilder(device, bad_planned),
                 UserError);
}

TEST(DegradationReportTest, ToStringNamesMembersAndKinds)
{
    resilience::DegradationReport report;
    resilience::MemberDegradation deg;
    deg.member = 2;
    deg.cause = FaultKind::QubitDropout;
    deg.plannedShots = 1024;
    deg.completedShots = 300;
    deg.kept = true;
    report.members.push_back(deg);
    report.faults.push_back({FaultKind::QubitDropout, 2, 0, -1});
    report.trialsLost = 0;
    report.trialsReassigned = 724;
    const std::string text = report.toString();
    EXPECT_NE(text.find("member 2"), std::string::npos);
    EXPECT_NE(text.find("qubit-dropout"), std::string::npos);
    EXPECT_NE(text.find("300/1024"), std::string::npos);
    EXPECT_NE(text.find("kept partial"), std::string::npos);

    const resilience::DegradationReport healthy;
    EXPECT_NE(healthy.toString().find("all members healthy"),
              std::string::npos);
    EXPECT_EQ(healthy.droppedCount(), 0u);
}

} // namespace
} // namespace qedm
