/**
 * @file
 * Tests for the qedm::runtime execution layer: ThreadPool mechanics,
 * JobScheduler policy, SeedSequence stream derivation, cache behavior,
 * and the headline determinism contract — pipeline and experiment
 * outputs are byte-identical at any --jobs value.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/edm.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/execution_tape.hpp"
#include "transpile/compile_cache.hpp"

namespace {

using namespace qedm;

TEST(ThreadPool, ConstructAndShutdownIdle)
{
    runtime::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    // Destructor joins without any work submitted.
}

TEST(ThreadPool, SubmitRunsTask)
{
    runtime::ThreadPool pool(2);
    std::atomic<int> hits{0};
    auto f1 = pool.submit([&] { hits.fetch_add(1); });
    auto f2 = pool.submit([&] { hits.fetch_add(1); });
    f1.wait();
    f2.wait();
    EXPECT_EQ(hits.load(), 2);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    std::atomic<int> hits{0};
    {
        runtime::ThreadPool pool(1);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { hits.fetch_add(1); });
    }
    EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    runtime::ThreadPool pool(4);
    std::vector<std::atomic<int>> seen(257);
    pool.parallelFor(seen.size(), [&](std::size_t i) {
        seen[i].fetch_add(1);
    });
    for (const auto &s : seen)
        EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    runtime::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // Pool is still usable after a failed loop.
    std::atomic<int> hits{0};
    pool.parallelFor(8, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 8);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    runtime::ThreadPool pool(2);
    std::atomic<int> hits{0};
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) { hits.fetch_add(1); });
    });
    EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, RejectsNonPositiveThreadCount)
{
    EXPECT_THROW(runtime::ThreadPool(0), Error);
}

TEST(JobScheduler, SequentialModeHasNoPool)
{
    runtime::JobScheduler seq(1);
    EXPECT_FALSE(seq.parallel());
    EXPECT_EQ(seq.jobs(), 1);
    std::vector<int> order;
    seq.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(JobScheduler, AutoResolvesHardwareConcurrency)
{
    runtime::JobScheduler any(0);
    EXPECT_GE(any.jobs(), 1);
}

TEST(JobScheduler, CopiesShareThePool)
{
    runtime::JobScheduler a(4);
    runtime::JobScheduler b = a; // NOLINT: copy intended
    EXPECT_TRUE(b.parallel());
    std::atomic<int> hits{0};
    b.parallelFor(16, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 16);
}

TEST(SeedSequence, ChildIsPureAndOrderIndependent)
{
    const SeedSequence root(42);
    const std::uint64_t ab = root.child(1).child(2).state();
    // Deriving unrelated children in between changes nothing.
    (void)root.child(7);
    (void)root.child(2).child(1);
    EXPECT_EQ(root.child(1).child(2).state(), ab);
    EXPECT_NE(root.child(2).child(1).state(), ab);
}

TEST(SeedSequence, SiblingStreamsDiffer)
{
    const SeedSequence root(7);
    std::set<std::uint64_t> states;
    for (std::uint64_t k = 0; k < 64; ++k)
        states.insert(root.child(k).state());
    EXPECT_EQ(states.size(), 64u);
    // Including from the root itself and from a different seed.
    EXPECT_NE(root.child(0).state(), root.state());
    EXPECT_NE(SeedSequence(8).state(), root.state());
}

TEST(SeedSequence, RngIsDeterministic)
{
    const SeedSequence node = SeedSequence(3).child(5);
    Rng a = node.rng();
    Rng b = node.rng();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a(), b());
}

TEST(TapeCache, HitsOnRepeatMissesOnDrift)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(benchmarks::bv6().circuit);

    sim::TapeCache cache;
    const auto t1 = cache.get(device, program.physical);
    const auto t2 = cache.get(device, program.physical);
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    Rng rng(9);
    const hw::Device drifted = device.driftedRound(rng, 0.2);
    EXPECT_NE(device.fingerprint(), drifted.fingerprint());
    const auto t3 = cache.get(drifted, program.physical);
    EXPECT_NE(t1.get(), t3.get());
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(CompileCache, HitsOnRepeatMissesOnDrift)
{
    const hw::Device device = hw::Device::melbourne(2);
    const auto logical = benchmarks::bv6().circuit;
    const transpile::Transpiler compiler(device);

    transpile::CompileCache cache;
    const auto p1 = cache.getOrCompile(compiler, logical);
    const auto p2 = cache.getOrCompile(compiler, logical);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(cache.hits(), 1u);

    Rng rng(9);
    const hw::Device drifted = device.driftedRound(rng, 0.2);
    const transpile::Transpiler drifted_compiler(drifted);
    const auto p3 = cache.getOrCompile(drifted_compiler, logical);
    EXPECT_NE(p1.get(), p3.get());
    EXPECT_EQ(cache.misses(), 2u);
}

core::EdmResult
runPipelineAtJobs(int jobs)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EdmConfig config;
    config.totalShots = 4096;
    config.shotBatch = 512;
    config.jobs = jobs;
    const core::EdmPipeline pipeline(device, config);
    Rng rng(11);
    return pipeline.run(benchmarks::bv6().circuit, rng);
}

TEST(RuntimeDeterminism, PipelineIdenticalAcrossJobs)
{
    const core::EdmResult seq = runPipelineAtJobs(1);
    const core::EdmResult par = runPipelineAtJobs(8);

    ASSERT_EQ(seq.members.size(), par.members.size());
    for (std::size_t i = 0; i < seq.members.size(); ++i) {
        EXPECT_EQ(seq.members[i].shots, par.members[i].shots);
        EXPECT_EQ(seq.members[i].output.probabilities(),
                  par.members[i].output.probabilities());
    }
    EXPECT_EQ(seq.edm.probabilities(), par.edm.probabilities());
    EXPECT_EQ(seq.wedm.probabilities(), par.wedm.probabilities());
    EXPECT_EQ(seq.wedmWeights, par.wedmWeights);
}

core::ExperimentSummary
runExperimentAtJobs(const hw::Device &device, core::ExperimentConfig config,
                    int jobs)
{
    config.rounds = 3;
    config.totalShots = 2048;
    config.jobs = jobs;
    return core::runExperiment(device, benchmarks::bv6(), config, 11);
}

TEST(RuntimeDeterminism, ExperimentIdenticalAcrossJobs)
{
    // Two inputs: the whole melbourne device, and a heavy-hex-27 run
    // scoped to a 20-qubit region, whose placement searches and
    // candidates all go through the region mask.
    const hw::Device melbourne = hw::Device::melbourne(2);
    const hw::Device heavy_hex = hw::Device::synthetic(
        "heavy-hex-27", hw::Topology::heavyHex27(), hw::CalibrationSpec{},
        hw::NoiseSpec{}, 7);
    core::ExperimentConfig regional;
    for (int q = 0; q < 20; ++q)
        regional.region.push_back(q);
    const std::vector<std::pair<const hw::Device *, core::ExperimentConfig>>
        inputs = {{&melbourne, core::ExperimentConfig{}},
                  {&heavy_hex, regional}};

    for (const auto &[device, config] : inputs) {
        SCOPED_TRACE(device->name());
        const auto seq = runExperimentAtJobs(*device, config, 1);
        const auto par = runExperimentAtJobs(*device, config, 8);

        ASSERT_EQ(seq.rounds.size(), par.rounds.size());
        for (std::size_t r = 0; r < seq.rounds.size(); ++r) {
            EXPECT_EQ(seq.rounds[r].edm.ist, par.rounds[r].edm.ist);
            EXPECT_EQ(seq.rounds[r].edm.pst, par.rounds[r].edm.pst);
            EXPECT_EQ(seq.rounds[r].wedm.ist, par.rounds[r].wedm.ist);
            EXPECT_EQ(seq.rounds[r].wedm.pst, par.rounds[r].wedm.pst);
            EXPECT_EQ(seq.rounds[r].baselineEst.ist,
                      par.rounds[r].baselineEst.ist);
            EXPECT_EQ(seq.rounds[r].baselinePost.ist,
                      par.rounds[r].baselinePost.ist);
        }
        EXPECT_EQ(seq.median.edm.ist, par.median.edm.ist);
        EXPECT_EQ(seq.median.wedm.ist, par.median.wedm.ist);
        EXPECT_EQ(seq.median.baselineEst.pst, par.median.baselineEst.pst);
        EXPECT_EQ(seq.median.baselinePost.pst,
                  par.median.baselinePost.pst);
    }
}

TEST(RuntimeDeterminism, ExplicitStreamMatchesRngEntryPoint)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EdmConfig config;
    config.totalShots = 1024;
    const core::EdmPipeline pipeline(device, config);
    const auto logical = benchmarks::bv6().circuit;

    Rng rng(5);
    const std::uint64_t root = rng();
    Rng rng2(5);
    const auto via_rng = pipeline.run(logical, rng2);
    const auto via_seq = pipeline.run(logical, SeedSequence(root));
    EXPECT_EQ(via_rng.edm.probabilities(), via_seq.edm.probabilities());
}

} // namespace
