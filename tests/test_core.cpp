/**
 * @file
 * Unit tests for qedm_core: ensemble construction, the EDM/WEDM
 * pipelines, merge rules, the uniformity guard, and the experiment
 * driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "benchmarks/benchmarks.hpp"
#include "common/error.hpp"
#include "core/edm.hpp"
#include "core/ensemble.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "runtime/scheduler.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/esp_model.hpp"
#include "transpile/placement_search.hpp"
#include "transpile/transpiler.hpp"
#include "transpile/vf2.hpp"

namespace qedm::core {
namespace {

using circuit::Circuit;

hw::Device
testDevice(std::uint64_t seed = 7)
{
    return hw::Device::melbourne(seed);
}

TEST(EnsembleBuilder, CandidatesSortedByEspWithBestFirst)
{
    const hw::Device device = testDevice();
    const EnsembleBuilder builder(device);
    const auto bench = benchmarks::bv6();
    const auto all = builder.candidates(bench.circuit);
    ASSERT_GT(all.size(), 4u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i - 1].esp, all[i].esp);
}

TEST(EnsembleBuilder, CandidatesShareGateSequence)
{
    // Isomorphic transfer: every candidate executes the identical gate
    // sequence, only on different physical qubits (paper Section 5.2).
    const hw::Device device = testDevice();
    const EnsembleBuilder builder(device);
    const auto bench = benchmarks::bv6();
    const auto all = builder.candidates(bench.circuit);
    const auto &seed_gates = all.front().physical.gates();
    for (const auto &member : all) {
        const auto &gates = member.physical.gates();
        ASSERT_EQ(gates.size(), seed_gates.size());
        for (std::size_t g = 0; g < gates.size(); ++g) {
            EXPECT_EQ(gates[g].kind, seed_gates[g].kind);
            EXPECT_EQ(gates[g].params, seed_gates[g].params);
        }
        EXPECT_EQ(member.swapCount, all.front().swapCount);
    }
}

TEST(EnsembleBuilder, CandidatesHaveDistinctQubitSets)
{
    const hw::Device device = testDevice();
    const EnsembleBuilder builder(device);
    const auto all = builder.candidates(benchmarks::bv6().circuit);
    std::set<std::vector<int>> sets;
    for (const auto &member : all)
        EXPECT_TRUE(sets.insert(member.usedQubits()).second);
}

TEST(EnsembleBuilder, CandidatesRespectCoupling)
{
    const hw::Device device = testDevice();
    const EnsembleBuilder builder(device);
    const auto all = builder.candidates(benchmarks::qaoa5().circuit);
    for (const auto &member : all) {
        EXPECT_TRUE(member.physical.respectsCoupling(
            [&](int a, int b) {
                return device.topology().adjacent(a, b);
            }));
    }
}

TEST(EnsembleBuilder, BuildReturnsK)
{
    const hw::Device device = testDevice();
    for (int k : {1, 2, 4, 6}) {
        EnsembleConfig config;
        config.size = k;
        const EnsembleBuilder builder(device, config);
        const auto members = builder.build(benchmarks::bv6().circuit);
        EXPECT_EQ(static_cast<int>(members.size()), k);
    }
}

TEST(EnsembleBuilder, OverlapCapForcesDistinctRegions)
{
    const hw::Device device = testDevice();
    EnsembleConfig capped;
    capped.size = 4;
    capped.maxOverlap = 0.5;
    EnsembleConfig plain;
    plain.size = 4;
    plain.maxOverlap = 1.0;

    const auto bench = benchmarks::bv6();
    const auto tight =
        EnsembleBuilder(device, capped).build(bench.circuit);
    const auto loose =
        EnsembleBuilder(device, plain).build(bench.circuit);
    ASSERT_EQ(tight.size(), 4u);
    ASSERT_EQ(loose.size(), 4u);

    auto max_shared = [](const auto &members) {
        std::size_t worst = 0;
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                const auto a = members[i].usedQubits();
                const auto b = members[j].usedQubits();
                std::size_t shared = 0;
                for (int q : a)
                    shared += std::count(b.begin(), b.end(), q);
                worst = std::max(worst, shared);
            }
        }
        return worst;
    };
    EXPECT_LT(max_shared(tight), max_shared(loose));
}

TEST(EnsembleBuilder, EqualEspCandidatesOrderLexicographically)
{
    // On an ideal device every isomorphic transfer scores exactly 1.0,
    // so candidate order is pure tie-break: lexicographic on the
    // initial map, independent of enumeration or thread order.
    const hw::Device device = hw::Device::idealMelbourne();
    const EnsembleBuilder builder(device);
    Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    const auto all = builder.candidates(c);
    ASSERT_GT(all.size(), 2u);
    for (std::size_t i = 1; i < all.size(); ++i) {
        EXPECT_EQ(all[i].esp, 1.0);
        EXPECT_LT(all[i - 1].initialMap, all[i].initialMap)
            << "i=" << i;
    }
}

TEST(EnsembleBuilder, RandomSelectionKeepsBestFirst)
{
    const hw::Device device = testDevice();
    EnsembleConfig config;
    config.size = 4;
    const EnsembleBuilder builder(device, config);
    Rng rng(3);
    const auto bench = benchmarks::bv6();
    const auto members = builder.buildRandom(bench.circuit, rng);
    ASSERT_EQ(members.size(), 4u);
    const auto best = builder.candidates(bench.circuit).front();
    EXPECT_EQ(members.front().initialMap, best.initialMap);
}

TEST(EnsembleBuilder, RejectsZeroSize)
{
    EnsembleConfig config;
    config.size = 0;
    const hw::Device device = testDevice();
    EXPECT_THROW(EnsembleBuilder(device, config), UserError);
}

TEST(EnsembleBuilder, RejectsNonFiniteOrNegativeOverlapCap)
{
    // NaN would skip every cap test and, in the relax loop, never
    // reach the cap-off stage: the constructor must refuse it.
    const hw::Device device = testDevice();
    for (double cap : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(), -0.25}) {
        EnsembleConfig config;
        config.maxOverlap = cap;
        EXPECT_THROW(EnsembleBuilder(device, config), UserError)
            << "maxOverlap=" << cap;
    }
    for (double cap : {0.0, 0.5, 1.0, 2.0}) {
        EnsembleConfig config;
        config.maxOverlap = cap;
        EXPECT_NO_THROW(EnsembleBuilder(device, config))
            << "maxOverlap=" << cap;
    }
}

TEST(EdmPipeline, RunProducesNormalizedMerges)
{
    const hw::Device device = testDevice();
    EdmConfig config;
    config.totalShots = 2000;
    const EdmPipeline pipeline(device, config);
    Rng rng(5);
    const auto result = pipeline.run(benchmarks::greycode().circuit,
                                     rng);
    ASSERT_EQ(result.members.size(), 4u);
    EXPECT_TRUE(result.edm.isNormalized(1e-9));
    EXPECT_TRUE(result.wedm.isNormalized(1e-9));
    for (const auto &m : result.members) {
        EXPECT_EQ(m.shots, 500u);
        EXPECT_TRUE(m.output.isNormalized(1e-9));
    }
    double wsum = 0.0;
    for (double w : result.wedmWeights)
        wsum += w;
    EXPECT_NEAR(wsum, 1.0, 1e-9);
}

TEST(EdmPipeline, ShotsSplitEvenly)
{
    const hw::Device device = testDevice();
    EdmConfig config;
    config.totalShots = 16384;
    config.ensemble.size = 4;
    const EdmPipeline pipeline(device, config);
    Rng rng(5);
    const auto result = pipeline.run(benchmarks::bv6().circuit, rng);
    for (const auto &m : result.members)
        EXPECT_EQ(m.shots, 4096u);
}

TEST(EdmPipeline, MergeRules)
{
    MemberResult a, b;
    a.output = stats::Distribution::fromProbabilities({0.9, 0.1});
    b.output = stats::Distribution::fromProbabilities({0.1, 0.9});
    const auto uniform =
        EdmPipeline::merge({a, b}, MergeRule::Uniform);
    EXPECT_NEAR(uniform.prob(0), 0.5, 1e-12);
    const auto kl = EdmPipeline::merge({a, b}, MergeRule::KlWeighted);
    EXPECT_TRUE(kl.isNormalized(1e-9));
    const auto ent =
        EdmPipeline::merge({a, b}, MergeRule::EntropyWeighted);
    EXPECT_TRUE(ent.isNormalized(1e-9));
    EXPECT_THROW(EdmPipeline::merge({}, MergeRule::Uniform), UserError);
}

TEST(EdmPipeline, BestMemberByPst)
{
    EdmResult result;
    MemberResult a, b;
    a.output = stats::Distribution::fromProbabilities({0.9, 0.1});
    b.output = stats::Distribution::fromProbabilities({0.2, 0.8});
    result.members = {a, b};
    EXPECT_EQ(result.bestMemberByPst(0), 0u);
    EXPECT_EQ(result.bestMemberByPst(1), 1u);
}

TEST(EdmPipeline, UniformityGuardDiscardsNoiseMembers)
{
    // Construct a pipeline result by hand through the merge path: one
    // strongly-peaked member plus one uniform member.
    MemberResult good, noise;
    good.output =
        stats::Distribution::fromProbabilities({0.7, 0.1, 0.1, 0.1});
    noise.output = stats::Distribution::uniform(2);
    // With the guard, the uniform member contributes nothing: EDM
    // should equal the good member's distribution. We exercise the
    // guard through a real pipeline run below; here check the
    // primitive.
    EXPECT_TRUE(stats::isNearUniform(noise.output));
    EXPECT_FALSE(stats::isNearUniform(good.output));
}

TEST(EdmPipeline, GuardKeepsEverythingWhenAllUniform)
{
    // A device so noisy every output is uniform: the guard must not
    // discard all members (it keeps everything instead).
    hw::NoiseSpec spec;
    spec.stochasticScale = 60.0;
    spec.coherentScale = 0.0;
    const hw::Device device = hw::Device::melbourne(3, spec);
    EdmConfig config;
    config.totalShots = 800;
    config.uniformityGuard = true;
    config.uniformityMargin = 0.5;
    const EdmPipeline pipeline(device, config);
    Rng rng(5);
    const auto result = pipeline.run(benchmarks::greycode().circuit,
                                     rng);
    EXPECT_TRUE(result.edm.isNormalized(1e-9));
}

TEST(Experiment, SummaryShapesAndMedians)
{
    const hw::Device device = testDevice();
    ExperimentConfig config;
    config.rounds = 3;
    config.totalShots = 1200;
    const auto summary = runExperiment(
        device, benchmarks::greycode(), config, 11);
    EXPECT_EQ(summary.benchmark, "greycode");
    ASSERT_EQ(summary.rounds.size(), 3u);
    EXPECT_GT(summary.median.baselineEst.pst, 0.0);
    EXPECT_GT(summary.median.edm.pst, 0.0);
    EXPECT_GE(summary.median.baselinePost.pst, 0.0);
    EXPECT_NO_THROW(summary.edmIstGain());
    EXPECT_NO_THROW(summary.wedmIstGain());
}

TEST(Experiment, ZeroDriftFreezesCalibration)
{
    const hw::Device device = testDevice();
    ExperimentConfig config;
    config.rounds = 2;
    config.totalShots = 600;
    config.calibrationDrift = 0.0;
    EXPECT_NO_THROW(
        runExperiment(device, benchmarks::adder(), config, 13));
}

TEST(Experiment, RejectsZeroRounds)
{
    ExperimentConfig config;
    config.rounds = 0;
    const hw::Device device = testDevice();
    EXPECT_THROW(
        runExperiment(device, benchmarks::adder(), config, 1),
        UserError);
}

// The paper's central claims, as statistical integration tests on the
// correlated-noise device model.

TEST(PaperClaims, DiverseMappingsDivergeMoreThanRepeatedRuns)
{
    // Fig. 4: pairwise KL of repeated same-mapping runs is near zero;
    // diverse mappings diverge significantly.
    const hw::Device device = testDevice();
    EdmConfig config;
    config.totalShots = 16000;
    config.ensemble.size = 4;
    config.ensemble.maxOverlap = 0.5;
    const EdmPipeline pipeline(device, config);
    Rng rng(17);
    const auto bench = benchmarks::bv6();
    const auto result = pipeline.run(bench.circuit, rng);

    // Repeated runs of the single best mapping.
    const sim::Executor exec(device);
    std::vector<stats::Distribution> repeated;
    for (int i = 0; i < 4; ++i) {
        repeated.push_back(stats::Distribution::fromCounts(exec.run(
            result.members.front().program.physical, 4000, rng)));
    }
    std::vector<stats::Distribution> diverse;
    for (const auto &m : result.members)
        diverse.push_back(m.output);

    const double same_kl = stats::meanOffDiagonal(
        stats::pairwiseDivergence(repeated));
    const double diverse_kl = stats::meanOffDiagonal(
        stats::pairwiseDivergence(diverse));
    EXPECT_LT(same_kl, 0.2);
    EXPECT_GT(diverse_kl, 3.0 * same_kl);
}

TEST(PaperClaims, EdmBeatsBaselineUnderCorrelatedErrors)
{
    // Median over seeds: EDM IST >= baseline IST in the correlated
    // regime (Figs. 7/11). Individual seeds may go either way; the
    // median must not.
    std::vector<double> gains;
    for (std::uint64_t seed : {1, 2, 4, 5, 9}) {
        const hw::Device device = hw::Device::melbourne(seed);
        EdmConfig config;
        config.totalShots = 8192;
        config.ensemble.maxOverlap = 0.5;
        const EdmPipeline pipeline(device, config);
        Rng rng(seed * 100 + 1);
        const auto bench = benchmarks::bv6();
        const auto result = pipeline.run(bench.circuit, rng);
        const auto baseline = pipeline.runSingle(
            result.members.front().program, rng);
        gains.push_back(stats::ist(result.edm, bench.expected) /
                        stats::ist(baseline, bench.expected));
    }
    EXPECT_GE(stats::median(gains), 1.0);
}

TEST(PaperClaims, EdmMatchesBaselineWithoutCorrelatedErrors)
{
    // Section 4.4 inverse check: on an IID-only device EDM cannot be
    // expected to beat the baseline materially; the merge must also
    // not catastrophically hurt (PST within a factor ~2).
    hw::NoiseSpec spec;
    spec.coherentScale = 0.0;
    spec.correlatedReadoutScale = 0.0;
    const hw::Device device = hw::Device::melbourne(7, spec);
    EdmConfig config;
    config.totalShots = 8192;
    const EdmPipeline pipeline(device, config);
    Rng rng(23);
    const auto bench = benchmarks::bv6();
    const auto result = pipeline.run(bench.circuit, rng);
    const auto baseline =
        pipeline.runSingle(result.members.front().program, rng);
    const double base_pst = stats::pst(baseline, bench.expected);
    const double edm_pst = stats::pst(result.edm, bench.expected);
    EXPECT_GT(edm_pst, 0.5 * base_pst);
    EXPECT_LT(edm_pst, 2.0 * base_pst);
}

TEST(EnsembleBuilder, EmptyRegionIsBitIdenticalToNoRegion)
{
    const hw::Device device = testDevice();
    const auto logical = benchmarks::bv6().circuit;
    EnsembleConfig with_region;
    std::vector<int> all;
    for (int q = 0; q < device.numQubits(); ++q)
        all.push_back(q);
    with_region.region = all; // full region == no region
    const EnsembleBuilder scoped(device, with_region);
    const EnsembleBuilder unscoped(device);
    const auto a = scoped.build(logical);
    const auto b = unscoped.build(logical);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].initialMap, b[i].initialMap);
        EXPECT_EQ(a[i].esp, b[i].esp); // bit-identical
    }
}

TEST(EnsembleBuilder, RegionConfinesEveryMember)
{
    const hw::Device device = testDevice();
    EnsembleConfig config;
    config.region = {0, 1, 2, 3, 4, 5, 6, 13, 12, 11};
    config.verifyPasses = true; // MappingChecker enforces the region
    const EnsembleBuilder builder(device, config);
    const auto members = builder.build(benchmarks::bv6().circuit);
    ASSERT_FALSE(members.empty());
    for (const auto &member : members) {
        for (int q : member.usedQubits())
            EXPECT_TRUE(builder.view().allowed(q))
                << "member uses qubit " << q << " outside the region";
    }
}

TEST(EnsembleBuilder, DisjointRegionsProduceDisjointPlacements)
{
    // Multi-programming: two builders on disjoint halves of the
    // device must emit ensembles that never touch each other's
    // qubits.
    const hw::Device device = testDevice();
    Circuit small(3, 3);
    small.h(0).cx(0, 1).cx(1, 2).measureAll();
    EnsembleConfig left_config;
    left_config.region = {0, 1, 2, 3, 13, 12, 11};
    EnsembleConfig right_config;
    right_config.region = {4, 5, 6, 8, 9, 10};
    const EnsembleBuilder left(device, left_config);
    const EnsembleBuilder right(device, right_config);
    const auto left_members = left.build(small);
    const auto right_members = right.build(small);
    ASSERT_FALSE(left_members.empty());
    ASSERT_FALSE(right_members.empty());
    std::set<int> left_qubits;
    for (const auto &m : left_members) {
        for (int q : m.usedQubits())
            left_qubits.insert(q);
    }
    for (const auto &m : right_members) {
        for (int q : m.usedQubits())
            EXPECT_EQ(left_qubits.count(q), 0u)
                << "regions overlap on qubit " << q;
    }
}

TEST(EnsembleBuilder, RejectsBadRegions)
{
    const hw::Device device = testDevice();
    EnsembleConfig config;
    config.region = {0, 99};
    EXPECT_THROW(EnsembleBuilder(device, config), UserError);
}

TEST(EdmPipeline, RegionScopedRunProducesResults)
{
    const hw::Device device = testDevice();
    EdmConfig config;
    config.totalShots = 1024;
    config.verifyPasses = true;
    config.ensemble.region = {0, 1, 2, 3, 4, 5, 6, 13, 12, 11};
    const EdmPipeline pipeline(device, config);
    Rng rng(9);
    const auto result = pipeline.run(benchmarks::bv6().circuit, rng);
    ASSERT_FALSE(result.members.empty());
    for (const auto &member : result.members) {
        for (const auto &g : member.program.physical.gates()) {
            for (int q : g.qubits) {
                EXPECT_TRUE(q <= 6 || q >= 11)
                    << "member escaped the region via qubit " << q;
            }
        }
    }
}

TEST(Experiment, RegionForwardsToEveryRound)
{
    const hw::Device device = testDevice();
    ExperimentConfig config;
    config.rounds = 2;
    config.totalShots = 512;
    config.ensembleSize = 2;
    config.region = {0, 1, 2, 3, 4, 5, 6, 13, 12, 11};
    config.verifyPasses = true; // checker rejects any escape
    const auto summary = runExperiment(
        device, benchmarks::bv6(), config, 11);
    EXPECT_EQ(summary.rounds.size(), 2u);
    EXPECT_GT(summary.median.edm.pst, 0.0);
}

// Streaming builder against the materialize-everything reference.

using Programs = std::vector<transpile::CompiledProgram>;

/** Induced subgraph on the qubits @p seed touches; vertex i is
 *  seed.usedQubits()[i]. */
hw::Topology
seedPattern(const transpile::CompiledProgram &seed,
            const hw::Topology &topo)
{
    const std::vector<int> used = seed.usedQubits();
    std::vector<int> index(static_cast<std::size_t>(topo.numQubits()), -1);
    for (std::size_t i = 0; i < used.size(); ++i)
        index[used[i]] = static_cast<int>(i);
    std::vector<std::pair<int, int>> edges;
    for (const auto &edge : topo.edges()) {
        if (index[edge.a] >= 0 && index[edge.b] >= 0)
            edges.emplace_back(index[edge.a], index[edge.b]);
    }
    return hw::Topology(static_cast<int>(used.size()), edges);
}

transpile::CompiledProgram
compileSeed(const EnsembleBuilder &builder, const Circuit &logical)
{
    const transpile::Transpiler compiler(builder.view(),
                                         builder.config().routeCost,
                                         builder.config().verifyPasses);
    return compiler.compile(logical);
}

/** One reference row: a qubit set's best transfer of the seed. */
struct ReferenceRow
{
    std::vector<int> relabel;
    std::vector<int> initialMap;
    std::vector<int> usedSet; ///< sorted, as usedQubits() returns it
    double esp = 0.0;

    std::vector<int> usedQubits() const { return usedSet; }
};

/**
 * A reference candidate list, best first, and the embedding count
 * behind it. Rows are materialized on demand: an uncapped grid list
 * holds over 200,000 qubit sets.
 */
struct ReferenceCandidates
{
    transpile::CompiledProgram seed;
    std::vector<ReferenceRow> rows;
    std::size_t embeddings = 0;

    transpile::CompiledProgram
    member(const ReferenceRow &row) const
    {
        transpile::CompiledProgram out;
        out.physical = seed.physical.remapQubits(
            row.relabel, static_cast<int>(row.relabel.size()));
        out.initialMap = row.initialMap;
        for (int p : seed.finalMap)
            out.finalMap.push_back(row.relabel[p]);
        out.swapCount = seed.swapCount;
        out.esp = row.esp;
        return out;
    }

    Programs
    members(const std::vector<ReferenceRow> &picked) const
    {
        Programs out;
        for (const ReferenceRow &row : picked)
            out.push_back(member(row));
        return out;
    }
};

/** No enumeration cap: the reference enumerates every embedding. */
constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();

/**
 * The materialize-everything builder, kept as the equivalence
 * reference: score every embedding through its full relabeling and
 * keep each qubit set's best under (esp, initialMap, relabel) — the
 * row sorting every record and keeping each set's first would keep. Records stream past, so an uncapped
 * run (millions of embeddings on the grid) stays small.
 */
ReferenceCandidates
referenceCandidates(const EnsembleBuilder &builder, const Circuit &logical)
{
    const auto before = [](const ReferenceRow &a, const ReferenceRow &b) {
        if (a.esp != b.esp)
            return a.esp > b.esp;
        if (a.initialMap != b.initialMap)
            return a.initialMap < b.initialMap;
        return a.relabel < b.relabel;
    };
    const hw::DeviceView &view = builder.view();
    const hw::Topology &topo = view.device().topology();
    const int n = topo.numQubits();
    ReferenceCandidates out;
    out.seed = compileSeed(builder, logical);
    const transpile::CompiledProgram &seed = out.seed;
    const std::vector<int> used = seed.usedQubits();
    const auto model = transpile::sharedEspModel(view);
    const transpile::GateTrace trace =
        transpile::EspModel::trace(seed.physical.decomposed());
    std::map<std::uint64_t, ReferenceRow> best; // keyed by qubit set
    ReferenceRow rec;
    std::vector<bool> taken;
    out.embeddings = transpile::vf2ForEachEmbedding(
        seedPattern(seed, topo), topo, kUncapped, view.maskPtr(),
        [&](const std::vector<int> &embedding) {
            rec.relabel.assign(static_cast<std::size_t>(n), -1);
            taken.assign(static_cast<std::size_t>(n), false);
            for (std::size_t i = 0; i < used.size(); ++i) {
                rec.relabel[used[i]] = embedding[i];
                taken[embedding[i]] = true;
            }
            int fill = 0;
            for (int &target : rec.relabel) {
                if (target >= 0)
                    continue;
                while (taken[fill])
                    ++fill;
                target = fill;
                taken[fill] = true;
            }
            rec.initialMap.clear();
            for (int p : seed.initialMap)
                rec.initialMap.push_back(rec.relabel[p]);
            rec.usedSet = embedding;
            std::sort(rec.usedSet.begin(), rec.usedSet.end());
            rec.esp = model->espOfTrace(trace, rec.relabel);
            std::uint64_t key = 0;
            for (int q : rec.usedSet)
                key |= std::uint64_t{1} << q;
            const auto [it, fresh] = best.try_emplace(key, rec);
            if (!fresh && before(rec, it->second))
                it->second = rec;
        });
    for (auto &entry : best)
        out.rows.push_back(std::move(entry.second));
    std::sort(out.rows.begin(), out.rows.end(), before);
    return out;
}

/** Reference build(): the overlap-capped greedy over the candidates'
 *  usedQubits(). */
template <typename Candidate>
std::vector<Candidate>
referenceBuild(const EnsembleConfig &config,
               const std::vector<Candidate> &all)
{
    std::size_t want = static_cast<std::size_t>(config.size);
    if (config.expectedDropoutProb > 0.0 || config.plannedDropouts > 0) {
        const double p = std::min(config.expectedDropoutProb, 0.9);
        want = static_cast<std::size_t>(std::ceil(
                   static_cast<double>(config.size) / (1.0 - p))) +
               static_cast<std::size_t>(config.plannedDropouts);
    }
    const auto overlap = [](const std::vector<int> &a,
                            const std::vector<int> &b) {
        std::size_t shared = 0;
        for (int q : a) {
            if (std::binary_search(b.begin(), b.end(), q))
                ++shared;
        }
        return static_cast<double>(shared) /
               static_cast<double>(a.size());
    };
    std::vector<Candidate> out;
    std::vector<std::vector<int>> used_sets;
    std::vector<bool> taken(all.size(), false);
    for (double cap = config.maxOverlap;
         out.size() < want && out.size() < all.size(); cap += 0.25) {
        for (std::size_t i = 0; i < all.size() && out.size() < want;
             ++i) {
            if (taken[i])
                continue;
            const std::vector<int> used = all[i].usedQubits();
            bool ok = true;
            for (const auto &prev : used_sets) {
                if (cap < 1.0 && overlap(used, prev) > cap)
                    ok = false;
            }
            if (ok) {
                out.push_back(all[i]);
                used_sets.push_back(used);
                taken[i] = true;
            }
        }
        if (cap >= 1.0)
            break;
    }
    return out;
}

/** Reference buildRandom(): the best candidate, then Fisher-Yates
 *  over the rest. */
std::vector<ReferenceRow>
referenceRandom(const EnsembleConfig &config, std::vector<ReferenceRow> all,
                Rng &rng)
{
    const auto size = static_cast<std::size_t>(config.size);
    if (all.size() <= size)
        return all;
    std::vector<ReferenceRow> out{all.front()};
    for (std::size_t i = 1; i < all.size() && out.size() < size; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.uniformInt(all.size() - i));
        std::swap(all[i], all[j]);
        out.push_back(all[i]);
    }
    return out;
}

/** Reference buildAdaptive(): @p selected cut at the ESP floor. */
Programs
referenceAdaptive(Programs selected, double min_esp_ratio)
{
    const double floor_esp = selected.front().esp * min_esp_ratio;
    std::size_t keep = 1;
    while (keep < selected.size() && selected[keep].esp >= floor_esp)
        ++keep;
    selected.resize(keep);
    return selected;
}

/** Reference buildPredictive(): the KL greedy over the first
 *  @p pool_size candidates, materialized. */
Programs
referencePredictive(const hw::Device &device, const EnsembleConfig &config,
                    const ReferenceCandidates &ranked, std::size_t pool_size)
{
    Programs pool;
    for (std::size_t i = 0; i < ranked.rows.size() && i < pool_size; ++i)
        pool.push_back(ranked.member(ranked.rows[i]));
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(config.size), pool.size());
    const sim::Executor exec(device);
    std::vector<stats::Distribution> predicted;
    for (const auto &member : pool)
        predicted.push_back(exec.exactDistribution(member.physical));
    std::vector<std::size_t> chosen{0};
    while (chosen.size() < want) {
        double best_gain = -1.0;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (std::find(chosen.begin(), chosen.end(), i) !=
                chosen.end())
                continue;
            double gain = 0.0;
            for (std::size_t j : chosen)
                gain += stats::symmetricKl(predicted[i], predicted[j]);
            if (gain > best_gain) {
                best_gain = gain;
                best_idx = i;
            }
        }
        chosen.push_back(best_idx);
    }
    Programs out;
    for (std::size_t i : chosen)
        out.push_back(pool[i]);
    return out;
}

void
expectSameProgram(const transpile::CompiledProgram &got,
                  const transpile::CompiledProgram &want,
                  const std::string &at)
{
    EXPECT_EQ(got.esp, want.esp) << at;
    EXPECT_EQ(got.initialMap, want.initialMap) << at;
    EXPECT_EQ(got.finalMap, want.finalMap) << at;
    EXPECT_EQ(got.swapCount, want.swapCount) << at;
    const auto &a = got.physical.gates();
    const auto &b = want.physical.gates();
    bool same = got.physical.numQubits() == want.physical.numQubits() &&
                a.size() == b.size();
    for (std::size_t g = 0; same && g < a.size(); ++g) {
        same = a[g].kind == b[g].kind && a[g].qubits == b[g].qubits &&
               a[g].params == b[g].params && a[g].clbit == b[g].clbit;
    }
    EXPECT_TRUE(same) << at << ": physical circuits differ";
}

void
expectSamePrograms(const Programs &got, const Programs &want,
                   const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameProgram(got[i], want[i], what + " #" + std::to_string(i));
}

/** @p got against every row of @p ref, materialized one at a time. */
void
expectSameCandidates(const Programs &got, const ReferenceCandidates &ref,
                     const std::string &what)
{
    ASSERT_EQ(got.size(), ref.rows.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameProgram(got[i], ref.member(ref.rows[i]),
                          what + " #" + std::to_string(i));
}

/** Predictive pool: the KL greedy orders members 1 and 2, and three
 *  exact simulations per side keep the cases fast. */
constexpr std::size_t kPredictivePool = 3;

/**
 * Every selection policy of a builder on @p device matches the
 * reference, field for field. The ranked policies (build,
 * buildAdaptive, buildPredictive) search every embedding. The
 * exhaustive ones (candidates, buildRandom) refuse a seed with more
 * than vf2Limit embeddings; @p refused says whether this one has.
 */
void
expectPoliciesMatchReference(const hw::Device &device,
                             const EnsembleConfig &config,
                             const Circuit &logical,
                             const std::string &what, bool refused = false)
{
    const EnsembleBuilder builder(device, config);
    const ReferenceCandidates exact = referenceCandidates(builder, logical);
    ASSERT_EQ(exact.embeddings > config.vf2Limit, refused) << what;
    Rng rng(31);
    if (refused) {
        EXPECT_THROW(builder.candidates(logical), UserError) << what;
        EXPECT_THROW(builder.buildRandom(logical, rng), UserError) << what;
    } else {
        expectSameCandidates(builder.candidates(logical), exact,
                             what + " candidates");
        Rng reference_rng(31);
        expectSamePrograms(
            builder.buildRandom(logical, rng),
            exact.members(referenceRandom(config, exact.rows, reference_rng)),
            what + " buildRandom");
    }
    const Programs built =
        exact.members(referenceBuild(config, exact.rows));
    expectSamePrograms(builder.build(logical), built, what + " build");
    expectSamePrograms(builder.buildAdaptive(logical, 0.9),
                       referenceAdaptive(built, 0.9),
                       what + " buildAdaptive");
    expectSamePrograms(
        builder.buildPredictive(logical, kPredictivePool),
        referencePredictive(device, config, exact, kPredictivePool),
        what + " buildPredictive");
}

/** The 8x8 grid of the grid-recompile workload (calibration seed 7). */
hw::Device
gridDevice()
{
    return hw::Device::synthetic("grid-8x8", hw::Topology::grid(8, 8),
                                 hw::CalibrationSpec{}, hw::NoiseSpec{},
                                 7);
}

std::vector<std::string>
table1Names()
{
    std::vector<std::string> names;
    for (const auto &bench : benchmarks::paperSuite())
        names.push_back(bench.name);
    return names;
}

class Table1Equivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Table1Equivalence, MelbourneUndriftedAndDrifted)
{
    const benchmarks::Benchmark bench = benchmarks::byName(GetParam());
    const hw::Device device = testDevice();
    expectPoliciesMatchReference(device, EnsembleConfig{}, bench.circuit,
                                 "melbourne/" + bench.name);
    Rng drift(5);
    expectPoliciesMatchReference(device.driftedRound(drift),
                                 EnsembleConfig{}, bench.circuit,
                                 "melbourne-drifted/" + bench.name);
}

INSTANTIATE_TEST_SUITE_P(
    EnsembleEquivalence, Table1Equivalence,
    ::testing::ValuesIn(table1Names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/** The grid patterns: the routed BV ones pass vf2Limit (see
 *  Vf2LimitReachedOnlyByKnownPatterns), the other two do not. */
std::vector<benchmarks::Benchmark>
gridBenchmarks()
{
    return {benchmarks::bv6(), benchmarks::bv7(), benchmarks::qaoa7(),
            benchmarks::greycode()};
}

/** The grid patterns candidates() and buildRandom() must refuse. */
bool
refusedOnGrid(const benchmarks::Benchmark &bench)
{
    return bench.name == "bv-6" || bench.name == "bv-7";
}

TEST(EnsembleEquivalence, Grid8x8)
{
    const hw::Device device = gridDevice();
    for (const auto &bench : gridBenchmarks()) {
        expectPoliciesMatchReference(device, EnsembleConfig{},
                                     bench.circuit,
                                     "grid-8x8/" + bench.name,
                                     refusedOnGrid(bench));
    }
}

TEST(EnsembleEquivalence, Grid8x8Drifted)
{
    Rng drift(5);
    const hw::Device device = gridDevice().driftedRound(drift);
    for (const auto &bench : gridBenchmarks()) {
        expectPoliciesMatchReference(device, EnsembleConfig{},
                                     bench.circuit,
                                     "grid-8x8-drifted/" + bench.name,
                                     refusedOnGrid(bench));
    }
}

TEST(EnsembleBuilder, BuildSearchEffortIsSmallAndReproducible)
{
    // The grid bv-6 seed pattern has 2,956,608 embeddings (see
    // Vf2LimitReachedOnlyByKnownPatterns for why that matters). build()
    // answers with one bounded search per pick, so it must complete
    // far fewer, and its serial searches count the same every run.
    constexpr std::uint64_t kEmbeddings = 2956608;
    const hw::Device device = gridDevice();
    const Circuit logical = benchmarks::bv6().circuit;
    const EnsembleBuilder serial(device);
    const hw::Topology &topo = device.topology();
    ASSERT_EQ(transpile::vf2ForEachEmbedding(
                  seedPattern(compileSeed(serial, logical), topo), topo,
                  kUncapped, nullptr, [](const std::vector<int> &) {}),
              kEmbeddings);
    transpile::PlacementSearchStats first;
    transpile::PlacementSearchStats second;
    const Programs members = serial.build(logical, &first);
    expectSamePrograms(serial.build(logical, &second), members,
                       "second run");
    expectSamePrograms(serial.build(logical), members, "without stats");

    EXPECT_GT(first.completions, 0u);
    EXPECT_LT(first.completions, kEmbeddings / 10);
    EXPECT_EQ(second.nodesVisited, first.nodesVisited);
    EXPECT_EQ(second.completions, first.completions);
    EXPECT_EQ(second.prunedBound, first.prunedBound);
    EXPECT_EQ(second.prunedSignature, first.prunedSignature);
}

TEST(EnsembleBuilder, GridBv6DriftedBuildsPinned)
{
    // bv-6 on the grid-recompile device over five drifted rounds. Its
    // routed seed pattern is a star plus two isolated vertices, so
    // every pick's search ends in unanchored depths: presorted host
    // lists and the sorted-sibling cutoff. The star's four leaves and
    // the two isolated vertices are twin classes, so the search walks
    // one embedding per orbit and scores the rest at its leaves.
    // Members are those of the full search. The summed counters count
    // the twin-sorted tree and were captured from its per-child
    // search, which the cutoff must reproduce exactly.
    struct Member
    {
        std::uint64_t fingerprint;
        double esp;
        std::vector<int> initialMap;
    };
    const std::vector<std::vector<Member>> expected = {
        {
            {0x5095f205b21cbabdull, 0.6829570920636876,
             {35, 44, 21, 26, 42, 51, 43}},
            {0x11f5d13f2f6db751ull, 0.66867583023189925,
             {37, 44, 21, 26, 46, 53, 45}},
            {0x7818bf6d56af175aull, 0.66685234232307788,
             {44, 60, 21, 18, 51, 53, 52}},
            {0x0d466038e7cb1f7eull, 0.6609070209474639,
             {12, 19, 18, 26, 28, 21, 20}},
        },
        {
            {0x21a3032864b4d9a9ull, 0.70217958010541015,
             {42, 35, 18, 26, 44, 51, 43}},
            {0x2d451563c6e60d96ull, 0.65989234888758252,
             {12, 21, 18, 26, 19, 28, 20}},
            {0x9f5295a002fa3b85ull, 0.65926445338663953,
             {62, 53, 26, 18, 55, 46, 54}},
            {0xdd1130a847b7b54dull, 0.64512006092303831,
             {29, 31, 26, 18, 38, 22, 30}},
        },
        {
            {0x63759e208ff512f7ull, 0.67906643673803746,
             {42, 51, 18, 26, 44, 35, 43}},
            {0xc354df4573e27211ull, 0.6685463948918835,
             {53, 62, 26, 18, 46, 55, 54}},
            {0x592dfee5d455e82bull, 0.66386514557844556,
             {19, 28, 18, 26, 21, 12, 20}},
            {0x11d38d48e5f342fdull, 0.65332203918570131,
             {44, 60, 21, 20, 51, 53, 52}},
        },
        {
            {0x28d567bb16266740ull, 0.68951192733764743,
             {35, 42, 18, 26, 44, 51, 43}},
            {0x55dedc09c107393dull, 0.67941447261337684,
             {12, 19, 18, 26, 21, 28, 20}},
            {0xe2aee79e62343e6dull, 0.67355692863239847,
             {38, 54, 18, 26, 47, 45, 46}},
            {0x0b62e482e9fdb6aaull, 0.66826886449770373,
             {51, 60, 57, 58, 44, 53, 52}},
        },
        {
            {0x26e66d5c3e69d865ull, 0.68023933104345946,
             {44, 51, 26, 18, 35, 42, 43}},
            {0xf2d94873d692f786ull, 0.678147122829448,
             {28, 19, 18, 26, 21, 12, 20}},
            {0x48430ef207382588ull, 0.66924782172532538,
             {53, 46, 26, 18, 55, 62, 54}},
            {0x646a97c92b7a62edull, 0.64772149612596708,
             {29, 31, 26, 18, 22, 38, 30}},
        },
    };
    const hw::Device base = gridDevice();
    const Circuit logical = benchmarks::bv6().circuit;
    Rng drift(5);
    transpile::PlacementSearchStats total;
    for (std::size_t round = 0; round < expected.size(); ++round) {
        const hw::Device device = base.driftedRound(drift);
        const Programs members =
            EnsembleBuilder(device).build(logical, &total);
        ASSERT_EQ(members.size(), expected[round].size())
            << "round " << round;
        for (std::size_t m = 0; m < members.size(); ++m) {
            const std::string at =
                "round " + std::to_string(round) + " member " +
                std::to_string(m);
            EXPECT_EQ(members[m].physical.fingerprint(),
                      expected[round][m].fingerprint)
                << at;
            EXPECT_EQ(members[m].esp, expected[round][m].esp) << at;
            EXPECT_EQ(members[m].initialMap,
                      expected[round][m].initialMap)
                << at;
        }
    }
    EXPECT_EQ(total.nodesVisited, 18259u);
    EXPECT_EQ(total.completions, 1989u);
    EXPECT_EQ(total.prunedBound, 9782u);
    EXPECT_EQ(total.prunedSignature, 0u);
}

TEST(EnsembleEquivalence, HeavyHex27Region)
{
    const hw::Device device = hw::Device::synthetic(
        "heavy-hex-27", hw::Topology::heavyHex27(), hw::CalibrationSpec{},
        hw::NoiseSpec{}, 7);
    EnsembleConfig config;
    for (int q = 0; q < 20; ++q)
        config.region.push_back(q);
    config.verifyPasses = true;
    expectPoliciesMatchReference(device, config, benchmarks::bv6().circuit,
                                 "heavy-hex-27/region/bv-6");
}

TEST(ParallelEnsemble, RegionScopedCandidatesBitIdentical)
{
    // Rounds compile concurrently and share the device's distance
    // provider, so region-scoped candidate lists built on scheduler
    // workers must match the serial build bit for bit. The scheduler
    // set in the config must change nothing either.
    const hw::Device device = hw::Device::synthetic(
        "heavy-hex-27", hw::Topology::heavyHex27(), hw::CalibrationSpec{},
        hw::NoiseSpec{}, 7);
    const Circuit logical = benchmarks::bv6().circuit;
    EnsembleConfig serial_config;
    for (int q = 0; q < 20; ++q)
        serial_config.region.push_back(q);
    const Programs serial =
        EnsembleBuilder(device, serial_config).candidates(logical);
    ASSERT_FALSE(serial.empty());
    for (const int jobs : {4, 16}) {
        const runtime::JobScheduler sched(jobs);
        EnsembleConfig config = serial_config;
        config.scheduler = &sched;
        std::vector<Programs> got(static_cast<std::size_t>(jobs));
        sched.parallelFor(got.size(), [&](std::size_t i) {
            got[i] = EnsembleBuilder(device, config).candidates(logical);
        });
        for (std::size_t i = 0; i < got.size(); ++i) {
            expectSamePrograms(got[i], serial,
                               "jobs " + std::to_string(jobs) + " worker " +
                                   std::to_string(i));
        }
    }
}

TEST(EnsembleEquivalence, DropoutOverProvisioning)
{
    EnsembleConfig config;
    config.expectedDropoutProb = 0.2;
    config.plannedDropouts = 1;
    const hw::Device device = testDevice();
    const Circuit logical = benchmarks::bv6().circuit;
    // ceil(4 / (1 - 0.2)) + 1 members.
    EXPECT_EQ(EnsembleBuilder(device, config).build(logical).size(), 6u);
    expectPoliciesMatchReference(device, config, logical,
                                 "melbourne/dropout/bv-6");
}

TEST(EnsembleEquivalence, AutomorphicTiesKeepSmallestRepresentative)
{
    // On an ideal device every transfer scores exactly 1.0. A 3-qubit
    // CX path maps onto each of its qubit sets two ways (mirrored), so
    // the representative kept per set and the order across sets are
    // both pure tie-break: the smallest (initialMap, relabel).
    const hw::Device device = hw::Device::idealMelbourne();
    const EnsembleBuilder builder(device);
    Circuit path(3, 3);
    path.cx(0, 1).cx(1, 2).measureAll();
    const Programs got = builder.candidates(path);
    ASSERT_GT(got.size(), 2u);
    for (const auto &member : got)
        EXPECT_EQ(member.esp, 1.0);
    const hw::Topology &topo = device.topology();
    EXPECT_GT(transpile::vf2AllEmbeddings(
                  seedPattern(compileSeed(builder, path), topo), topo)
                  .size(),
              got.size());
    expectPoliciesMatchReference(device, EnsembleConfig{}, path,
                                 "ideal/3-path");
}

TEST(EnsembleEquivalence, Vf2LimitReachedOnlyByKnownPatterns)
{
    // vf2Limit caps only the exhaustive policies (candidates,
    // buildRandom); the ranked ones search every embedding. A cut
    // would truncate in enumeration order, not ESP order, so those
    // policies refuse a seed whose enumeration the cap would end.
    // Every Table-1 seed pattern stays under it on melbourne. On the
    // 8x8 grid the routed BV patterns may not (this drift keeps
    // grid-drifted/bv-6 under it; the Grid8x8 cases, on other
    // calibrations, expect the refusal for both). Both sides are
    // pinned, so a change in either direction shows up here.
    const std::set<std::string> truncated = {
        "grid/bv-6", "grid/bv-7", "grid-drifted/bv-7"};
    const std::size_t limit = EnsembleConfig{}.vf2Limit;
    Rng drift(5);
    const hw::Device melbourne = testDevice();
    const hw::Device grid = gridDevice();
    const std::vector<std::pair<std::string, hw::Device>> devices = {
        {"melbourne", melbourne},
        {"melbourne-drifted", melbourne.driftedRound(drift)},
        {"grid", grid},
        {"grid-drifted", grid.driftedRound(drift)}};
    for (const auto &[label, device] : devices) {
        const EnsembleBuilder builder(device);
        const hw::Topology &topo = device.topology();
        for (const auto &bench : benchmarks::paperSuite()) {
            const std::string what = label + "/" + bench.name;
            const std::size_t count = transpile::vf2ForEachEmbedding(
                seedPattern(compileSeed(builder, bench.circuit), topo),
                topo, limit, nullptr, [](const std::vector<int> &) {});
            if (truncated.count(what) != 0)
                EXPECT_EQ(count, limit) << what;
            else
                EXPECT_LT(count, limit) << what;
        }
    }
}

} // namespace
} // namespace qedm::core
