#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/edm.hpp"
#include "core/ensemble.hpp"
#include "runtime/scheduler.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/compile_cache.hpp"
#include "transpile/transpiler.hpp"
#include "transpile/vf2.hpp"

namespace perfbench {

using namespace qedm;

Tracer::Tracer() : origin_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

Tracer::Span
Tracer::span(const char *name)
{
    Record rec;
    rec.name = name;
    rec.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    records_.push_back(rec);
    open_.push_back(records_.size() - 1);
    records_.back().startUs = nowUs();
    return Span(this, records_.size() - 1);
}

Tracer::Span
Tracer::open(Tracer *tracer, const char *name)
{
    if (tracer == nullptr)
        return Span();
    return tracer->span(name);
}

Tracer::Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    Record &rec = tracer_->records_[index_];
    rec.durUs = tracer_->nowUs() - rec.startUs;
    tracer_->open_.pop_back();
}

double
Tracer::selfSeconds(const std::string &name) const
{
    std::vector<double> child_us(records_.size(), 0.0);
    for (const Record &rec : records_) {
        if (rec.parent >= 0)
            child_us[static_cast<std::size_t>(rec.parent)] += rec.durUs;
    }
    double self_us = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (name == records_[i].name)
            self_us += records_[i].durUs - child_us[i];
    }
    return self_us * 1e-6;
}

namespace {

/** The qedm layer each span name times (the trace-event category). */
const char *
layerOf(std::string_view name)
{
    static const std::pair<std::string_view, const char *> kLayers[] = {
        {"drift", "hw"},           {"compile", "transpile"},
        {"candidates", "core"},    {"tape", "sim"},
        {"simulate", "sim"},       {"merge", "stats"},
        {"journal", "resilience"}, {"record", "resilience"},
        {"truncate", "resilience"}, {"replay", "resilience"},
        {"resume", "resilience"},  {"run-jobs1", "runtime"},
        {"run-jobsN", "runtime"},
    };
    for (const auto &[span, layer] : kLayers) {
        if (span == name)
            return layer;
    }
    return "bench";
}

} // namespace

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &rec = records_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << rec.name
            << "\",\"cat\":\"" << layerOf(rec.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << rec.startUs
            << ",\"dur\":" << rec.durUs << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << rec.parent << "}}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("failed writing trace " + path);
}

namespace {

// runExperiment's per-round stream keys (core/experiment.cpp). The
// replay is checked bit-identical against runExperiment, so a change
// there fails the traced run instead of skewing it silently.
constexpr std::uint64_t kStreamDrift = 0;
constexpr std::uint64_t kStreamPipeline = 1;
constexpr std::uint64_t kStreamBaselineEst = 2;
constexpr std::uint64_t kStreamBaselinePost = 3;

/** Work counted at the layer boundaries of the replay. */
struct Counters
{
    std::uint64_t compileCalls = 0;
    std::uint64_t compiles = 0;
    std::uint64_t embeddings = 0;
    std::uint64_t candidates = 0;
    std::uint64_t members = 0;
    std::uint64_t tapeCalls = 0;
    std::uint64_t tapes = 0;
    std::uint64_t tapeOps = 0;
    int activeQubits = 0;
    std::uint64_t shots = 0;
    double shotOps = 0.0;
    std::uint64_t merges = 0;
};

/** Everything one replayed round shares. */
struct RoundContext
{
    const core::ExperimentConfig &config;
    const benchmarks::Benchmark &bench;
    const runtime::JobScheduler &serial;
    transpile::CompileCache &compileCache;
    sim::TapeCache &tapeCache;
    Tracer &tracer;
    Counters &counters;
};

/**
 * VF2 embeddings of @p seed's used-qubit pattern and the distinct qubit
 * sets among them: the counts EnsembleBuilder::candidates enumerates
 * and materializes. Computed outside every span.
 */
std::pair<std::uint64_t, std::uint64_t>
countCandidates(const hw::Device &device,
                const transpile::CompiledProgram &seed, std::size_t limit)
{
    const hw::Topology &topo = device.topology();
    const std::vector<int> used = seed.usedQubits();
    std::vector<int> index(static_cast<std::size_t>(topo.numQubits()), -1);
    for (std::size_t i = 0; i < used.size(); ++i)
        index[static_cast<std::size_t>(used[i])] = static_cast<int>(i);
    std::vector<std::pair<int, int>> edges;
    for (const auto &edge : topo.edges()) {
        const int a = index[static_cast<std::size_t>(edge.a)];
        const int b = index[static_cast<std::size_t>(edge.b)];
        if (a >= 0 && b >= 0)
            edges.emplace_back(a, b);
    }
    const hw::Topology pattern(static_cast<int>(used.size()), edges);
    std::vector<std::vector<int>> embeddings =
        transpile::vf2AllEmbeddings(pattern, topo, limit);
    const std::uint64_t count = embeddings.size();
    std::set<std::vector<int>> sets;
    for (std::vector<int> &embedding : embeddings) {
        std::sort(embedding.begin(), embedding.end());
        sets.insert(std::move(embedding));
    }
    return {count, sets.size()};
}

std::shared_ptr<const sim::ExecutionTape>
tapeFor(RoundContext &ctx, const hw::Device &device,
        const circuit::Circuit &physical)
{
    const std::uint64_t misses = ctx.tapeCache.misses();
    std::shared_ptr<const sim::ExecutionTape> tape;
    {
        const Tracer::Span span = ctx.tracer.span("tape");
        tape = ctx.tapeCache.get(device, physical);
    }
    ++ctx.counters.tapeCalls;
    if (ctx.tapeCache.misses() != misses) {
        ++ctx.counters.tapes;
        ctx.counters.tapeOps += tape->ops.size();
    }
    ctx.counters.activeQubits =
        std::max(ctx.counters.activeQubits, tape->numLocal);
    return tape;
}

/** @p total trials of @p tape in EdmConfig-sized batches; batch b
 *  draws from @p node.child(b), as EdmPipeline does. */
std::vector<stats::Counts>
simulate(RoundContext &ctx, const sim::Executor &executor,
         const sim::ExecutionTape &tape, std::uint64_t total,
         const SeedSequence &node)
{
    const std::uint64_t batch = core::EdmConfig{}.shotBatch;
    std::vector<stats::Counts> out;
    for (std::uint64_t done = 0, b = 0; done < total; done += batch, ++b) {
        const std::uint64_t shots = std::min(batch, total - done);
        Rng rng = node.child(b).rng();
        const Tracer::Span span = ctx.tracer.span("simulate");
        out.push_back(executor.run(tape, shots, rng));
        ctx.counters.shots += shots;
        ctx.counters.shotOps +=
            static_cast<double>(shots) * static_cast<double>(tape.ops.size());
    }
    return out;
}

stats::Counts
mergeBatches(std::vector<stats::Counts> batches)
{
    stats::Counts merged = std::move(batches.front());
    for (std::size_t i = 1; i < batches.size(); ++i)
        merged.merge(batches[i]);
    return merged;
}

core::PolicyOutcome
score(const stats::Distribution &dist, Outcome correct)
{
    return {stats::ist(dist, correct), stats::pst(dist, correct)};
}

/** One baseline policy: all trials on @p program. */
core::PolicyOutcome
baseline(RoundContext &ctx, const hw::Device &device,
         const sim::Executor &executor,
         const transpile::CompiledProgram &program, const SeedSequence &node)
{
    const auto tape = tapeFor(ctx, device, program.physical);
    std::vector<stats::Counts> batches =
        simulate(ctx, executor, *tape, ctx.config.totalShots, node);
    const Tracer::Span span = ctx.tracer.span("merge");
    return score(stats::Distribution::fromCounts(
                     mergeBatches(std::move(batches))),
                 ctx.bench.expected);
}

/** One round of runExperiment, in EdmPipeline::run order. */
core::RoundOutcome
replayRound(RoundContext &ctx, const hw::Device &device, std::size_t round,
            const SeedSequence &seq)
{
    const core::ExperimentConfig &cfg = ctx.config;
    const Tracer::Span round_span = ctx.tracer.span("round");
    std::optional<hw::Device> drifted;
    if (round != 0) {
        Rng rng = seq.child(kStreamDrift).rng();
        const Tracer::Span span = ctx.tracer.span("drift");
        drifted = device.driftedRound(rng, cfg.calibrationDrift);
    }
    const hw::Device &dev = drifted ? *drifted : device;

    core::EnsembleConfig ens;
    ens.size = cfg.ensembleSize;
    ens.compileCache = &ctx.compileCache;
    ens.region = cfg.region;
    ens.verifyPasses = ens.verifyPasses || cfg.verifyPasses;
    ens.scheduler = &ctx.serial;

    // Compile the seed here so the builder's own lookup hits and the
    // candidates span holds no compile time.
    transpile::Transpiler compiler(hw::DeviceView(dev), ens.routeCost,
                                   ens.verifyPasses);
    compiler.setScheduler(&ctx.serial);
    const std::uint64_t misses = ctx.compileCache.misses();
    std::shared_ptr<const transpile::CompiledProgram> seed;
    {
        const Tracer::Span span = ctx.tracer.span("compile");
        seed = ctx.compileCache.getOrCompile(compiler, ctx.bench.circuit);
    }
    ++ctx.counters.compileCalls;
    ctx.counters.compiles += ctx.compileCache.misses() - misses;
    const auto [embeddings, candidates] =
        countCandidates(dev, *seed, ens.vf2Limit);
    ctx.counters.embeddings += embeddings;
    ctx.counters.candidates += candidates;

    const core::EnsembleBuilder builder(dev, ens);
    std::vector<transpile::CompiledProgram> programs;
    {
        const Tracer::Span span = ctx.tracer.span("candidates");
        programs = builder.build(ctx.bench.circuit);
    }
    ctx.counters.members += programs.size();

    sim::Executor executor(dev);
    executor.setSimBatch(cfg.simBatch);
    std::vector<std::shared_ptr<const sim::ExecutionTape>> tapes;
    for (const transpile::CompiledProgram &p : programs)
        tapes.push_back(tapeFor(ctx, dev, p.physical));

    const std::vector<std::uint64_t> splits =
        core::EdmPipeline::splitShots(cfg.totalShots, programs.size());
    const SeedSequence pipeline = seq.child(kStreamPipeline);
    std::vector<std::vector<stats::Counts>> batches;
    for (std::size_t m = 0; m < programs.size(); ++m) {
        batches.push_back(
            simulate(ctx, executor, *tapes[m], splits[m], pipeline.child(m)));
    }

    const double kl_smoothing = core::EdmConfig{}.klSmoothing;
    const Outcome correct = ctx.bench.expected;
    core::EdmResult result;
    core::RoundOutcome out;
    {
        const Tracer::Span span = ctx.tracer.span("merge");
        for (std::size_t m = 0; m < programs.size(); ++m) {
            const stats::Counts counts = mergeBatches(std::move(batches[m]));
            core::MemberResult member;
            member.shots = counts.total();
            member.output = stats::Distribution::fromCounts(counts);
            member.program = std::move(programs[m]);
            result.members.push_back(std::move(member));
        }
        result.edm = core::EdmPipeline::merge(
            result.members, core::MergeRule::Uniform, kl_smoothing);
        result.wedm = core::EdmPipeline::merge(
            result.members, core::MergeRule::KlWeighted, kl_smoothing);
        ctx.counters.merges += 2;
        out.edm = score(result.edm, correct);
        out.wedm = score(result.wedm, correct);
    }

    out.baselineEst = baseline(ctx, dev, executor,
                               result.members.front().program,
                               seq.child(kStreamBaselineEst));
    const std::size_t best = result.bestMemberByPst(correct);
    out.baselinePost =
        best == 0 ? out.baselineEst
                  : baseline(ctx, dev, executor, result.members[best].program,
                             seq.child(kStreamBaselinePost));
    return out;
}

core::PolicyOutcome
medianPolicy(const std::vector<core::RoundOutcome> &rounds,
             core::PolicyOutcome core::RoundOutcome::*field)
{
    std::vector<double> ists, psts;
    for (const core::RoundOutcome &r : rounds) {
        ists.push_back((r.*field).ist);
        psts.push_back((r.*field).pst);
    }
    return {stats::median(ists), stats::median(psts)};
}

/** runExperiment for a fault-free @p config, serially and traced. */
core::ExperimentSummary
replayExperiment(const Experiment &e,
                 const core::ExperimentConfig &config, Tracer &tracer,
                 Counters &counters)
{
    const runtime::JobScheduler serial(1);
    transpile::CompileCache compile_cache;
    sim::TapeCache tape_cache;
    RoundContext ctx{config,      e.bench, serial, compile_cache,
                     tape_cache, tracer,  counters};

    core::ExperimentSummary summary;
    summary.benchmark = e.bench.name;
    const SeedSequence root(e.seed);
    for (int r = 0; r < config.rounds; ++r) {
        const auto round = static_cast<std::size_t>(r);
        summary.rounds.push_back(
            replayRound(ctx, e.device, round, root.child(round)));
    }
    using RO = core::RoundOutcome;
    summary.median.baselineEst = medianPolicy(summary.rounds, &RO::baselineEst);
    summary.median.baselinePost =
        medianPolicy(summary.rounds, &RO::baselinePost);
    summary.median.edm = medianPolicy(summary.rounds, &RO::edm);
    summary.median.wedm = medianPolicy(summary.rounds, &RO::wedm);
    return summary;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The layer self-times must sum to within this share of the untraced
 *  jobs=1 wall; checked only when that wall is long enough to time. */
constexpr double kMaxOverheadFrac = 0.10;
constexpr double kReconcileMinSeconds = 1.0;

} // namespace

RunResult
runTraced(const Workload &full, const std::string &trace_path,
          const std::string &journal_path)
{
    Workload w = full;
    w.config.rounds = full.traceRounds;
    Tracer tracer;
    Counters counters;
    RunResult out;
    const int jobs = w.config.jobs;

    // The layer split comes from the fault-free skeleton of each
    // experiment; resume workloads add their journal steps on top.
    core::ExperimentConfig skeleton = w.config;
    skeleton.resilience = resilience::ResilienceConfig{};
    skeleton.jobs = 1;

    double untraced_s = 0.0;
    double wall_j1 = 0.0;
    double wall_jn = 0.0;
    double record_s = 0.0;
    std::uint64_t journal_bytes = 0, journal_records = 0, restored = 0;
    std::uint64_t retries = 0, lost = 0, reassigned = 0;
    for (const Experiment &e : w.experiments) {
        ++out.attempted;
        std::vector<std::string> failures;
        const std::string where = w.name + "/" + e.bench.name + ": ";
        try {
            // Untraced jobs=1 on both sides of the replay, averaged:
            // whichever call comes first warms the caches for the next,
            // and host noise then weighs on both sides alike.
            core::ExperimentSummary plain;
            const auto untraced = [&] {
                const Clock::time_point t0 = Clock::now();
                plain =
                    core::runExperiment(e.device, e.bench, skeleton, e.seed);
                return secondsSince(t0);
            };
            const double before_s = untraced();
            Clock::time_point start = Clock::now();
            const core::ExperimentSummary replayed = [&] {
                const Tracer::Span span = tracer.span("experiment");
                return replayExperiment(e, skeleton, tracer,
                                        counters);
            }();
            const double replay_s = secondsSince(start);
            const double plain_s = 0.5 * (before_s + untraced());
            untraced_s += plain_s;
            std::cout << where << "traced replay " << replay_s
                      << " s, untraced jobs=1 " << plain_s << " s\n";
            if (digest(replayed) != digest(plain)) {
                failures.push_back(where + "traced replay differs from "
                                           "runExperiment");
            }

            ExperimentRun j1;
            double j1_s = plain_s;
            if (w.resume) {
                {
                    const Tracer::Span span = tracer.span("record");
                    start = Clock::now();
                    core::ExperimentConfig unjournaled = w.config;
                    unjournaled.jobs = 1;
                    core::runExperiment(e.device, e.bench, unjournaled,
                                        e.seed);
                    record_s += secondsSince(start);
                }
                const Tracer::Span span = tracer.span("run-jobs1");
                start = Clock::now();
                j1 = runOne(w, e, 1, journal_path, &tracer);
                j1_s = secondsSince(start);
                journal_bytes += j1.journalBytes;
                journal_records += j1.journalRecords;
                restored += j1.restoredBatches;
            } else {
                j1.summary = plain;
            }
            wall_j1 += j1_s;

            ExperimentRun jn = j1;
            double jn_s = j1_s;
            if (jobs != 1) {
                const Tracer::Span span = tracer.span("run-jobsN");
                start = Clock::now();
                jn = runOne(w, e, jobs, journal_path);
                jn_s = secondsSince(start);
            }
            wall_jn += jn_s;
            const bool same_uninterrupted =
                !w.resume ||
                digest(*j1.uninterrupted) == digest(*jn.uninterrupted);
            if (digest(j1.summary) != digest(jn.summary) ||
                !same_uninterrupted) {
                failures.push_back(where + "summary at jobs=1 differs "
                                           "from jobs=" +
                                   std::to_string(jobs));
            }
            for (std::string &f : checkExperiment(w, jn))
                failures.push_back(std::move(f));
            const core::ExperimentSummary &faulted =
                w.resume ? *jn.uninterrupted : jn.summary;
            retries += static_cast<std::uint64_t>(faulted.retriesTotal);
            lost += faulted.trialsLost;
            reassigned += faulted.trialsReassigned;
        } catch (const std::exception &ex) {
            failures.push_back(where + "threw: " + ex.what());
        }
        if (!failures.empty())
            ++out.failed;
        for (std::string &f : failures)
            out.failures.push_back(std::move(f));
    }
    tracer.writeChromeTrace(trace_path);

    const Counters &c = counters;
    const double compile_s = tracer.selfSeconds("compile");
    const double ensemble_s = tracer.selfSeconds("candidates");
    const double exec_s = tracer.selfSeconds("simulate");
    const double tape_s = tracer.selfSeconds("tape");
    const double drift_s = tracer.selfSeconds("drift");
    const double merge_s = tracer.selfSeconds("merge");
    const double layer_sum =
        compile_s + ensemble_s + exec_s + tape_s + drift_s + merge_s;
    const double overhead = ratio(layer_sum - untraced_s, untraced_s);
    std::cout << w.name << ": layer self-times " << layer_sum
              << " s, untraced jobs=1 " << untraced_s << " s, overhead "
              << overhead << "\n";
    if (untraced_s >= kReconcileMinSeconds &&
        std::abs(overhead) > kMaxOverheadFrac) {
        out.failures.push_back(w.name + ": layer self-times differ from "
                                        "the untraced wall by more than " +
                               std::to_string(kMaxOverheadFrac));
        out.failed = out.attempted;
    }
    const double speedup = ratio(wall_j1, wall_jn);
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    out.metrics = {
        {"transpile.compile_s", compile_s, "s"},
        {"transpile.compiles", count(c.compiles), "count"},
        {"transpile.compile_cache_hit_ratio",
         ratio(count(c.compileCalls - c.compiles), count(c.compileCalls)),
         "ratio"},
        {"core.ensemble_s", ensemble_s, "s"},
        {"core.embeddings", count(c.embeddings), "count"},
        {"core.candidates", count(c.candidates), "count"},
        {"core.members", count(c.members), "count"},
        {"core.useful_ratio", ratio(count(c.members), count(c.candidates)),
         "ratio"},
        {"sim.exec_s", exec_s, "s"},
        {"sim.shots", count(c.shots), "count"},
        {"sim.shots_per_s", ratio(count(c.shots), exec_s), "1/s"},
        {"sim.ns_per_shot_op", ratio(exec_s * 1e9, c.shotOps), "ns"},
        {"sim.active_qubits", static_cast<double>(c.activeQubits), "count"},
        {"sim.tape_s", tape_s, "s"},
        {"sim.tapes", count(c.tapes), "count"},
        {"sim.tape_ops", count(c.tapeOps), "count"},
        {"sim.tape_cache_hit_ratio",
         ratio(count(c.tapeCalls - c.tapes), count(c.tapeCalls)), "ratio"},
        {"hw.drift_s", drift_s, "s"},
        {"stats.merge_s", merge_s, "s"},
        {"stats.merges", count(c.merges), "count"},
        {"runtime.speedup", speedup, "x"},
        {"runtime.efficiency", speedup / jobs, "ratio"},
        {"resilience.journal_bytes", count(journal_bytes), "bytes"},
        {"resilience.journal_records", count(journal_records), "count"},
        {"resilience.journal_overhead_s",
         w.resume ? tracer.selfSeconds("journal") - record_s : 0.0, "s"},
        {"resilience.replay_load_s", tracer.selfSeconds("replay"), "s"},
        {"resilience.restored_batches", count(restored), "count"},
        {"resilience.retries", count(retries), "count"},
        {"resilience.trials_lost", count(lost), "count"},
        {"resilience.trials_reassigned", count(reassigned), "count"},
        {"trace.layer_sum_s", layer_sum, "s"},
        {"trace.untraced_s", untraced_s, "s"},
        {"trace.overhead_frac", overhead, "ratio"},
    };
    return out;
}

} // namespace perfbench
