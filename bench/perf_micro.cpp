/**
 * @file
 * Microbenchmarks (google-benchmark) for the performance-critical
 * substrate paths: state-vector gate application, per-shot noisy
 * execution, exact density-matrix simulation, VF2 enumeration, and
 * routing/compilation.
 *
 * After the google-benchmark suite, three self-timed sweeps run:
 *  - a sim-kernel sweep over the guarded statevector/executor paths,
 *    writing one JSON object per kernel to BENCH_sim.json (each with a
 *    machine-normalized `per_cal` ratio against a fixed scalar
 *    calibration workload — the quantity the CI perf-guard compares,
 *    see bench/compare_bench.py);
 *  - a compile-path sweep over the guarded placement/routing kernels
 *    (pruned VF2 enumeration, bounded top-K placement search, the
 *    lookahead router, ensemble candidate generation and selection),
 *    writing BENCH_compile.json in the same format;
 *  - a runtime-scaling sweep timing a 4-round K=4 experiment at
 *    --jobs 1/2/4/8, writing BENCH_runtime.json plus the
 *    speedup-over-sequential summary to stdout.
 *
 * Passing --sim-sweep-only (or --compile-sweep-only) runs just that
 * self-timed sweep (no google-benchmark pass, no runtime sweep) so the
 * CI perf-guard job stays fast.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/ensemble.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/execution_tape.hpp"
#include "sim/executor.hpp"
#include "sim/statevector.hpp"
#include "transpile/placer.hpp"
#include "transpile/router.hpp"
#include "transpile/transpiler.hpp"
#include "transpile/vf2.hpp"

namespace {

using namespace qedm;

void
BM_StateVectorHadamard(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    const auto h = circuit::gateMatrix1q(circuit::OpKind::H, {});
    for (auto _ : state) {
        for (int q = 0; q < n; ++q)
            sv.apply1q(h, q);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StateVectorHadamard)->Arg(8)->Arg(11)->Arg(14);

void
BM_StateVectorCx(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    const auto cx = circuit::gateMatrix2q(circuit::OpKind::Cx);
    for (auto _ : state) {
        for (int q = 0; q + 1 < n; ++q)
            sv.apply2q(cx, q, q + 1);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_StateVectorCx)->Arg(8)->Arg(11)->Arg(14);

void
BM_NoisyShotsBv6(benchmark::State &state)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program =
        compiler.compile(benchmarks::bv6().circuit);
    const sim::Executor exec(device);
    const auto tape = sim::ExecutionTape::build(device, program.physical);
    Rng rng(1);
    const std::uint64_t shots =
        static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(exec.runTrajectories(tape, shots, rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(shots));
}
BENCHMARK(BM_NoisyShotsBv6)->Arg(256)->Arg(1024);

/** The exact law of @p bench compiled onto melbourne. */
void
exactDistribution(benchmark::State &state,
                  const benchmarks::Benchmark &bench)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto program = compiler.compile(bench.circuit);
    const auto tape = sim::ExecutionTape::build(device, program.physical);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::exactLaw(tape, device.calibration()));
    }
}

void
BM_ExactDistributionBv6(benchmark::State &state)
{
    exactDistribution(state, benchmarks::bv6());
}
BENCHMARK(BM_ExactDistributionBv6);

/** 8 active qubits: the largest exact-law register. */
void
BM_ExactDistributionBv7(benchmark::State &state)
{
    exactDistribution(state, benchmarks::bv7());
}
BENCHMARK(BM_ExactDistributionBv7);

void
BM_Vf2PathIntoMelbourne(benchmark::State &state)
{
    const hw::Topology pattern =
        hw::Topology::linear(static_cast<int>(state.range(0)));
    const hw::Topology target = hw::Topology::melbourne();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            transpile::vf2AllEmbeddings(pattern, target));
    }
}
BENCHMARK(BM_Vf2PathIntoMelbourne)->Arg(4)->Arg(7)->Arg(10);

void
BM_Vf2Enumerate(benchmark::State &state)
{
    // Cycle-n patterns exercise back-edge checks and the
    // neighborhood-signature filter harder than open paths.
    const int n = static_cast<int>(state.range(0));
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < n; ++v)
        edges.emplace_back(v, (v + 1) % n);
    const hw::Topology pattern(n, edges);
    const hw::Topology target = hw::Topology::melbourne();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            transpile::vf2AllEmbeddings(pattern, target));
    }
}
BENCHMARK(BM_Vf2Enumerate)->Arg(4)->Arg(8)->Arg(12);

void
BM_TopKPlacements(benchmark::State &state)
{
    // The acceptance kernel: K=4 placements of the 7-qubit QAOA path
    // on melbourne via branch-and-bound (pre-rewrite this cost a full
    // rankedEmbeddings materialize-then-sort).
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Placer placer(device);
    const auto logical = benchmarks::qaoaMaxcutPath(7).circuit;
    for (auto _ : state) {
        benchmark::DoNotOptimize(placer.topPlacements(logical, 4));
    }
}
BENCHMARK(BM_TopKPlacements);

/**
 * A 127-qubit heavy-hex device with a spread (non-uniform) synthetic
 * calibration. The spread matters: on a uniform-error device every
 * placement scores identically and the branch-and-bound never prunes
 * realistically.
 */
hw::Device
heavyHex127Device()
{
    return hw::Device::synthetic("heavy-hex-127",
                                 hw::Topology::heavyHex127(),
                                 hw::CalibrationSpec{}, hw::NoiseSpec{},
                                 7);
}

/** The 8x8 grid of the grid-recompile workload (calibration seed 7). */
hw::Device
grid8x8Device()
{
    return hw::Device::synthetic("grid-8x8", hw::Topology::grid(8, 8),
                                 hw::CalibrationSpec{}, hw::NoiseSpec{},
                                 7);
}

/** The 433-qubit Osprey-class equivalent of heavyHex127Device(). */
hw::Device
heavyHex433Device()
{
    return hw::Device::synthetic("heavy-hex-433",
                                 hw::Topology::heavyHex433(),
                                 hw::CalibrationSpec{}, hw::NoiseSpec{},
                                 7);
}

void
BM_TopKPlacementsHeavyHex127(benchmark::State &state)
{
    // Large-topology acceptance kernel: K=4 placements of the 7-qubit
    // QAOA path on a 127-qubit heavy-hex lattice. Exercises the
    // unmasked branch-and-bound search at that scale; it reads no
    // distances, and after the first iteration the Placer's
    // per-circuit memo serves the search plan.
    const hw::Device device = heavyHex127Device();
    const transpile::Placer placer(device);
    const auto logical = benchmarks::qaoaMaxcutPath(7).circuit;
    for (auto _ : state) {
        benchmark::DoNotOptimize(placer.topPlacements(logical, 4));
    }
}
BENCHMARK(BM_TopKPlacementsHeavyHex127);

void
BM_RouteBv(benchmark::State &state)
{
    // SWAP routing from a deliberately spread-out placement, hitting
    // the memoized all-pairs distance path on every gate.
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Router router(device,
                                   transpile::RouteCost::Reliability);
    const auto logical = benchmarks::bv6().circuit;
    const std::vector<int> spread = {0, 2, 4, 6, 8, 10, 12};
    for (auto _ : state) {
        benchmark::DoNotOptimize(router.route(logical, spread));
    }
}
BENCHMARK(BM_RouteBv);

void
BM_CompileBv6(benchmark::State &state)
{
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Transpiler compiler(device);
    const auto logical = benchmarks::bv6().circuit;
    for (auto _ : state) {
        benchmark::DoNotOptimize(compiler.compile(logical));
    }
}
BENCHMARK(BM_CompileBv6);

void
BM_EnsembleBuildBv6(benchmark::State &state)
{
    const hw::Device device = hw::Device::melbourne(2);
    const core::EnsembleBuilder builder(device);
    const auto logical = benchmarks::bv6().circuit;
    for (auto _ : state) {
        benchmark::DoNotOptimize(builder.build(logical));
    }
}
BENCHMARK(BM_EnsembleBuildBv6);

/**
 * Time one full 4-round K=4 experiment at @p jobs workers and return
 * wall milliseconds (best of @p reps).
 */
double
timeExperimentMs(int jobs, int reps = 3)
{
    const hw::Device device = hw::Device::melbourne(2);
    const benchmarks::Benchmark bench = benchmarks::bv6();
    core::ExperimentConfig config;
    config.rounds = 4;
    config.ensembleSize = 4;
    config.totalShots = 16384;
    config.jobs = jobs;

    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        auto summary = core::runExperiment(device, bench, config, 11);
        benchmark::DoNotOptimize(summary);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/**
 * Wall-time one callable: @p warmup throwaway runs, then best of
 * @p reps timed runs (best-of suppresses scheduler noise better than
 * the mean on shared CI machines).
 */
template <typename Fn>
double
timeBestNs(const Fn &fn, int reps, int warmup = 1)
{
    double best = 0.0;
    for (int r = 0; r < warmup + reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const double ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (r >= warmup && (r == warmup || ns < best))
            best = ns;
    }
    return best;
}

/**
 * Calibration workload: a fixed serial scalar FP chain, independent of
 * every qedm code path. Its wall time tracks the host's scalar
 * floating-point latency, so kernel times divided by it (`per_cal`)
 * are comparable across machines of different speeds — a real kernel
 * regression moves the ratio, a slower CI machine does not.
 */
double
calibrationNs()
{
    return timeBestNs(
        [] {
            double x = 1.0;
            for (int i = 0; i < 8'000'000; ++i)
                x = x * 0.999999 + 1e-7;
            benchmark::DoNotOptimize(x);
        },
        5);
}

/**
 * Sim-kernel sweep over the hot paths guarded by CI: statevector
 * butterfly/diagonal/permutation kernels, Kraus sampling, the noisy
 * and deterministic shot loops, and exact density-matrix simulation.
 * Emits one JSON object per line to BENCH_sim.json.
 */
void
runSimKernelSweep()
{
    const double cal_ns = calibrationNs();

    std::ofstream json("BENCH_sim.json");
    std::cout << "\nsim-kernel sweep (best-of wall times, per_cal = "
                 "wall_ns / calibration):\n";
    auto emit = [&](const std::string &name, double wall_ns) {
        json << "{\"bench\":\"" << name << "\",\"wall_ns\":" << wall_ns
             << ",\"per_cal\":" << wall_ns / cal_ns << "}\n";
        std::cout << "  " << name << ": " << wall_ns * 1e-6 << " ms ("
                  << wall_ns / cal_ns << " per_cal)\n";
    };
    emit("calibration", cal_ns);

    // Gate kernels on a 14-qubit state (2^14 amplitudes), one layer
    // across all qubits per run — same shape as the google-benchmark
    // BM_StateVector* cases.
    {
        sim::StateVector sv(14);
        const auto h = circuit::gateMatrix1q(circuit::OpKind::H, {});
        emit("sv_h_14", timeBestNs(
                            [&] {
                                for (int q = 0; q < 14; ++q)
                                    sv.apply1q(h, q);
                                benchmark::DoNotOptimize(
                                    sv.amplitudes().data());
                            },
                            20, 3));
    }
    {
        sim::StateVector sv(14);
        const auto cx = circuit::gateMatrix2q(circuit::OpKind::Cx);
        emit("sv_cx_14", timeBestNs(
                             [&] {
                                 for (int q = 0; q + 1 < 14; ++q)
                                     sv.apply2q(cx, q, q + 1);
                                 benchmark::DoNotOptimize(
                                     sv.amplitudes().data());
                             },
                             20, 3));
    }
    {
        sim::StateVector sv(14);
        const auto rz =
            circuit::gateMatrix1q(circuit::OpKind::Rz, {0.37});
        emit("sv_rz_14", timeBestNs(
                             [&] {
                                 for (int q = 0; q < 14; ++q)
                                     sv.apply1q(rz, q);
                                 benchmark::DoNotOptimize(
                                     sv.amplitudes().data());
                             },
                             20, 3));
    }
    {
        // Kraus sampling with norm tracking: a damping channel swept
        // across every qubit (the dominant no-event branch each time).
        sim::StateVector sv(14);
        const auto damp = sim::amplitudeDamping(1e-3);
        Rng rng(99);
        emit("sv_kraus_14", timeBestNs(
                                [&] {
                                    for (int q = 0; q < 14; ++q)
                                        sv.applyKraus1q(damp, q, rng);
                                    benchmark::DoNotOptimize(
                                        sv.amplitudes().data());
                                },
                                20, 3));
    }

    // The trajectory shot loop on a prebuilt compiled-bv-6 tape (the
    // engine registers above sim::kExactLawMaxQubits run on), and the
    // fused density-matrix law smaller registers sample from.
    {
        const hw::Device device = hw::Device::melbourne(2);
        const transpile::Transpiler compiler(device);
        const auto program =
            compiler.compile(benchmarks::bv6().circuit);
        const auto tape =
            sim::ExecutionTape::build(device, program.physical);
        const sim::Executor exec(device);
        Rng rng(1);
        emit("noisy_shots_bv6_1024",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         exec.runTrajectories(tape, 1024, rng));
                 },
                 5));
        emit("exact_bv6", timeBestNs(
                              [&] {
                                  benchmark::DoNotOptimize(sim::exactLaw(
                                      tape, device.calibration()));
                              },
                              50));
        // bv-7 compiles to 8 active qubits, the largest exact-law
        // register.
        const auto tape_bv7 = sim::ExecutionTape::build(
            device, compiler.compile(benchmarks::bv7().circuit).physical);
        emit("exact_bv7", timeBestNs(
                              [&] {
                                  benchmark::DoNotOptimize(sim::exactLaw(
                                      tape_bv7, device.calibration()));
                              },
                              50));
        // qaoa-7 lists its closing Rx mixers after every CX: the member
        // shape that gains most from finishing each qubit at its last
        // 2-qubit pass (DESIGN.md §19).
        const auto tape_qaoa7 = sim::ExecutionTape::build(
            device, compiler.compile(benchmarks::qaoa7().circuit).physical);
        emit("exact_qaoa7", timeBestNs(
                                [&] {
                                    benchmark::DoNotOptimize(sim::exactLaw(
                                        tape_qaoa7, device.calibration()));
                                },
                                50));
        // One round's trial budget drawn from that prebuilt law: the
        // guide-table sampler every exact-law trial goes through.
        emit("law_shots_bv7_16384",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         exec.run(tape_bv7, 16384, rng));
                 },
                 50));
    }
    {
        // Coherent-only device: the tape is deterministic, so this
        // times the trajectory engine's evolve-once fast path, whose
        // shots are guided draws from the one evolved state.
        hw::NoiseSpec spec;
        spec.coherentScale = 1.5;
        spec.stochasticScale = 0.0;
        spec.correlatedReadoutScale = 0.0;
        spec.enableDecoherence = false;
        const hw::Device device = hw::Device::melbourne(41, spec);
        const transpile::Transpiler compiler(device);
        const auto program =
            compiler.compile(benchmarks::bv6().circuit);
        const auto tape =
            sim::ExecutionTape::build(device, program.physical);
        const sim::Executor exec(device);
        Rng rng(777);
        emit("deterministic_shots_bv6_4096",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         exec.runTrajectories(tape, 4096, rng));
                 },
                 5));
    }
}

/**
 * Compile-path sweep over the placement/routing kernels guarded by CI:
 * pruned VF2 enumeration, the bounded top-K placement search, SWAP
 * routing from a spread-out placement, and ensemble candidate
 * generation and selection. Emits one JSON object per line to
 * BENCH_compile.json, `per_cal`-normalized exactly like the sim sweep.
 */
void
runCompileSweep()
{
    const double cal_ns = calibrationNs();

    std::ofstream json("BENCH_compile.json");
    std::cout << "\ncompile-path sweep (best-of wall times, per_cal = "
                 "wall_ns / calibration):\n";
    auto emit = [&](const std::string &name, double wall_ns) {
        json << "{\"bench\":\"" << name << "\",\"wall_ns\":" << wall_ns
             << ",\"per_cal\":" << wall_ns / cal_ns << "}\n";
        std::cout << "  " << name << ": " << wall_ns * 1e-6 << " ms ("
                  << wall_ns / cal_ns << " per_cal)\n";
    };
    emit("calibration", cal_ns);

    const hw::Device device = hw::Device::melbourne(2);
    {
        // Cycle-8 into the melbourne ladder: back-edge-heavy pruned
        // VF2 enumeration.
        std::vector<std::pair<int, int>> edges;
        for (int v = 0; v < 8; ++v)
            edges.emplace_back(v, (v + 1) % 8);
        const hw::Topology pattern(8, edges);
        const hw::Topology target = hw::Topology::melbourne();
        emit("vf2_cycle8_melbourne",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         transpile::vf2AllEmbeddings(pattern, target));
                 },
                 10, 2));
    }
    {
        const transpile::Placer placer(device);
        const auto logical = benchmarks::qaoaMaxcutPath(7).circuit;
        emit("topk_qaoa7path_k4",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         placer.topPlacements(logical, 4));
                 },
                 10, 2));
    }
    {
        // 127-qubit heavy-hex placement: the large-topology guard.
        const hw::Device hex = heavyHex127Device();
        const transpile::Placer placer(hex);
        const auto logical = benchmarks::qaoaMaxcutPath(7).circuit;
        emit("topk_heavyhex127_k4",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         placer.topPlacements(logical, 4));
                 },
                 5, 1));
    }
    {
        // 433-qubit heavy-hex placement: the Osprey-class scale
        // target (must stay far under a second).
        const hw::Device hex = heavyHex433Device();
        const transpile::Placer placer(hex);
        const auto logical = benchmarks::qaoaMaxcutPath(7).circuit;
        emit("topk_heavyhex433_k4",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         placer.topPlacements(logical, 4));
                 },
                 5, 1));
    }
    {
        const transpile::Router router(
            device, transpile::RouteCost::Reliability);
        const auto logical = benchmarks::bv6().circuit;
        const std::vector<int> spread = {0, 2, 4, 6, 8, 10, 12};
        emit("route_bv6_spread",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         router.route(logical, spread));
                 },
                 10, 2));
    }
    {
        const core::EnsembleBuilder builder(device);
        const auto logical = benchmarks::bv6().circuit;
        emit("ensemble_candidates_bv6",
             timeBestNs(
                 [&] {
                     benchmark::DoNotOptimize(
                         builder.candidates(logical));
                 },
                 5, 1));
        // build(), the call the EDM pipeline makes: one bounded
        // search per member, materializing only the members it returns.
        emit("ensemble_build_bv6",
             timeBestNs(
                 [&] { benchmark::DoNotOptimize(builder.build(logical)); },
                 5, 1));
    }
    {
        // build() where enumerating every embedding is expensive: the
        // routed bv-6 seed pattern has 2,956,608 embeddings on the 8x8
        // grid, more than vf2Limit. A return to enumerate-all costs
        // orders of magnitude here.
        const hw::Device grid = grid8x8Device();
        const core::EnsembleBuilder builder(grid);
        const auto logical = benchmarks::bv6().circuit;
        emit("ensemble_build_grid_bv6",
             timeBestNs(
                 [&] { benchmark::DoNotOptimize(builder.build(logical)); },
                 5, 1));
        // The grid-recompile shape: one build per drifted calibration.
        // The seed pattern's two isolated vertices make every pick's
        // search end in unanchored depths, whose children come from
        // presorted host lists and whose pruned siblings are cut in
        // bulk (DESIGN.md §18).
        std::vector<hw::Device> drifted;
        Rng drift(5);
        for (int round = 0; round < 5; ++round)
            drifted.push_back(grid.driftedRound(drift));
        emit("ensemble_build_grid_bv6_drift5",
             timeBestNs(
                 [&] {
                     for (const hw::Device &d : drifted) {
                         benchmark::DoNotOptimize(
                             core::EnsembleBuilder(d).build(logical));
                     }
                 },
                 5, 1));
    }
}

/** Jobs-scaling sweep; emits BENCH_runtime.json and a stdout table. */
void
runRuntimeScalingSweep()
{
    const int jobs_sweep[] = {1, 2, 4, 8};
    std::ofstream json("BENCH_runtime.json");
    std::cout << "\nruntime scaling (4-round K=4 experiment, bv-6, "
                 "16384 shots):\n";
    double sequential_ms = 0.0;
    for (int jobs : jobs_sweep) {
        const double ms = timeExperimentMs(jobs);
        if (jobs == 1)
            sequential_ms = ms;
        const double speedup = sequential_ms / ms;
        json << "{\"bench\":\"experiment_4r_k4_bv6\",\"jobs\":" << jobs
             << ",\"wall_ms\":" << ms << ",\"speedup\":" << speedup
             << "}\n";
        std::cout << "  jobs " << jobs << ": " << ms << " ms ("
                  << speedup << "x)\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // CI perf-guard modes: only the requested self-timed sweep.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sim-sweep-only") == 0) {
            runSimKernelSweep();
            return 0;
        }
        if (std::strcmp(argv[i], "--compile-sweep-only") == 0) {
            runCompileSweep();
            return 0;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runSimKernelSweep();
    runCompileSweep();
    runRuntimeScalingSweep();
    return 0;
}
