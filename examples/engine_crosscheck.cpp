/**
 * @file
 * Scenario example: validating results with independent engines.
 *
 * Runs the same Clifford workload (BV-6) through the three simulation
 * engines — stabilizer tableau, ideal state vector, and the noisy
 * executor — then uses the error-budget analyzer to show
 * which noise family explains the gap between ideal and noisy.
 *
 * Build & run:  ./build/examples/engine_crosscheck
 */

#include <chrono>
#include <iostream>

#include "analysis/report.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/ensemble.hpp"
#include "core/error_budget.hpp"
#include "hw/device.hpp"
#include "sim/executor.hpp"
#include "sim/stabilizer.hpp"
#include "stats/metrics.hpp"

int
main()
{
    using namespace qedm;
    using Clock = std::chrono::steady_clock;

    const auto bench = benchmarks::bv6();
    std::cout << "workload: " << bench.name << ", expected "
              << toBitstring(bench.expected, bench.outputWidth)
              << "\n\n";

    // 1. Stabilizer tableau (polynomial time; BV is Clifford).
    Rng rng(3);
    auto t0 = Clock::now();
    const auto tableau_counts =
        sim::runStabilizer(bench.circuit, 16384, rng);
    auto t1 = Clock::now();
    std::cout << "stabilizer engine: P(correct) = "
              << analysis::fmt(
                     double(tableau_counts.count(bench.expected)) /
                         double(tableau_counts.total()), 4)
              << "  ("
              << std::chrono::duration<double, std::milli>(t1 - t0)
                     .count()
              << " ms for 16384 shots)\n";

    // 2. Ideal state vector.
    const auto ideal = sim::idealDistribution(bench.circuit);
    std::cout << "state-vector engine: P(correct) = "
              << analysis::fmt(ideal.prob(bench.expected), 4) << "\n";

    // 3. Noisy executor on the modeled machine (this 7-qubit program
    //    samples its exact output law; larger registers run
    //    trajectories).
    const hw::Device device = hw::Device::melbourne(2);
    const core::EnsembleBuilder builder(device);
    const auto program = builder.candidates(bench.circuit).front();
    const sim::Executor exec(device);
    t0 = Clock::now();
    const auto noisy = stats::Distribution::fromCounts(
        exec.run(program.physical, 16384, rng));
    t1 = Clock::now();
    std::cout << "noisy executor:     P(correct) = "
              << analysis::fmt(noisy.prob(bench.expected), 4)
              << ", IST = "
              << analysis::fmt(stats::ist(noisy, bench.expected), 2)
              << "  ("
              << std::chrono::duration<double, std::milli>(t1 - t0)
                     .count()
              << " ms for 16384 shots)\n\n";

    // 4. Where did the probability go? Per-source error budget.
    const auto budget =
        core::errorBudget(device, program.physical, bench.expected);
    analysis::Table table({"noise family disabled", "PST",
                           "PST recovered"});
    for (const auto &entry : budget.entries) {
        table.addRow({entry.source,
                      analysis::fmt(entry.pstWithout, 4),
                      analysis::fmt(entry.pstRecovered, 4)});
    }
    std::cout << "error budget (base PST "
              << analysis::fmt(budget.basePst, 4) << "):\n"
              << table.toString();
    return 0;
}
