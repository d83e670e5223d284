/**
 * @file
 * Extension study: statistical confidence of the inference. IST is
 * estimated from finitely many trials; this bench attaches bootstrap
 * 95% confidence intervals to the baseline and EDM IST estimates on
 * BV-6, showing when "IST > 1" is actually resolved by the shot
 * budget — the quantitative version of the paper's inference-quality
 * argument.
 */

#include <iostream>
#include <string>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/edm.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"

int
main()
{
    using namespace qedm;
    bench::banner("Extension: IST confidence",
                  "bootstrap 95% intervals on baseline vs EDM IST");

    const auto bv6 = benchmarks::bv6();
    const hw::Device device = bench::paperMachine();
    const sim::Executor exec(device);

    analysis::Table table({"shots", "policy", "IST", "95% CI",
                           "IST>1 resolved?"});
    for (std::uint64_t shots : {1024ull, 4096ull, 16384ull}) {
        core::EdmConfig config;
        config.totalShots = shots;
        const core::EdmPipeline pipeline(device, config);
        Rng rng(7);
        const auto result = pipeline.run(bv6.circuit, rng);

        // Rebuild EDM as a merged COUNTS object for bootstrap: pool
        // the members' shot logs.
        stats::Counts pooled(bv6.outputWidth);
        for (const auto &member : result.members) {
            Rng member_rng(rng.split());
            pooled.merge(member.output.sample(member_rng,
                                              member.shots));
        }
        const auto baseline_counts = exec.run(
            result.members.front().program.physical, shots, rng);

        for (int which = 0; which < 2; ++which) {
            const stats::Counts &counts =
                which == 0 ? baseline_counts : pooled;
            Rng boot_rng(41);
            const auto ci = stats::istConfidenceInterval(
                counts, bv6.expected, boot_rng, 300, 0.95);
            const bool resolved = ci.lower > 1.0 || ci.upper < 1.0;
            std::string interval = "[";
            interval += analysis::fmt(ci.lower, 2);
            interval += ", ";
            interval += analysis::fmt(ci.upper, 2);
            interval += "]";
            table.addRow(
                {std::to_string(shots),
                 which == 0 ? "single best" : "EDM (pooled members)",
                 analysis::fmt(ci.pointEstimate, 2), interval,
                 resolved ? "yes" : "no"});
        }
        std::cout << "." << std::flush;
    }
    std::cout << "\n\n" << table.toString()
              << "\nwide intervals at small shot budgets mean the "
                 "machine cannot certify its own answer;\nEDM must "
                 "clear IST = 1 by more than the sampling error to "
                 "help in practice\n";
    return 0;
}
