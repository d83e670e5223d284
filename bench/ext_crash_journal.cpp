/**
 * @file
 * Extension study: cost of crash-safety. Runs the bv-6 experiment
 * three ways — bare, journaled (one record per completed work unit and
 * round, fsync'd only at each round commit), and resumed from a
 * half-truncated journal — and reports wall time plus the journal's
 * size, fsync count and restored batches. The durability tax is the
 * journaled-vs-bare delta; the resume row shows the payoff: committed
 * rounds restore without recompiling or re-executing, and every round
 * stays bit-identical.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/experiment.hpp"
#include "resilience/journal.hpp"
#include "runtime/clock.hpp"

namespace {

bool
sameOutcome(const qedm::core::PolicyOutcome &a,
            const qedm::core::PolicyOutcome &b)
{
    return a.ist == b.ist && a.pst == b.pst;
}

/** Bit-exact comparison of every round's four policies and the totals. */
bool
sameSummary(const qedm::core::ExperimentSummary &a,
            const qedm::core::ExperimentSummary &b)
{
    if (a.rounds.size() != b.rounds.size())
        return false;
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        const auto &x = a.rounds[r];
        const auto &y = b.rounds[r];
        if (!sameOutcome(x.baselineEst, y.baselineEst) ||
            !sameOutcome(x.baselinePost, y.baselinePost) ||
            !sameOutcome(x.edm, y.edm) || !sameOutcome(x.wedm, y.wedm))
            return false;
    }
    return a.trialsLost == b.trialsLost &&
           a.trialsReassigned == b.trialsReassigned &&
           a.retriesTotal == b.retriesTotal;
}

} // namespace

int
main()
{
    using namespace qedm;
    bench::banner("Extension: crash journal",
                  "overhead and payoff of journaled execution");

    const std::uint64_t seed = 7;
    const hw::Device device = hw::Device::melbourne(seed);
    const auto bench_def = benchmarks::byName("bv-6");
    core::ExperimentConfig config;
    config.rounds = 6;
    config.totalShots = 8192;
    config.jobs = 4;

    const runtime::Clock &clock = runtime::steadyClock();
    const std::string path = "crash_journal_bench.bin";

    const double bare_start = clock.nowMs();
    const auto bare =
        core::runExperiment(device, bench_def, config, seed);
    const double bare_ms = clock.nowMs() - bare_start;

    double journaled_ms = 0.0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_syncs = 0;
    std::size_t batches = 0;
    {
        core::ExperimentConfig recording = config;
        resilience::Journal journal = resilience::Journal::create(
            path, core::experimentFingerprint(device, bench_def,
                                              recording, seed));
        recording.journal = &journal;
        const double start = clock.nowMs();
        core::runExperiment(device, bench_def, recording, seed);
        journaled_ms = clock.nowMs() - start;
        journal_syncs = journal.syncCount();
    }
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        journal_bytes = static_cast<std::uint64_t>(in.tellg());
    }

    // Crash simulation: keep only the first half of the journal, then
    // resume — recorded units restore instead of re-executing.
    double resumed_ms = 0.0;
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        bytes.resize(bytes.size() / 2);
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    {
        core::ExperimentConfig resuming = config;
        const resilience::JournalReplay replay =
            resilience::JournalReplay::load(path);
        batches = replay.batchCount();
        resilience::Journal journal =
            resilience::Journal::resume(path, replay.validBytes());
        resuming.replay = &replay;
        resuming.journal = &journal;
        const double start = clock.nowMs();
        const auto resumed =
            core::runExperiment(device, bench_def, resuming, seed);
        resumed_ms = clock.nowMs() - start;
        if (!sameSummary(resumed, bare)) {
            std::cout << "ERROR: resumed summary diverged from the "
                         "bare run\n";
            return 1;
        }
    }

    analysis::Table table({"mode", "wall ms", "notes"});
    table.addRow({"bare", analysis::fmt(bare_ms, 1), "no journal"});
    table.addRow({"journaled", analysis::fmt(journaled_ms, 1),
                  std::to_string(journal_bytes) + " bytes on disk, " +
                      std::to_string(journal_syncs) + " fsyncs"});
    table.addRow({"resumed (half journal)",
                  analysis::fmt(resumed_ms, 1),
                  std::to_string(batches) + " batches restored"});
    std::cout << table.toString() << "\njournal overhead "
              << analysis::fmt(journaled_ms - bare_ms, 1)
              << " ms; resumed summary bit-identical to the bare run\n";
    std::remove(path.c_str());
    return 0;
}
