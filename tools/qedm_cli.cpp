/**
 * @file
 * qedm command-line driver.
 *
 * Subcommands:
 *   list                          all built-in benchmarks
 *   show <bench>                  logical QASM + metadata
 *   compile <bench> [seed]        variation-aware compile; physical
 *                                 QASM, ESP, SWAP count
 *   candidates <bench> [seed]     ranked isomorphic placements
 *   run <bench> [seed] [shots]    baseline vs EDM vs WEDM one-shot
 *   experiment <bench> [seed]     multi-round median experiment
 *
 * `run` and `experiment` accept `--jobs N` anywhere on the line:
 * N worker threads (0 = all hardware threads, default 1). Results are
 * bit-identical for every N.
 *
 * `--sim-batch B` sets the trajectory engine's SoA lane width
 * (0 = scalar per-shot path). Throughput only — results are
 * bit-identical at every width.
 *
 * `--check` (anywhere on the line) runs the qedm::check static
 * verifier passes over every compiled program: compile/candidates
 * verify the transpiler output, run/experiment verify every ensemble
 * member of every round. Debug builds verify always; `--check` is
 * how release builds opt in.
 *
 * Resilience flags (run/experiment, anywhere on the line):
 *   --faults <spec>              enable fault injection; spec is a
 *                                comma list of key=value pairs among
 *                                dropout, staleness,
 *                                staleness-severity, transient, slow,
 *                                slow-factor, batch-ms-per-shot
 *   --fail-member <m>            force member m to drop out (repeat
 *                                for several members)
 *   --retry-max <n>              retries per shot batch (default 2)
 *   --member-deadline-ms <ms>    virtual-time budget per member
 *   --min-trials-per-member <n>  keep floor for partial results
 * Fault schedules are a pure function of the seed and the fault
 * config, so a faulted run replays bit-identically at any --jobs.
 *
 * Region flags (compile/candidates/run/experiment, anywhere on the
 * line):
 *   --region q0,q1,...           restrict placement, routing, and
 *                                measurement to the listed physical
 *                                qubits (an allowed-region mask)
 *   --region-file <path>         same, reading whitespace- or
 *                                newline-separated qubit indices
 * Omitting both uses the whole device and is bit-identical to builds
 * that predate the flags.
 *
 * Crash-safety flags (experiment only, anywhere on the line):
 *   --journal <path>         record every completed batch and round
 *                            into a crash-safe journal (checksummed,
 *                            append-only, fsync'd at round commits)
 *   --resume <path>          resume a crashed journaled run: committed
 *                            rounds and batches are restored, recorded
 *                            wall-clock fires are forced, and the
 *                            summary is bit-identical to an
 *                            uninterrupted run at any --jobs
 *   --replay-faults <path>   re-execute everything but force the
 *                            journal's recorded wall-clock fires (and
 *                            disable the live watchdog), reproducing a
 *                            watchdog-hit run bit-identically
 *   --wall-deadline-ms <ms>  real wall-clock budget per member per
 *                            round; the watchdog abandons a member
 *                            that blows it and records the fire
 * Journal progress notes print to stderr; stdout stays diffable.
 *
 * Exit code 0 on success, 1 on a usage/user error (including a
 * verifier rejection, an ensemble that lost every member, and a
 * corrupt or mismatched journal).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "benchmarks/benchmarks.hpp"
#include "check/check.hpp"
#include "common/error.hpp"
#include "benchmarks/extra.hpp"
#include "core/edm.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"
#include "resilience/degradation.hpp"
#include "resilience/journal.hpp"
#include "stats/metrics.hpp"
#include "transpile/transpiler.hpp"

namespace {

using namespace qedm;

std::vector<benchmarks::Benchmark>
allBenchmarks()
{
    auto suite = benchmarks::paperSuite();
    for (auto &extra : benchmarks::extraSuite())
        suite.push_back(std::move(extra));
    return suite;
}

benchmarks::Benchmark
lookup(const std::string &name)
{
    for (const auto &b : allBenchmarks()) {
        if (b.name == name)
            return b;
    }
    throw UserError("unknown benchmark `" + name +
                    "`; run `qedm_cli list`");
}

int
cmdList()
{
    analysis::Table table({"name", "description", "output", "qubits"});
    for (const auto &b : allBenchmarks()) {
        table.addRow({b.name, b.description,
                      toBitstring(b.expected, b.outputWidth),
                      std::to_string(b.circuit.numQubits())});
    }
    std::cout << table.toString();
    return 0;
}

int
cmdShow(const std::string &name)
{
    const auto b = lookup(name);
    const auto counts = b.circuit.countGates();
    std::cout << b.name << ": " << b.description << "\n"
              << "expected output: "
              << toBitstring(b.expected, b.outputWidth) << "\n"
              << "gates: SG " << counts.singleQubit << ", CX "
              << counts.twoQubit << ", M " << counts.measure
              << ", depth " << b.circuit.depth() << "\n\n"
              << b.circuit.toQasm();
    return 0;
}

/** The device view a subcommand operates on (full when no --region). */
hw::DeviceView
viewFor(const hw::Device &device, const std::vector<int> &region)
{
    return region.empty() ? hw::DeviceView(device)
                          : hw::DeviceView(device, region);
}

int
cmdCompile(const std::string &name, std::uint64_t seed, bool verify,
           const std::vector<int> &region)
{
    const auto b = lookup(name);
    const hw::Device device = hw::Device::melbourne(seed);
    const transpile::Transpiler compiler(
        viewFor(device, region), transpile::RouteCost::Reliability,
        verify);
    const auto program = compiler.compile(b.circuit);
    std::cout << "device " << device.name() << " (seed " << seed
              << ")\nESP " << analysis::fmt(program.esp) << ", "
              << program.swapCount << " SWAPs, qubits";
    for (int q : program.usedQubits())
        std::cout << " " << q;
    std::cout << "\n\n" << program.physical.toQasm();
    return 0;
}

int
cmdCandidates(const std::string &name, std::uint64_t seed, bool verify,
              const std::vector<int> &region)
{
    const auto b = lookup(name);
    const hw::Device device = hw::Device::melbourne(seed);
    core::EnsembleConfig ensemble_config;
    ensemble_config.verifyPasses |= verify;
    ensemble_config.region = region;
    const core::EnsembleBuilder builder(device, ensemble_config);
    const auto all = builder.candidates(b.circuit);
    analysis::Table table({"rank", "ESP", "qubits"});
    const std::size_t show = std::min<std::size_t>(all.size(), 12);
    for (std::size_t i = 0; i < show; ++i) {
        std::string qubits;
        for (int q : all[i].usedQubits())
            qubits += std::to_string(q) + " ";
        table.addRow({std::to_string(i),
                      analysis::fmt(all[i].esp), qubits});
    }
    std::cout << all.size() << " isomorphic placements; top " << show
              << ":\n"
              << table.toString();
    return 0;
}

/** Parse one double with a clear error naming the offending flag. */
double
parseDouble(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || parsed < 0.0)
        throw UserError(flag + " expects a non-negative number, got `" +
                        value + "`");
    return parsed;
}

/** Parse one non-negative integer with a flag-naming error. */
long
parseCount(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || parsed < 0)
        throw UserError(flag + " expects a non-negative integer, got `" +
                        value + "`");
    return parsed;
}

/** Parse a `--region` spec: a comma list of physical qubit indices. */
std::vector<int>
parseRegionSpec(const std::string &spec)
{
    std::vector<int> region;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(start, comma - start);
        start = comma + 1;
        if (entry.empty())
            continue;
        region.push_back(
            static_cast<int>(parseCount("--region", entry)));
    }
    if (region.empty())
        throw UserError("--region expects at least one qubit index");
    return region;
}

/** Read a `--region-file`: whitespace-separated qubit indices. */
std::vector<int>
parseRegionFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw UserError("--region-file: cannot open `" + path + "`");
    std::vector<int> region;
    std::string token;
    while (in >> token) {
        region.push_back(
            static_cast<int>(parseCount("--region-file", token)));
    }
    if (region.empty())
        throw UserError("--region-file `" + path +
                        "` contains no qubit indices");
    return region;
}

/**
 * Parse a `--faults` spec: a comma list of key=value pairs, e.g.
 * `dropout=0.25,transient=0.1,slow=0.2,slow-factor=32`.
 */
resilience::FaultConfig
parseFaultSpec(const std::string &spec)
{
    resilience::FaultConfig faults;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string pair = spec.substr(start, comma - start);
        start = comma + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            throw UserError("--faults entries must look like "
                            "key=value, got `" +
                            pair + "`");
        const std::string key = pair.substr(0, eq);
        const double value =
            parseDouble("--faults " + key, pair.substr(eq + 1));
        if (key == "dropout")
            faults.dropoutProb = value;
        else if (key == "staleness")
            faults.stalenessProb = value;
        else if (key == "staleness-severity")
            faults.stalenessSeverity = value;
        else if (key == "transient")
            faults.transientProb = value;
        else if (key == "slow")
            faults.slowProb = value;
        else if (key == "slow-factor")
            faults.slowFactor = value;
        else if (key == "batch-ms-per-shot")
            faults.batchMsPerShot = value;
        else
            throw UserError("unknown --faults key `" + key + "`");
    }
    return faults;
}

int
cmdRun(const std::string &name, std::uint64_t seed,
       std::uint64_t shots, int jobs, long sim_batch, bool verify,
       const resilience::ResilienceConfig &resilience,
       const std::vector<int> &region)
{
    const auto b = lookup(name);
    const hw::Device device = hw::Device::melbourne(seed);
    core::EdmConfig config;
    config.totalShots = shots;
    config.jobs = jobs;
    if (sim_batch >= 0)
        config.simBatch = static_cast<std::size_t>(sim_batch);
    config.verifyPasses |= verify;
    config.resilience = resilience;
    config.ensemble.region = region;
    const core::EdmPipeline pipeline(device, config);
    Rng rng(seed * 1000 + 1);
    const auto result = pipeline.run(b.circuit, rng);
    const auto baseline =
        pipeline.runSingle(result.members.front().program, rng);

    analysis::Table table({"policy", "PST", "IST"});
    auto add = [&](const std::string &policy,
                   const stats::Distribution &dist) {
        table.addRow({policy,
                      analysis::fmt(stats::pst(dist, b.expected), 4),
                      analysis::fmt(stats::ist(dist, b.expected), 2)});
    };
    add("single best mapping", baseline);
    add("EDM", result.edm);
    add("WEDM", result.wedm);
    std::cout << table.toString() << "\nEDM distribution:\n"
              << analysis::distributionReport(result.edm, b.expected,
                                              8);
    if (resilience.active())
        std::cout << "\n" << result.degradation.toString();
    return 0;
}

int
cmdExperiment(const std::string &name, std::uint64_t seed, int jobs,
              long sim_batch, bool verify,
              const resilience::ResilienceConfig &resilience,
              const std::vector<int> &region,
              const std::string &journal_path,
              const std::string &resume_path,
              const std::string &replay_path)
{
    const auto b = lookup(name);
    const hw::Device device = hw::Device::melbourne(seed);
    core::ExperimentConfig config;
    config.jobs = jobs;
    if (sim_batch >= 0)
        config.simBatch = static_cast<std::size_t>(sim_batch);
    config.verifyPasses |= verify;
    config.resilience = resilience;
    config.region = region;

    // Journal wiring. Progress notes go to stderr so stdout stays
    // byte-diffable against an uninterrupted run's output.
    std::optional<resilience::JournalReplay> replay;
    std::optional<resilience::Journal> journal;
    if (!resume_path.empty()) {
        replay.emplace(resilience::JournalReplay::load(resume_path));
        replay->requireMatches(
            core::experimentFingerprint(device, b, config, seed));
        if (replay->truncatedTail())
            std::cerr << "journal: discarded a torn tail record\n";
        std::cerr << "journal: resuming from " << resume_path << " ("
                  << replay->roundCount() << " committed round(s), "
                  << replay->batchCount() << " recorded batch(es))\n";
        journal.emplace(resilience::Journal::resume(
            resume_path, replay->validBytes()));
        config.replay = &*replay;
        config.journal = &*journal;
    } else if (!replay_path.empty()) {
        replay.emplace(resilience::JournalReplay::load(replay_path));
        config.replay = &*replay;
        config.replayFaultsOnly = true;
        std::cerr << "journal: replaying recorded wall-clock faults "
                     "from "
                  << replay_path << "\n";
    } else if (!journal_path.empty()) {
        journal.emplace(resilience::Journal::create(
            journal_path,
            core::experimentFingerprint(device, b, config, seed)));
        config.journal = &*journal;
    }

    const auto summary = core::runExperiment(device, b, config, seed);
    analysis::Table table({"policy", "median IST", "median PST"});
    table.addRow({"baseline (compile-time best)",
                  analysis::fmt(summary.median.baselineEst.ist, 2),
                  analysis::fmt(summary.median.baselineEst.pst, 4)});
    table.addRow({"baseline (post-execution best)",
                  analysis::fmt(summary.median.baselinePost.ist, 2),
                  analysis::fmt(summary.median.baselinePost.pst, 4)});
    table.addRow({"EDM", analysis::fmt(summary.median.edm.ist, 2),
                  analysis::fmt(summary.median.edm.pst, 4)});
    table.addRow({"WEDM", analysis::fmt(summary.median.wedm.ist, 2),
                  analysis::fmt(summary.median.wedm.pst, 4)});
    std::cout << summary.rounds.size() << " rounds on "
              << device.name() << "\n"
              << table.toString() << "\nEDM gain "
              << analysis::fmt(summary.edmIstGain(), 2)
              << "x, WEDM gain "
              << analysis::fmt(summary.wedmIstGain(), 2) << "x\n";
    // Replay mode injects forced wall faults per round inside
    // runExperiment, so the CLI-level config alone cannot tell whether
    // degradation reporting ran; treat replay as resilience-active so
    // the replayed stdout matches the live run's byte-for-byte.
    if (resilience.active() || !replay_path.empty()) {
        std::cout << "resilience: " << summary.degradedRounds << "/"
                  << summary.rounds.size() << " rounds degraded, "
                  << summary.trialsLost << " trial(s) lost, "
                  << summary.trialsReassigned << " reassigned, "
                  << summary.retriesTotal << " retries\n";
        for (std::size_t r = 0; r < summary.rounds.size(); ++r) {
            const auto &deg = summary.rounds[r].degradation;
            if (deg.degraded())
                std::cout << "round " << r << ": " << deg.toString();
        }
    }
    return 0;
}

int
usage()
{
    std::cerr << "usage: qedm_cli <list|show|compile|candidates|run|"
                 "experiment> [benchmark] [seed] [shots] [--jobs N] "
                 "[--sim-batch B] [--check] "
                 "[--region q0,q1,...] [--region-file PATH] "
                 "[--faults SPEC] [--fail-member M] "
                 "[--retry-max N] [--member-deadline-ms MS] "
                 "[--min-trials-per-member N] "
                 "[--journal PATH | --resume PATH | "
                 "--replay-faults PATH] [--wall-deadline-ms MS]\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        // Split `--jobs N` / `--check` (accepted anywhere) out of the
        // positionals.
        std::vector<std::string> pos;
        int jobs = 1;
        long sim_batch = -1; // -1 = keep the EdmConfig default
        bool verify = qedm::check::kDefaultVerify;
        qedm::resilience::ResilienceConfig resilience;
        std::vector<int> region;
        std::string journal_path, resume_path, replay_path;
        const auto flagValue = [&](int &i) -> std::string {
            if (i + 1 >= argc)
                throw qedm::UserError(std::string(argv[i]) +
                                      " expects a value");
            return argv[++i];
        };
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--check") {
                verify = true;
                continue;
            }
            if (arg == "--jobs") {
                jobs = static_cast<int>(
                    parseCount("--jobs", flagValue(i)));
            } else if (arg == "--sim-batch") {
                sim_batch = parseCount("--sim-batch", flagValue(i));
            } else if (arg == "--region") {
                region = parseRegionSpec(flagValue(i));
            } else if (arg == "--region-file") {
                region = parseRegionFile(flagValue(i));
            } else if (arg == "--faults") {
                resilience.faults = parseFaultSpec(flagValue(i));
            } else if (arg == "--fail-member") {
                resilience.faults.forcedDropouts.push_back(
                    static_cast<int>(
                        parseCount("--fail-member", flagValue(i))));
            } else if (arg == "--retry-max") {
                resilience.retryMax = static_cast<int>(
                    parseCount("--retry-max", flagValue(i)));
            } else if (arg == "--member-deadline-ms") {
                resilience.memberDeadlineMs =
                    parseDouble("--member-deadline-ms", flagValue(i));
            } else if (arg == "--min-trials-per-member") {
                resilience.minTrialsPerMember =
                    static_cast<std::uint64_t>(parseCount(
                        "--min-trials-per-member", flagValue(i)));
            } else if (arg == "--wall-deadline-ms") {
                resilience.wallDeadlineMs =
                    parseDouble("--wall-deadline-ms", flagValue(i));
            } else if (arg == "--journal") {
                journal_path = flagValue(i);
            } else if (arg == "--resume") {
                resume_path = flagValue(i);
            } else if (arg == "--replay-faults") {
                replay_path = flagValue(i);
            } else {
                pos.push_back(arg);
            }
        }
        const int journal_modes = (journal_path.empty() ? 0 : 1) +
                                  (resume_path.empty() ? 0 : 1) +
                                  (replay_path.empty() ? 0 : 1);
        if (journal_modes > 1) {
            throw qedm::UserError(
                "--journal, --resume, and --replay-faults are mutually "
                "exclusive (--resume already appends to its journal)");
        }
        if (pos.empty())
            return usage();
        const std::string cmd = pos[0];
        const std::string name = pos.size() > 1 ? pos[1] : "";
        const std::uint64_t seed =
            pos.size() > 2 ? std::strtoull(pos[2].c_str(), nullptr, 10)
                           : 2;
        const std::uint64_t shots =
            pos.size() > 3 ? std::strtoull(pos[3].c_str(), nullptr, 10)
                           : 16384;
        if (cmd == "list")
            return cmdList();
        if (name.empty())
            return usage();
        if (cmd == "show")
            return cmdShow(name);
        if (cmd == "compile")
            return cmdCompile(name, seed, verify, region);
        if (cmd == "candidates")
            return cmdCandidates(name, seed, verify, region);
        if (cmd != "experiment" &&
            (journal_modes > 0 || resilience.wallDeadlineMs > 0.0)) {
            throw qedm::UserError(
                "--journal/--resume/--replay-faults/--wall-deadline-ms "
                "apply to the experiment subcommand only");
        }
        if (cmd == "run") {
            return cmdRun(name, seed, shots, jobs, sim_batch, verify,
                          resilience, region);
        }
        if (cmd == "experiment") {
            return cmdExperiment(name, seed, jobs, sim_batch, verify,
                                 resilience, region, journal_path,
                                 resume_path, replay_path);
        }
        return usage();
    } catch (const qedm::resilience::EnsembleFailedError &e) {
        std::cerr << "error: " << e.what() << " ("
                  << e.failedMembers() << "/" << e.totalMembers()
                  << " members failed)\n";
        return 1;
    } catch (const qedm::Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
