/**
 * @file
 * qedm_perfbench: the end-to-end experiment benchmark program.
 *
 *   qedm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out PATH] [--journal PATH]
 *   qedm_perfbench --smoke [--corrupt-band] [--seed N] [--journal PATH]
 *
 * Untraced (--trace 0): run the whole workload through
 * core::runExperiment repeatedly for about S seconds, checking every
 * output; wall_s sums each experiment's fastest time. Before each
 * repetition the workload's inputs are generated from the seed over and
 * over; setup_s is the fastest of those set-ups. Traced
 * (--trace 1): see trace.hpp. Smoke: every workload at one round and a
 * tiny budget, untraced and traced, with every check; --corrupt-band
 * shifts the reference bands off the true values, so the run must fail.
 *
 * Prints a readable report, then one JSON result line last. Exits 0
 * only when every output check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::ExperimentRun;
using perfbench::RunResult;
using perfbench::secondsSince;
using perfbench::Workload;

/** Before every untraced repetition, set-up repeats at least this often
 *  and for at least this long. A single set-up takes microseconds to
 *  tens of milliseconds, so host noise hits some of them hard, and on a
 *  shared host whole seconds can run slow; the fastest set-up over the
 *  run is the set-up's own cost. */
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 0.2;

/** Untraced repetitions of the whole workload, at least: each
 *  experiment's fastest time is only robust to a burst of host noise
 *  with a few samples to choose from. */
constexpr std::size_t kMinRepetitions = 3;

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool corruptBand = false;
    std::string traceOut = "trace.json";
    std::string journal = "perfbench.journal";
};

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = value();
        } else if (arg == "--journal") {
            o.journal = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--corrupt-band") {
            o.corruptBand = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (!have_workload && !o.smoke)
        throw std::invalid_argument("--workload is required");
    return o;
}

void
append(std::vector<std::string> &to, std::vector<std::string> from)
{
    for (std::string &s : from)
        to.push_back(std::move(s));
}

/**
 * Untraced run: every experiment of @p w through runExperiment at the
 * workload's jobs, repeated kMinRepetitions times and then while another
 * repetition fits in @p seconds. Each repetition must reproduce the
 * first bit for bit. wall_s sums each experiment's fastest time over the
 * repetitions, which keeps bursts of host noise out of the result.
 */
RunResult
runUntraced(const Workload &w, double seconds, const std::string &journal,
            const std::function<void()> &before_repetition)
{
    RunResult r;
    std::vector<double> fastest(w.experiments.size(), 0.0);
    std::vector<double> walls;
    std::vector<std::uint64_t> reference;
    const Clock::time_point start = Clock::now();
    double gain = 0.0, pst = 0.0;
    while (walls.size() < kMinRepetitions ||
           secondsSince(start) + walls.back() <= seconds) {
        before_repetition();
        std::vector<ExperimentRun> runs;
        std::vector<std::uint64_t> digests;
        std::uint64_t failed = 0;
        double wall = 0.0;
        for (std::size_t i = 0; i < w.experiments.size(); ++i) {
            const perfbench::Experiment &e = w.experiments[i];
            ++r.attempted;
            std::vector<std::string> failures;
            try {
                const Clock::time_point t0 = Clock::now();
                ExperimentRun run = perfbench::runOne(w, e, w.config.jobs,
                                                      journal);
                const double t = secondsSince(t0);
                fastest[i] = walls.empty() ? t : std::min(fastest[i], t);
                wall += t;
                failures = perfbench::checkExperiment(w, run);
                digests.push_back(perfbench::digest(run.summary));
                runs.push_back(std::move(run));
            } catch (const std::exception &ex) {
                failures.push_back(w.name + "/" + e.bench.name +
                                   ": threw: " + ex.what());
            }
            if (!failures.empty())
                ++failed;
            append(r.failures, std::move(failures));
        }
        walls.push_back(wall);
        if (runs.size() == w.experiments.size()) {
            gain = perfbench::gainGeomean(runs);
            pst = perfbench::edmPstMean(runs);
            std::vector<std::string> band = perfbench::checkBands(w, runs);
            if (!band.empty())
                failed = w.experiments.size();
            append(r.failures, std::move(band));
            if (reference.empty()) {
                reference = digests;
            } else if (digests != reference) {
                failed = w.experiments.size();
                r.failures.push_back(w.name + ": repetition differs from "
                                              "the first");
            }
        }
        r.failed += failed;
    }
    std::cout << w.name << ": " << walls.size() << " repetition(s) of "
              << w.experiments.size() << " experiment(s), wall min "
              << *std::min_element(walls.begin(), walls.end()) << " s max "
              << *std::max_element(walls.begin(), walls.end())
              << " s; EDM gain geomean " << gain << " (band " << w.gain.lo
              << ".." << w.gain.hi << "), mean EDM PST " << pst
              << " (band " << w.pst.lo << ".." << w.pst.hi << ")\n";
    double wall_s = 0.0;
    for (const double t : fastest)
        wall_s += t;
    r.metrics.push_back({"wall_s", wall_s, "s"});
    return r;
}

/** The workload @p name from the options' seed, with --corrupt-band
 *  applied. */
Workload
setUp(const Options &o, const std::string &name)
{
    Workload w = perfbench::makeWorkload(name, o.seed, o.smoke);
    if (o.corruptBand) {
        w.gain = {w.gain.hi * 1.01, w.gain.hi * 2.0};
        w.pst = {w.pst.hi * 1.01 + 0.01, w.pst.hi * 2.0 + 0.02};
    }
    return w;
}

/** Time set-ups of @p o's workload into @p samples (see kSetupRepeats). */
void
timeSetUps(const Options &o, std::vector<double> &samples)
{
    const Clock::time_point start = Clock::now();
    for (int n = 0; n < kSetupRepeats || secondsSince(start) < kSetupSeconds;
         ++n) {
        const Clock::time_point t0 = Clock::now();
        const Workload w = perfbench::makeWorkload(o.workload, o.seed, o.smoke);
        samples.push_back(secondsSince(t0));
    }
}

RunResult
run(const Options &o)
{
    if (o.smoke) {
        RunResult all;
        for (const std::string &name : perfbench::workloadNames()) {
            const Workload w = setUp(o, name);
            all.absorb(runUntraced(w, 0.0, o.journal, [] {}));
            all.absorb(perfbench::runTraced(
                w, o.traceOut + "." + name + ".json", o.journal));
        }
        return all;
    }
    // The first set-up is untimed: it pays the process's one-off costs.
    const Workload w = setUp(o, o.workload);
    if (o.trace)
        return perfbench::runTraced(w, o.traceOut, o.journal);
    std::vector<double> setups;
    RunResult r = runUntraced(w, o.seconds, o.journal,
                              [&] { timeSetUps(o, setups); });
    const double setup_s = *std::min_element(setups.begin(), setups.end());
    std::cout << o.workload << ": " << setups.size()
              << " set-ups, fastest " << setup_s << " s, median "
              << qedm::stats::median(setups) << " s\n";
    r.metrics.push_back({"setup_s", setup_s, "s"});
    r.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    return r;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    RunResult r;
    try {
        o = parse(argc, argv);
        r = run(o);
    } catch (const std::exception &ex) {
        std::cerr << "qedm_perfbench: " << ex.what() << "\n";
        return 2;
    }
    for (const std::string &f : r.failures)
        std::cerr << "check failed: " << f << "\n";

    const double failed_frac =
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 1.0;
    for (const perfbench::Metric &m : r.metrics)
        std::cout << m.name << " = " << number(m.value) << " " << m.unit
                  << "\n";
    std::cout << "failed_frac = " << number(failed_frac) << " ("
              << r.failed << "/" << r.attempted << " experiments)\n";

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << r.attempted
         << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric &m = r.metrics[i];
        json << (i == 0 ? "" : ", ") << "\"" << m.name
             << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
             << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
}
