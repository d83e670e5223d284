/**
 * @file
 * CLI for the token-aware static analyzer, `qedm_analyze`.
 *
 * Usage: qedm_analyze [options] [root]
 *   --format text|sarif   output format (default text)
 *   --jobs N              parallel scan workers (default 1; output
 *                         is byte-identical at any value)
 *   --baseline FILE|none  suppression baseline (default: auto-detect
 *                         <root>/tools/analyze_baseline.json)
 *   --write-baseline FILE record current findings as a baseline and
 *                         exit 0 (justifications left as TODOs,
 *                         which the loader rejects until filled in)
 *   --output FILE         write the report to FILE instead of stdout
 *
 * Exit: 0 clean (every finding baselined), 1 findings (including
 * stale baseline entries), 2 usage or I/O error.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "qedm_analyze/engine.hpp"
#include "qedm_analyze/sarif.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--format text|sarif] [--jobs N]"
                 " [--baseline FILE|none] [--write-baseline FILE]"
                 " [--output FILE] [root]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    qedm::analyze::AnalyzeOptions opts;
    std::string format = "text";
    std::string write_baseline;
    std::string output_path;
    bool saw_root = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--format") {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            format = v;
            if (format != "text" && format != "sarif")
                return usage(argv[0]);
        } else if (arg == "--jobs") {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            try {
                opts.jobs = std::stoi(v);
            } catch (...) {
                return usage(argv[0]);
            }
            if (opts.jobs < 1)
                return usage(argv[0]);
        } else if (arg == "--baseline") {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            opts.baseline = v;
        } else if (arg == "--write-baseline") {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            write_baseline = v;
        } else if (arg == "--output") {
            const char *v = next();
            if (v == nullptr)
                return usage(argv[0]);
            output_path = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (!saw_root) {
            opts.root = arg;
            saw_root = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (!write_baseline.empty())
        opts.baseline = "none"; // record everything, suppress nothing

    const qedm::analyze::Report report =
        qedm::analyze::analyzeTree(opts);
    if (!report.error.empty()) {
        std::cerr << "qedm_analyze: " << report.error << "\n";
        return 2;
    }

    if (!write_baseline.empty()) {
        std::ofstream out(write_baseline, std::ios::binary);
        if (!out) {
            std::cerr << "qedm_analyze: cannot write "
                      << write_baseline << "\n";
            return 2;
        }
        out << qedm::analyze::writeBaseline(report.findings);
        std::cerr << "qedm_analyze: wrote " << report.findings.size()
                  << " entr(ies) to " << write_baseline
                  << "; fill in the justifications\n";
        return 0;
    }

    const std::string rendered =
        format == "sarif" ? qedm::analyze::renderSarif(report.findings)
                          : qedm::analyze::renderText(report);
    if (output_path.empty()) {
        std::cout << rendered;
    } else {
        std::ofstream out(output_path, std::ios::binary);
        if (!out) {
            std::cerr << "qedm_analyze: cannot write " << output_path
                      << "\n";
            return 2;
        }
        out << rendered;
    }
    return report.findings.empty() ? 0 : 1;
}
