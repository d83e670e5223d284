/**
 * @file
 * The qedm_analyze driver: walks the scanned trees (src/, tools/,
 * bench/, examples/), tokenizes and rule-checks every file in
 * parallel on a runtime::ThreadPool, then runs the serial
 * whole-graph phases (include layering/cycles, baseline matching,
 * ordinal assignment) and renders text or SARIF.
 *
 * Determinism contract: output is byte-identical at any --jobs. The
 * file list is sorted before the parallel scan, per-file findings
 * land in a slot indexed by file (never a shared vector), the merge
 * walks slots in order, and every late phase is serial — the same
 * slot-ordered pattern the EDM pipeline's tape and batch fan-out uses
 * (DESIGN.md §9). A determinism test diffs --jobs 1 vs --jobs 4
 * output.
 */

#pragma once

#include <string>
#include <vector>

#include "qedm_analyze/baseline.hpp"
#include "qedm_analyze/rule.hpp"

namespace qedm::analyze {

struct AnalyzeOptions
{
    /** Scan root (the repository checkout). */
    std::string root = ".";
    /** Worker threads for the per-file scan; >= 1. */
    int jobs = 1;
    /**
     * Baseline path; empty auto-detects <root>/tools/
     * analyze_baseline.json, the literal "none" disables baselining.
     */
    std::string baseline;
};

/** In-memory source file (tests feed these directly). */
struct SourceFile
{
    std::string rel_path;
    std::string text;
};

struct Report
{
    /** Unsuppressed findings, deterministically sorted. */
    std::vector<Finding> findings;
    int files_scanned = 0;
    int suppressed = 0;
    /** Fatal I/O or option errors (exit 2); empty otherwise. */
    std::string error;
};

/** Analyze in-memory sources (no filesystem). @p baseline may be
 *  nullptr. */
Report analyzeSources(const std::vector<SourceFile> &sources,
                      const Baseline *baseline, int jobs);

/** Analyze the tree under opts.root. */
Report analyzeTree(const AnalyzeOptions &opts);

/** Text rendering: one `file:line: [rule] message` line per finding
 *  plus a summary line. */
std::string renderText(const Report &report);

} // namespace qedm::analyze
