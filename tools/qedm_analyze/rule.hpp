/**
 * @file
 * Rule engine for qedm_analyze, modelled on clang-tidy's registry:
 * every rule is a named object registered once at static-init time;
 * the driver instantiates the whole registry and feeds each scanned
 * file through every rule whose per-directory profile says it
 * applies. Two rule flavours exist:
 *
 *   - FileRule: sees one tokenized file at a time. These run in
 *     parallel across files on the runtime thread pool; a FileRule
 *     must therefore be stateless across check() calls.
 *   - Tree rules (the include-graph layering/cycle analysis) are not
 *     Rule subclasses — they need every file's includes at once and
 *     run serially after the parallel scan (include_graph.hpp).
 *
 * Findings carry a token-context string — the normalized token
 * spelling of the flagged line — which the baseline fingerprints, so
 * suppressions survive line drift (baseline.hpp).
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qedm_analyze/lexer.hpp"

namespace qedm::analyze {

/** One diagnostic. */
struct Finding
{
    std::string file; ///< path relative to the scan root
    int line = 0;     ///< 1-based; 0 for whole-file/graph findings
    std::string rule;
    std::string message;
    /**
     * Fingerprint context: normally the space-joined token spellings
     * of the flagged line (filled in by the engine when a rule leaves
     * it empty); graph rules set it explicitly (e.g. the include
     * target), because they have no single line to normalize.
     */
    std::string context;
    /**
     * Disambiguates repeated identical contexts within one file
     * (0-based, in line order). Assigned by the engine.
     */
    int ordinal = 0;
};

/** Deterministic ordering: file, line, rule, message. */
bool findingLess(const Finding &a, const Finding &b);

/** One scanned file, tokenized once and shared by every rule. */
struct FileScan
{
    std::string rel_path; ///< generic (forward-slash) relative path
    bool is_header = false;
    std::vector<Token> tokens;
};

/**
 * Which rules run on one file, decided by its top-level tree —
 * library code (src/) runs everything; driver trees (tools/, bench/,
 * examples/) legitimately print and assert but still may not draw
 * raw randomness or leak naked ownership.
 */
struct RuleProfile
{
    bool rngDiscipline = true;
    bool timeSeed = true;
    bool assertDiscipline = false;
    bool stdoutDiscipline = false;
    bool pragmaOnce = true;
    bool nakedNew = true;
    bool denseDistance = false;
    bool unorderedIteration = false;
    bool localStatic = false;
    bool floatAccumulate = false;
    /**
     * Reject std::chrono::steady_clock::now() in result-bearing code:
     * wall time must flow through the injectable runtime::Clock so
     * watchdog decisions are recordable and replayable.
     */
    bool wallClock = false;
    /**
     * Non-empty exempts the file from the wall-clock rule *with a
     * stated justification* (shown nowhere, but the requirement keeps
     * carve-outs deliberate). Only the sanctioned clock/watchdog
     * modules set this.
     */
    std::string wallClockExemptReason;
    /**
     * Ban heap allocation inside functions marked `// qedm:hot`: the
     * placement-search and VF2 inner loops preallocate every buffer
     * when the search plan/worker is built (DESIGN.md §18), so an
     * allocation on the per-node path is a throughput regression at
     * 127/433-qubit scale, not a style nit.
     */
    bool hotPathAlloc = false;
};

/** Per-directory rule profile for @p rel_path (see rules.cpp). */
RuleProfile profileFor(const std::string &rel_path);

/** A per-file rule. Stateless across calls; run in parallel. */
class FileRule
{
  public:
    FileRule(std::string name, std::string description)
        : name_(std::move(name)), description_(std::move(description))
    {
    }
    virtual ~FileRule() = default;
    FileRule(const FileRule &) = delete;
    FileRule &operator=(const FileRule &) = delete;

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }

    /** Does this rule apply to @p rel_path under @p profile? */
    virtual bool appliesTo(const std::string &rel_path,
                           const RuleProfile &profile) const = 0;

    /** Scan one file; append findings (rule/context filled later). */
    virtual void check(const FileScan &scan,
                       std::vector<Finding> &out) const = 0;

  private:
    std::string name_;
    std::string description_;
};

/** Registry of every FileRule, plus the graph-rule metadata (for
 *  SARIF's rule table). Construction order is registration order and
 *  registration order is deterministic (one translation unit). */
class RuleRegistry
{
  public:
    /** The process-wide registry (rules register in rules.cpp). */
    static const RuleRegistry &instance();

    const std::vector<std::unique_ptr<FileRule>> &fileRules() const
    {
        return file_rules_;
    }

    /** name → description for every rule, including the tree rules
     *  and engine-level rules that are not FileRule objects. */
    const std::vector<std::pair<std::string, std::string>> &
    allRuleDocs() const
    {
        return docs_;
    }

    void add(std::unique_ptr<FileRule> rule);
    void document(const std::string &name,
                  const std::string &description);

  private:
    RuleRegistry();
    std::vector<std::unique_ptr<FileRule>> file_rules_;
    std::vector<std::pair<std::string, std::string>> docs_;
};

/** Space-joined spelling of every non-comment token on @p line
 *  (the baseline fingerprint context for line findings). */
std::string lineContext(const FileScan &scan, int line);

} // namespace qedm::analyze
