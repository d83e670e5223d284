/**
 * @file
 * Every registered qedm_analyze rule. The legacy qedm_lint rule
 * families keep their names (CI greps for them on the seeded
 * fixture); the determinism family is new and only possible on the
 * token stream:
 *
 *   - time-seed:           wall-clock sources (time(), clock(),
 *                          getpid(), system_clock/
 *                          high_resolution_clock::now) feed neither
 *                          seeds nor results — reproducibility
 *                          derives all randomness from SeedSequence
 *                          and all timing from steady_clock;
 *   - unordered-iteration: range-for over std::unordered_{map,set}
 *                          in the result-bearing modules (src/core,
 *                          src/transpile, src/sim), where hash-order
 *                          iteration can leak into merged
 *                          distributions and placement ranking;
 *   - local-static:        mutable function-local statics are hidden
 *                          cross-call state; only the sanctioned
 *                          *Registry singletons may use them;
 *   - float-accumulate:    std::accumulate / std::reduce /
 *                          std::transform_reduce over floating-point
 *                          values in the ESP/merge paths must carry a
 *                          `canonical order` comment within the three
 *                          preceding lines documenting why the
 *                          summation order is parallelism-invariant;
 *   - hot-path-alloc:      functions marked `// qedm:hot` (the
 *                          placement-search/VF2 per-node loops) must
 *                          not allocate — no new, make_unique/
 *                          make_shared, or allocating std container
 *                          construction.
 */

#include "qedm_analyze/rule.hpp"

#include <algorithm>
#include <cstddef>
#include <set>
#include <tuple>

namespace qedm::analyze {

bool
findingLess(const Finding &a, const Finding &b)
{
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
}

std::string
lineContext(const FileScan &scan, int line)
{
    std::string ctx;
    for (const Token &t : scan.tokens) {
        if (t.line != line || t.kind == TokKind::Comment)
            continue;
        if (!ctx.empty())
            ctx += ' ';
        // Literal contents are free-form prose; normalize them away
        // so editing a message string does not invalidate a
        // suppression of the surrounding statement.
        if (t.kind == TokKind::String || t.kind == TokKind::RawString)
            ctx += "<str>";
        else if (t.kind == TokKind::CharLit)
            ctx += "<chr>";
        else
            ctx += t.text;
    }
    return ctx;
}

namespace {

bool
underDir(const std::string &rel_path, const char *dir)
{
    const std::string prefix = std::string(dir) + "/";
    return rel_path.rfind(prefix, 0) == 0;
}

/** Indices of the non-comment tokens, shared by most rules. */
std::vector<std::size_t>
codeTokens(const FileScan &scan)
{
    std::vector<std::size_t> idx;
    idx.reserve(scan.tokens.size());
    for (std::size_t i = 0; i < scan.tokens.size(); ++i) {
        if (scan.tokens[i].kind != TokKind::Comment)
            idx.push_back(i);
    }
    return idx;
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

/** Does code[i] start the sequence `std :: name`? */
bool
stdQualified(const FileScan &scan,
             const std::vector<std::size_t> &code, std::size_t i,
             const char *name)
{
    return i + 2 < code.size() &&
           isIdent(scan.tokens[code[i]], "std") &&
           isPunct(scan.tokens[code[i + 1]], "::") &&
           isIdent(scan.tokens[code[i + 2]], name);
}

class RngDisciplineRule final : public FileRule
{
  public:
    RngDisciplineRule()
        : FileRule("rng-discipline",
                   "raw RNG engines/sources outside src/common/rng "
                   "bypass the deterministic SeedSequence streams")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.rngDiscipline;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        static const char *const kEngines[] = {
            "mt19937",     "mt19937_64",    "rand",
            "random_device", "srand",       "default_random_engine",
            "minstd_rand", "minstd_rand0"};
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = scan.tokens[code[i]];
            std::string hit;
            if (isIdent(t, "srand") &&
                !(i >= 1 && isPunct(scan.tokens[code[i - 1]], "::"))) {
                hit = "srand";
            }
            for (const char *engine : kEngines) {
                if (stdQualified(scan, code, i, engine))
                    hit = std::string("std::") + engine;
            }
            if (!hit.empty()) {
                out.push_back(Finding{
                    scan.rel_path, t.line, {},
                    hit +
                        " bypasses the deterministic "
                        "SeedSequence/Rng streams; use "
                        "src/common/rng",
                    {}, 0});
            }
        }
    }
};

class TimeSeedRule final : public FileRule
{
  public:
    TimeSeedRule()
        : FileRule("time-seed",
                   "wall-clock sources must not feed seeds or "
                   "results; randomness comes from SeedSequence, "
                   "timing from steady_clock")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.timeSeed;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = scan.tokens[code[i]];
            std::string hit;
            if (t.kind == TokKind::Identifier &&
                (t.text == "time" || t.text == "clock" ||
                 t.text == "getpid" || t.text == "gettimeofday")) {
                const bool called =
                    i + 1 < code.size() &&
                    isPunct(scan.tokens[code[i + 1]], "(");
                const bool member =
                    i >= 1 &&
                    (isPunct(scan.tokens[code[i - 1]], ".") ||
                     isPunct(scan.tokens[code[i - 1]], "->"));
                bool foreign_qualified = false;
                if (i >= 2 && isPunct(scan.tokens[code[i - 1]], "::"))
                    foreign_qualified =
                        !isIdent(scan.tokens[code[i - 2]], "std");
                if (called && !member && !foreign_qualified)
                    hit = t.text + "()";
            }
            if ((isIdent(t, "system_clock") ||
                 isIdent(t, "high_resolution_clock")) &&
                i + 2 < code.size() &&
                isPunct(scan.tokens[code[i + 1]], "::") &&
                isIdent(scan.tokens[code[i + 2]], "now")) {
                hit = t.text + "::now";
            }
            if (!hit.empty()) {
                out.push_back(Finding{
                    scan.rel_path, t.line, {},
                    hit +
                        " is a wall-clock source; seeds come from "
                        "SeedSequence streams and timing from "
                        "std::chrono::steady_clock",
                    {}, 0});
            }
        }
    }
};

/**
 * Library code must not read std::chrono::steady_clock directly: wall
 * time is inherently nondeterministic, so every read has to flow
 * through the injectable runtime::Clock interface, where tests
 * substitute a ManualClock and the watchdog's record/replay contract
 * can make timing decisions reproducible. Only the sanctioned clock
 * and watchdog modules (non-empty wallClockExemptReason in
 * profileFor) may touch the real clock.
 */
class WallClockRule final : public FileRule
{
  public:
    WallClockRule()
        : FileRule("wall-clock",
                   "steady_clock reads outside runtime/clock must go "
                   "through the injectable runtime::Clock so timing "
                   "decisions stay recordable and replayable")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.wallClock && p.wallClockExemptReason.empty();
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i + 2 < code.size(); ++i) {
            const Token &t = scan.tokens[code[i]];
            if (isIdent(t, "steady_clock") &&
                isPunct(scan.tokens[code[i + 1]], "::") &&
                isIdent(scan.tokens[code[i + 2]], "now")) {
                out.push_back(Finding{
                    scan.rel_path, t.line, {},
                    "steady_clock::now is a raw wall-clock read; use "
                    "the injectable runtime::Clock (runtime/clock.hpp) "
                    "so timing decisions stay recordable and "
                    "replayable",
                    {}, 0});
            }
        }
    }
};

class AssertDisciplineRule final : public FileRule
{
  public:
    AssertDisciplineRule()
        : FileRule("assert-discipline",
                   "library invariants use QEDM_ASSERT/QEDM_REQUIRE, "
                   "which throw typed diagnostics in every build type")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.assertDiscipline;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i + 1 < code.size(); ++i) {
            if (isIdent(scan.tokens[code[i]], "assert") &&
                isPunct(scan.tokens[code[i + 1]], "(")) {
                out.push_back(Finding{
                    scan.rel_path, scan.tokens[code[i]].line, {},
                    "raw assert( in library code; use QEDM_ASSERT "
                    "or QEDM_REQUIRE",
                    {}, 0});
            }
        }
    }
};

class StdoutDisciplineRule final : public FileRule
{
  public:
    StdoutDisciplineRule()
        : FileRule("stdout-discipline",
                   "libraries return data; only tools/, bench/, and "
                   "examples/ write to stdout")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.stdoutDiscipline;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (stdQualified(scan, code, i, "cout")) {
                out.push_back(Finding{
                    scan.rel_path, scan.tokens[code[i]].line, {},
                    "std::cout in library code; only tools/, "
                    "bench/, and examples/ write to stdout",
                    {}, 0});
            }
        }
    }
};

class PragmaOnceRule final : public FileRule
{
  public:
    PragmaOnceRule()
        : FileRule("pragma-once",
                   "every header starts with #pragma once")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.pragmaOnce;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        if (!scan.is_header)
            return;
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i + 1 < code.size(); ++i) {
            if (scan.tokens[code[i]].kind == TokKind::PPDirective &&
                scan.tokens[code[i]].text == "pragma" &&
                isIdent(scan.tokens[code[i + 1]], "once")) {
                return;
            }
        }
        out.push_back(Finding{scan.rel_path, 1, {},
                              "header is missing #pragma once",
                              "pragma-once", 0});
    }
};

class NakedNewRule final : public FileRule
{
  public:
    NakedNewRule()
        : FileRule("naked-new",
                   "ownership goes through containers and smart "
                   "pointers, never naked new")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.nakedNew;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        for (const std::size_t i : code) {
            if (isIdent(scan.tokens[i], "new")) {
                out.push_back(Finding{
                    scan.rel_path, scan.tokens[i].line, {},
                    "naked new; use containers or "
                    "std::make_unique/std::make_shared",
                    {}, 0});
            }
        }
    }
};

class UnorderedIterationRule final : public FileRule
{
  public:
    UnorderedIterationRule()
        : FileRule("unordered-iteration",
                   "range-for over std::unordered_{map,set} in "
                   "result-bearing modules lets hash order leak "
                   "into results")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.unorderedIteration;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        // Pass 1: names declared with an unordered container type.
        // `std::unordered_map<K, V> name` — skip the template
        // argument list by bracket depth (tokens keep < and > as
        // single punctuators, so >> never fuses).
        std::set<std::string> unordered_names;
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = scan.tokens[code[i]];
            if (!isIdent(t, "unordered_map") &&
                !isIdent(t, "unordered_set") &&
                !isIdent(t, "unordered_multimap") &&
                !isIdent(t, "unordered_multiset")) {
                continue;
            }
            std::size_t j = i + 1;
            if (j < code.size() &&
                isPunct(scan.tokens[code[j]], "<")) {
                int depth = 0;
                for (; j < code.size(); ++j) {
                    if (isPunct(scan.tokens[code[j]], "<"))
                        ++depth;
                    else if (isPunct(scan.tokens[code[j]], ">")) {
                        if (--depth == 0) {
                            ++j;
                            break;
                        }
                    }
                }
            }
            // Possibly `&` / `*` / `const` between type and name.
            while (j < code.size() &&
                   (isPunct(scan.tokens[code[j]], "&") ||
                    isPunct(scan.tokens[code[j]], "*") ||
                    isIdent(scan.tokens[code[j]], "const"))) {
                ++j;
            }
            if (j < code.size() &&
                scan.tokens[code[j]].kind == TokKind::Identifier) {
                unordered_names.insert(scan.tokens[code[j]].text);
            }
        }
        // Pass 2: range-for statements whose range expression names
        // an unordered container (or constructs one inline).
        for (std::size_t i = 0; i + 1 < code.size(); ++i) {
            if (!isIdent(scan.tokens[code[i]], "for") ||
                !isPunct(scan.tokens[code[i + 1]], "("))
                continue;
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close = 0;
            for (std::size_t j = i + 1; j < code.size(); ++j) {
                if (isPunct(scan.tokens[code[j]], "("))
                    ++depth;
                else if (isPunct(scan.tokens[code[j]], ")")) {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (depth == 1 && colon == 0 &&
                           isPunct(scan.tokens[code[j]], ":")) {
                    colon = j;
                }
            }
            if (colon == 0 || close == 0)
                continue; // classic for, or unterminated
            for (std::size_t j = colon + 1; j < close; ++j) {
                const Token &t = scan.tokens[code[j]];
                const bool inline_ctor =
                    t.kind == TokKind::Identifier &&
                    t.text.rfind("unordered_", 0) == 0;
                if (inline_ctor ||
                    (t.kind == TokKind::Identifier &&
                     unordered_names.count(t.text) != 0)) {
                    out.push_back(Finding{
                        scan.rel_path,
                        scan.tokens[code[i]].line, {},
                        "range-for over std::unordered container '" +
                            t.text +
                            "'; hash iteration order can leak into "
                            "results — iterate a sorted view or an "
                            "ordered container",
                        {}, 0});
                    break;
                }
            }
        }
    }
};

class LocalStaticRule final : public FileRule
{
  public:
    LocalStaticRule()
        : FileRule("local-static",
                   "mutable function-local statics are hidden "
                   "cross-call state; only *Registry singletons are "
                   "sanctioned")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.localStatic;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        enum class Scope
        {
            Namespace,
            Class,
            Function,
            Init
        };
        std::vector<Scope> scopes;
        // Pending classifier for the next `{`, reset at ; and }.
        enum class Pending
        {
            None,
            Namespace,
            Class,
            Function
        };
        Pending pending = Pending::None;
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = scan.tokens[code[i]];
            if (t.kind == TokKind::PPDirective)
                continue;
            if (isIdent(t, "namespace")) {
                pending = Pending::Namespace;
            } else if (isIdent(t, "class") || isIdent(t, "struct") ||
                       isIdent(t, "union") || isIdent(t, "enum")) {
                // `enum class` keeps Pending::Class; template
                // parameter `class T` is reset by the `>`/`,` punct
                // never reaching a `{`.
                pending = Pending::Class;
            } else if (isPunct(t, ";")) {
                pending = Pending::None;
            } else if (isPunct(t, "{")) {
                Scope s = Scope::Init;
                const bool in_function =
                    !scopes.empty() &&
                    scopes.back() == Scope::Function;
                if (pending == Pending::Namespace)
                    s = Scope::Namespace;
                else if (pending == Pending::Class && !in_function)
                    s = Scope::Class;
                else if (in_function)
                    s = Scope::Function; // nested block / lambda body
                else if (i >= 1 &&
                         (isPunct(scan.tokens[code[i - 1]], ")") ||
                          isIdent(scan.tokens[code[i - 1]], "try") ||
                          isIdent(scan.tokens[code[i - 1]],
                                  "noexcept") ||
                          isIdent(scan.tokens[code[i - 1]], "const")))
                    s = Scope::Function;
                scopes.push_back(s);
                pending = Pending::None;
            } else if (isPunct(t, "}")) {
                if (!scopes.empty())
                    scopes.pop_back();
                pending = Pending::None;
            } else if (isIdent(t, "static") && !scopes.empty() &&
                       scopes.back() == Scope::Function) {
                // Scan the declaration up to `=`, `{`, `(` or `;`:
                // const/constexpr make it immutable; an identifier
                // containing Registry marks the sanctioned pattern.
                bool immutable = false;
                bool registry = false;
                for (std::size_t j = i + 1; j < code.size(); ++j) {
                    const Token &d = scan.tokens[code[j]];
                    if (isPunct(d, ";") || isPunct(d, "=") ||
                        isPunct(d, "{") || isPunct(d, "("))
                        break;
                    if (isIdent(d, "const") ||
                        isIdent(d, "constexpr") ||
                        isIdent(d, "constinit"))
                        immutable = true;
                    if (d.kind == TokKind::Identifier &&
                        (d.text.find("Registry") !=
                             std::string::npos ||
                         d.text.find("registry") !=
                             std::string::npos))
                        registry = true;
                }
                if (!immutable && !registry) {
                    out.push_back(Finding{
                        scan.rel_path, t.line, {},
                        "mutable function-local static; hidden "
                        "cross-call state breaks run-to-run "
                        "reproducibility — make it const/constexpr, "
                        "pass it explicitly, or register it as a "
                        "*Registry singleton",
                        {}, 0});
                }
            }
        }
    }
};

class FloatAccumulateRule final : public FileRule
{
  public:
    FloatAccumulateRule()
        : FileRule("float-accumulate",
                   "floating-point reductions in ESP/merge paths "
                   "must document a parallelism-invariant summation "
                   "order with a `canonical order` comment")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.floatAccumulate;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        const auto code = codeTokens(scan);
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = scan.tokens[code[i]];
            if (!isIdent(t, "accumulate") && !isIdent(t, "reduce") &&
                !isIdent(t, "transform_reduce"))
                continue;
            // Only the std algorithms: member functions and
            // definitions named `accumulate` order their own terms.
            if (i < 2 || !isIdent(scan.tokens[code[i - 2]], "std") ||
                !isPunct(scan.tokens[code[i - 1]], "::"))
                continue;
            // Find the call's argument list (optional explicit
            // template arguments first).
            std::size_t j = i + 1;
            if (j < code.size() &&
                isPunct(scan.tokens[code[j]], "<")) {
                int depth = 0;
                for (; j < code.size(); ++j) {
                    if (isPunct(scan.tokens[code[j]], "<"))
                        ++depth;
                    else if (isPunct(scan.tokens[code[j]], ">") &&
                             --depth == 0) {
                        ++j;
                        break;
                    }
                }
            }
            if (j >= code.size() ||
                !isPunct(scan.tokens[code[j]], "("))
                continue;
            // Floating reduction if any argument is a floating
            // literal or names float/double explicitly.
            bool floating = false;
            int depth = 0;
            for (std::size_t k = j; k < code.size(); ++k) {
                const Token &a = scan.tokens[code[k]];
                if (isPunct(a, "("))
                    ++depth;
                else if (isPunct(a, ")") && --depth == 0)
                    break;
                if (a.kind == TokKind::Number &&
                    a.text.rfind("0x", 0) != 0 &&
                    (a.text.find('.') != std::string::npos ||
                     a.text.find('e') != std::string::npos ||
                     a.text.find('E') != std::string::npos ||
                     a.text.back() == 'f' || a.text.back() == 'F'))
                    floating = true;
                if (isIdent(a, "double") || isIdent(a, "float"))
                    floating = true;
            }
            if (!floating)
                continue;
            // Satisfied by a `canonical order` / `canonical-order`
            // comment on the call line or the three lines above it.
            const int line = t.line;
            bool documented = false;
            for (const Token &c : scan.tokens) {
                if (c.kind != TokKind::Comment)
                    continue;
                if (c.end_line < line - 3 || c.line > line)
                    continue;
                if (c.text.find("canonical order") !=
                        std::string::npos ||
                    c.text.find("canonical-order") !=
                        std::string::npos) {
                    documented = true;
                    break;
                }
            }
            if (!documented) {
                out.push_back(Finding{
                    scan.rel_path, line, {},
                    "std::" + t.text +
                        " over floating-point values without a "
                        "canonical-order comment; parallel or "
                        "reordered summation changes the result "
                        "bits — document the fixed order with a "
                        "`canonical order:` comment or canonicalize "
                        "first",
                    {}, 0});
            }
        }
    }
};

/**
 * Functions annotated `// qedm:hot` are the per-node inner loops of
 * the placement search and the VF2 matcher: everything they need is
 * preallocated when the search plan or worker is built, so the
 * recursion itself never touches the allocator (DESIGN.md §18). The
 * marker covers the next function definition after the comment — the
 * first `{` past the marker line, brace-matched to its close. Inside
 * that body, flag `new`, std::make_unique/make_shared, and
 * construction of allocating std containers (spelling `std::vector`
 * etc. — uses of an already-built container go through its variable
 * name and stay legal).
 */
class HotPathAllocRule final : public FileRule
{
  public:
    HotPathAllocRule()
        : FileRule("hot-path-alloc",
                   "functions marked `// qedm:hot` must not allocate: "
                   "no new, make_unique/make_shared, or allocating "
                   "std container construction on the per-node path")
    {
    }
    bool appliesTo(const std::string &,
                   const RuleProfile &p) const override
    {
        return p.hotPathAlloc;
    }
    void check(const FileScan &scan,
               std::vector<Finding> &out) const override
    {
        static const char *const kAllocators[] = {
            "vector",        "map",
            "set",           "multimap",
            "multiset",      "unordered_map",
            "unordered_set", "unordered_multimap",
            "unordered_multiset", "string",
            "deque",         "list",
            "function",      "make_unique",
            "make_shared"};
        const auto code = codeTokens(scan);
        // A marker is a comment whose entire content is `qedm:hot` —
        // prose that merely mentions the marker is not one.
        const auto isMarker = [](const Token &t) {
            if (t.kind != TokKind::Comment)
                return false;
            std::string body = t.text;
            if (body.rfind("//", 0) == 0)
                body = body.substr(2);
            else if (body.rfind("/*", 0) == 0) {
                body = body.substr(2);
                if (body.size() >= 2 &&
                    body.compare(body.size() - 2, 2, "*/") == 0)
                    body = body.substr(0, body.size() - 2);
            }
            const auto first = body.find_first_not_of(" \t\r\n");
            if (first == std::string::npos)
                return false;
            const auto last = body.find_last_not_of(" \t\r\n");
            return body.substr(first, last - first + 1) == "qedm:hot";
        };
        std::vector<int> markers;
        for (const Token &t : scan.tokens) {
            if (isMarker(t))
                markers.push_back(t.end_line);
        }
        for (const int marker : markers) {
            // The marked function body: first `{` past the marker,
            // brace-matched.
            std::size_t open = code.size();
            for (std::size_t i = 0; i < code.size(); ++i) {
                if (scan.tokens[code[i]].line > marker &&
                    isPunct(scan.tokens[code[i]], "{")) {
                    open = i;
                    break;
                }
            }
            if (open == code.size())
                continue;
            int depth = 0;
            for (std::size_t i = open; i < code.size(); ++i) {
                const Token &t = scan.tokens[code[i]];
                if (isPunct(t, "{")) {
                    ++depth;
                    continue;
                }
                if (isPunct(t, "}")) {
                    if (--depth == 0)
                        break;
                    continue;
                }
                std::string hit;
                if (isIdent(t, "new"))
                    hit = "new";
                for (const char *name : kAllocators) {
                    if (stdQualified(scan, code, i, name))
                        hit = std::string("std::") + name;
                }
                if (!hit.empty()) {
                    out.push_back(Finding{
                        scan.rel_path, t.line, {},
                        hit +
                            " allocates inside a `qedm:hot` "
                            "function; preallocate in the search "
                            "plan/worker and reuse scratch buffers "
                            "(DESIGN.md §18)",
                        {}, 0});
                }
            }
        }
    }
};

} // namespace

RuleProfile
profileFor(const std::string &rel_path)
{
    RuleProfile p;
    if (underDir(rel_path, "src")) {
        p.assertDiscipline = true;
        p.stdoutDiscipline = true;
        p.localStatic = true;
        p.wallClock = true;
    }
    if (underDir(rel_path, "src/core") ||
        underDir(rel_path, "src/transpile") ||
        underDir(rel_path, "src/sim")) {
        p.unorderedIteration = true;
    }
    if (underDir(rel_path, "src/core") ||
        underDir(rel_path, "src/transpile") ||
        underDir(rel_path, "src/stats")) {
        p.floatAccumulate = true;
    }
    if (rel_path.rfind("src/common/rng", 0) == 0) {
        p.rngDiscipline = false; // the one sanctioned engine home
        p.timeSeed = false;
    }
    // The `// qedm:hot` inner loops of the placement search and VF2
    // matcher are preallocated by design (DESIGN.md §18).
    if (underDir(rel_path, "src/transpile"))
        p.hotPathAlloc = true;
    if (rel_path.rfind("src/runtime/clock", 0) == 0) {
        p.wallClockExemptReason =
            "the sanctioned Clock implementation: the one place the "
            "real steady_clock is read";
    }
    return p;
}

RuleRegistry::RuleRegistry()
{
    add(std::make_unique<RngDisciplineRule>());
    add(std::make_unique<TimeSeedRule>());
    add(std::make_unique<WallClockRule>());
    add(std::make_unique<AssertDisciplineRule>());
    add(std::make_unique<StdoutDisciplineRule>());
    add(std::make_unique<PragmaOnceRule>());
    add(std::make_unique<NakedNewRule>());
    add(std::make_unique<UnorderedIterationRule>());
    add(std::make_unique<LocalStaticRule>());
    add(std::make_unique<FloatAccumulateRule>());
    add(std::make_unique<HotPathAllocRule>());
    document("layering",
             "module includes must follow the DESIGN.md layer DAG");
    document("include-cycle",
             "the quoted-include graph must be acyclic");
    document("stale-baseline",
             "baseline entries must match a current finding; stale "
             "fingerprints are rejected");
    document("io", "scanned files must be readable");
}

void
RuleRegistry::add(std::unique_ptr<FileRule> rule)
{
    docs_.emplace_back(rule->name(), rule->description());
    file_rules_.push_back(std::move(rule));
}

void
RuleRegistry::document(const std::string &name,
                       const std::string &description)
{
    docs_.emplace_back(name, description);
}

const RuleRegistry &
RuleRegistry::instance()
{
    static const RuleRegistry registry;
    return registry;
}

} // namespace qedm::analyze
