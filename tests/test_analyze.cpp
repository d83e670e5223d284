/**
 * @file
 * Tests for the qedm_analyze static-analysis engine: tokenizer edge
 * cases (raw strings, block comments, line continuations), a
 * positive and negative case for every registered rule, the layering
 * and cycle graph rules, baseline fingerprinting (line-drift
 * immunity, staleness, justification hygiene), SARIF 2.1.0
 * structure, and the byte-identical `--jobs 1` vs `--jobs 4`
 * determinism contract over the real repository tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "qedm_analyze/baseline.hpp"
#include "qedm_analyze/engine.hpp"
#include "qedm_analyze/json.hpp"
#include "qedm_analyze/lexer.hpp"
#include "qedm_analyze/sarif.hpp"

namespace qa = qedm::analyze;

namespace {

std::vector<qa::Finding>
findingsFor(const std::string &rel_path, const std::string &text)
{
    const qa::Report report =
        qa::analyzeSources({{rel_path, text}}, nullptr, 1);
    return report.findings;
}

int
countRule(const std::vector<qa::Finding> &findings,
          const std::string &rule)
{
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const qa::Finding &f) {
                          return f.rule == rule;
                      }));
}

// ---------------------------------------------------------------------
// Tokenizer

TEST(Lexer, RawStringContentsAreOneToken)
{
    // The raw string holds comment openers, quotes, and a fake
    // violation; none of it may leak into code tokens.
    const auto tokens = qa::tokenize(
        "auto s = R\"delim(std::rand() /* \" )\" )delim\"; int x;");
    int raw = 0;
    for (const auto &t : tokens) {
        if (t.kind == qa::TokKind::RawString) {
            ++raw;
            EXPECT_EQ(t.text, "std::rand() /* \" )\" ");
        }
        EXPECT_NE(t.text == "rand" &&
                      t.kind == qa::TokKind::Identifier,
                  true);
    }
    EXPECT_EQ(raw, 1);
    const auto findings =
        findingsFor("src/raw.cpp",
                    "auto s = R\"(std::rand() srand(1))\";\n");
    EXPECT_EQ(countRule(findings, "rng-discipline"), 0);
}

TEST(Lexer, BlockCommentsDoNotNest)
{
    const auto tokens =
        qa::tokenize("/* outer /* still outer */ int x; /* two */");
    std::vector<std::string> idents;
    for (const auto &t : tokens) {
        if (t.kind == qa::TokKind::Identifier)
            idents.push_back(t.text);
    }
    EXPECT_EQ(idents, (std::vector<std::string>{"int", "x"}));
}

TEST(Lexer, LineContinuationsSpliceButKeepLineNumbers)
{
    // `sra\<newline>nd` splices to the single identifier `srand`,
    // and a continued #include still yields one header token.
    const auto tokens = qa::tokenize("sra\\\nnd(7);\n#include \\\n"
                                     "\"transpile/router.hpp\"\nint "
                                     "after;\n");
    bool saw_srand = false;
    bool saw_header = false;
    int after_line = 0;
    for (const auto &t : tokens) {
        if (t.kind == qa::TokKind::Identifier && t.text == "srand")
            saw_srand = true;
        if (t.kind == qa::TokKind::PPHeaderQuote) {
            saw_header = true;
            EXPECT_EQ(t.text, "transpile/router.hpp");
        }
        if (t.kind == qa::TokKind::Identifier && t.text == "after")
            after_line = t.line;
    }
    EXPECT_TRUE(saw_srand);
    EXPECT_TRUE(saw_header);
    EXPECT_EQ(after_line, 5); // physical lines survive the splices
}

TEST(Lexer, DigitSeparatorsAndCharLiterals)
{
    const auto tokens = qa::tokenize("int n = 1'000'000; char c = "
                                     "'x'; char q = '\\'';");
    int numbers = 0;
    int chars = 0;
    for (const auto &t : tokens) {
        if (t.kind == qa::TokKind::Number) {
            ++numbers;
            EXPECT_EQ(t.text, "1'000'000");
        }
        if (t.kind == qa::TokKind::CharLit)
            ++chars;
    }
    EXPECT_EQ(numbers, 1);
    EXPECT_EQ(chars, 2);
}

TEST(Lexer, CommentsKeepStartAndEndLines)
{
    const auto tokens =
        qa::tokenize("/* one\ntwo\nthree */\nint x;\n");
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens[0].kind, qa::TokKind::Comment);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[0].end_line, 3);
}

// ---------------------------------------------------------------------
// Rules: one positive and one negative case each

TEST(Rules, RngDiscipline)
{
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "auto g = std::mt19937(7);\n"),
                        "rng-discipline"),
              1);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp", "srand(7);\n"),
                        "rng-discipline"),
              1);
    // The sanctioned engine home and innocent identifiers stay clean.
    EXPECT_EQ(countRule(findingsFor("src/common/rng/rng.cpp",
                                    "auto g = std::mt19937(7);\n"),
                        "rng-discipline"),
              0);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp", "int my_srand = 1;\n"),
                        "rng-discipline"),
              0);
}

TEST(Rules, TimeSeed)
{
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "auto t = std::time(nullptr);\n"),
                        "time-seed"),
              1);
    EXPECT_EQ(
        countRule(findingsFor(
                      "src/a.cpp",
                      "auto t = std::chrono::system_clock::now();\n"),
                  "time-seed"),
        1);
    // steady_clock is the sanctioned timing source; member calls and
    // foreign qualifications are not the C time().
    EXPECT_EQ(
        countRule(findingsFor(
                      "src/a.cpp",
                      "auto t = std::chrono::steady_clock::now();\n"),
                  "time-seed"),
        0);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "auto t = budget.time();\n"),
                        "time-seed"),
              0);
}

TEST(Rules, WallClock)
{
    // Raw steady_clock reads are banned in result-bearing code: wall
    // time must flow through the injectable runtime::Clock so
    // watchdog decisions stay recordable and replayable.
    EXPECT_EQ(
        countRule(findingsFor(
                      "src/core/a.cpp",
                      "auto t = std::chrono::steady_clock::now();\n"),
                  "wall-clock"),
        1);
    // The sanctioned Clock implementation is the one exemption.
    EXPECT_EQ(
        countRule(findingsFor(
                      "src/runtime/clock.cpp",
                      "auto t = std::chrono::steady_clock::now();\n"),
                  "wall-clock"),
        0);
    // Driver trees are exempt, and unrelated now() calls are not the
    // steady clock.
    EXPECT_EQ(
        countRule(findingsFor(
                      "tools/a.cpp",
                      "auto t = std::chrono::steady_clock::now();\n"),
                  "wall-clock"),
        0);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "auto t = calendar.now();\n"),
                        "wall-clock"),
              0);
}

TEST(Rules, AssertDiscipline)
{
    EXPECT_EQ(countRule(findingsFor("src/a.cpp", "assert(x > 0);\n"),
                        "assert-discipline"),
              1);
    // Driver trees may assert; static_assert is always fine.
    EXPECT_EQ(countRule(findingsFor("tools/a.cpp",
                                    "assert(x > 0);\n"),
                        "assert-discipline"),
              0);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "static_assert(sizeof(int) == "
                                    "4);\n"),
                        "assert-discipline"),
              0);
}

TEST(Rules, StdoutDiscipline)
{
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "std::cout << 1;\n"),
                        "stdout-discipline"),
              1);
    EXPECT_EQ(countRule(findingsFor("examples/a.cpp",
                                    "std::cout << 1;\n"),
                        "stdout-discipline"),
              0);
}

TEST(Rules, PragmaOnce)
{
    EXPECT_EQ(countRule(findingsFor("src/a.hpp", "int x;\n"),
                        "pragma-once"),
              1);
    EXPECT_EQ(countRule(findingsFor("src/a.hpp",
                                    "#pragma once\nint x;\n"),
                        "pragma-once"),
              0);
    // Non-headers are exempt.
    EXPECT_EQ(countRule(findingsFor("src/a.cpp", "int x;\n"),
                        "pragma-once"),
              0);
}

TEST(Rules, NakedNew)
{
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "int *p = new int(1);\n"),
                        "naked-new"),
              1);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "auto p = "
                                    "std::make_unique<int>(1); // "
                                    "new\n"),
                        "naked-new"),
              0);
}

TEST(Rules, DenseDistance)
{
    EXPECT_EQ(countRule(findingsFor("src/core/a.cpp",
                                    "auto m = "
                                    "sharedDistanceMatrix(dev);\n"),
                        "dense-distance"),
              1);
    // The provider's own home is exempt.
    EXPECT_EQ(countRule(findingsFor("src/transpile/distances.cpp",
                                    "auto m = "
                                    "sharedDistanceMatrix(dev);\n"),
                        "dense-distance"),
              0);
}

TEST(Rules, UnorderedIteration)
{
    const std::string bad =
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> table;\n"
        "int f() {\n"
        "    int s = 0;\n"
        "    for (const auto &[k, v] : table)\n"
        "        s += v;\n"
        "    return s;\n"
        "}\n";
    EXPECT_EQ(countRule(findingsFor("src/core/a.cpp", bad),
                        "unordered-iteration"),
              1);
    // Ordered containers iterate deterministically; and the rule
    // only guards the result-bearing modules.
    const std::string good =
        "std::map<int, int> table;\n"
        "int f() {\n"
        "    int s = 0;\n"
        "    for (const auto &[k, v] : table)\n"
        "        s += v;\n"
        "    return s;\n"
        "}\n";
    EXPECT_EQ(countRule(findingsFor("src/core/a.cpp", good),
                        "unordered-iteration"),
              0);
    EXPECT_EQ(countRule(findingsFor("src/hw/a.cpp", bad),
                        "unordered-iteration"),
              0);
}

TEST(Rules, LocalStatic)
{
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "int f() {\n"
                                    "    static int calls = 0;\n"
                                    "    return ++calls;\n"
                                    "}\n"),
                        "local-static"),
              1);
    // const/constexpr locals and the sanctioned *Registry
    // singletons are allowed; so are class-scope statics.
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "int f() {\n"
                                    "    static const int k = 7;\n"
                                    "    return k;\n"
                                    "}\n"),
                        "local-static"),
              0);
    EXPECT_EQ(countRule(findingsFor("src/a.cpp",
                                    "A &shared() {\n"
                                    "    static EspModelRegistry "
                                    "registry;\n"
                                    "    return registry;\n"
                                    "}\n"),
                        "local-static"),
              0);
    EXPECT_EQ(countRule(findingsFor("src/a.hpp",
                                    "#pragma once\n"
                                    "class A {\n"
                                    "    static int shared_;\n"
                                    "};\n"),
                        "local-static"),
              0);
}

TEST(Rules, FloatAccumulate)
{
    EXPECT_EQ(
        countRule(findingsFor("src/core/a.cpp",
                              "double f(const std::vector<double> "
                              "&v) {\n"
                              "    return std::accumulate(v.begin(),"
                              " v.end(), 0.0);\n"
                              "}\n"),
                  "float-accumulate"),
        1);
    // A canonical-order comment within three lines satisfies the
    // rule; integer reductions and member calls never fire.
    EXPECT_EQ(
        countRule(findingsFor("src/core/a.cpp",
                              "double f(const std::vector<double> "
                              "&v) {\n"
                              "    // canonical order: serial "
                              "index-ascending sum\n"
                              "    return std::accumulate(v.begin(),"
                              " v.end(), 0.0);\n"
                              "}\n"),
                  "float-accumulate"),
        0);
    EXPECT_EQ(countRule(findingsFor("src/core/a.cpp",
                                    "int f(const std::vector<int> "
                                    "&v) {\n"
                                    "    return std::accumulate(v."
                                    "begin(), v.end(), 0);\n"
                                    "}\n"),
                        "float-accumulate"),
              0);
    EXPECT_EQ(countRule(findingsFor("src/stats/a.cpp",
                                    "void f(Distribution &m) {\n"
                                    "    m.accumulate(p, 0.5);\n"
                                    "}\n"),
                        "float-accumulate"),
              0);
}

TEST(Rules, HotPathAlloc)
{
    // Allocation inside a `// qedm:hot` function fires — both naked
    // new and std container construction.
    EXPECT_EQ(countRule(findingsFor("src/transpile/a.cpp",
                                    "// qedm:hot\n"
                                    "int f() {\n"
                                    "    std::vector<int> v;\n"
                                    "    int *p = new int(1);\n"
                                    "    return *p;\n"
                                    "}\n"),
                        "hot-path-alloc"),
              2);
    EXPECT_EQ(countRule(findingsFor("src/transpile/a.cpp",
                                    "// qedm:hot\n"
                                    "void f() {\n"
                                    "    auto p = "
                                    "std::make_shared<int>(3);\n"
                                    "    std::map<int, int> m;\n"
                                    "}\n"),
                        "hot-path-alloc"),
              2);
    // The same allocation in an unmarked function stays legal.
    EXPECT_EQ(countRule(findingsFor("src/transpile/a.cpp",
                                    "int f() {\n"
                                    "    std::vector<int> v;\n"
                                    "    return 0;\n"
                                    "}\n"),
                        "hot-path-alloc"),
              0);
    // The marker covers only the next function definition.
    EXPECT_EQ(countRule(findingsFor("src/transpile/a.cpp",
                                    "// qedm:hot\n"
                                    "int f(int x) { return x; }\n"
                                    "int g() { return *new int(0); "
                                    "}\n"),
                        "hot-path-alloc"),
              0);
    // Member access on an existing container is not construction.
    EXPECT_EQ(countRule(findingsFor("src/transpile/a.cpp",
                                    "// qedm:hot\n"
                                    "int f(const Buf &b) {\n"
                                    "    return b.sizes[0];\n"
                                    "}\n"),
                        "hot-path-alloc"),
              0);
    // Outside src/transpile the profile leaves the rule off.
    EXPECT_EQ(countRule(findingsFor("src/core/a.cpp",
                                    "// qedm:hot\n"
                                    "int f() { return *new int(0); "
                                    "}\n"),
                        "hot-path-alloc"),
              0);
}

// ---------------------------------------------------------------------
// Include-graph rules

TEST(Graph, LayeringBackEdgeIsFlagged)
{
    const qa::Report report = qa::analyzeSources(
        {{"src/check/a.cpp", "#include \"transpile/router.hpp\"\n"},
         {"src/transpile/router.hpp", "#pragma once\nint x;\n"}},
        nullptr, 1);
    EXPECT_EQ(countRule(report.findings, "layering"), 1);
}

TEST(Graph, AllowedEdgeIsNotFlagged)
{
    const qa::Report report = qa::analyzeSources(
        {{"src/transpile/a.cpp", "#include \"check/check.hpp\"\n"},
         {"src/check/check.hpp", "#pragma once\nint x;\n"}},
        nullptr, 1);
    EXPECT_EQ(countRule(report.findings, "layering"), 0);
}

TEST(Graph, BenchmarksMayNotIncludeSim)
{
    // Benchmark construction is pure circuit building; no simulation.
    const qa::Report report = qa::analyzeSources(
        {{"src/benchmarks/a.cpp", "#include \"sim/executor.hpp\"\n"},
         {"src/sim/executor.hpp", "#pragma once\nint x;\n"}},
        nullptr, 1);
    EXPECT_EQ(countRule(report.findings, "layering"), 1);
}

TEST(Graph, IncludeCycleIsFlagged)
{
    const qa::Report report = qa::analyzeSources(
        {{"src/hw/a.hpp", "#pragma once\n#include \"hw/b.hpp\"\n"},
         {"src/hw/b.hpp", "#pragma once\n#include \"hw/a.hpp\"\n"}},
        nullptr, 1);
    EXPECT_EQ(countRule(report.findings, "include-cycle"), 1);
}

// ---------------------------------------------------------------------
// Baseline

TEST(Baseline, FingerprintSurvivesLineDrift)
{
    const std::string original = "int f() {\n"
                                 "    static int calls = 0;\n"
                                 "    return ++calls;\n"
                                 "}\n";
    const std::string drifted = "// a new comment\n"
                                "// another new line\n"
                                "int f() {\n"
                                "    static int calls = 0;\n"
                                "    return ++calls;\n"
                                "}\n";
    const auto before = findingsFor("src/a.cpp", original);
    const auto after = findingsFor("src/a.cpp", drifted);
    ASSERT_EQ(before.size(), 1u);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(before[0].line, after[0].line);
    EXPECT_EQ(before[0].context, after[0].context);
    EXPECT_EQ(qa::fingerprintHex(before[0]),
              qa::fingerprintHex(after[0]));

    // The drifted finding is suppressed by a baseline recorded
    // against the original line number.
    qa::Baseline baseline;
    baseline.entries.push_back(qa::BaselineEntry{
        before[0].rule, before[0].file, before[0].context,
        before[0].ordinal, "test: known-canonical"});
    int suppressed = 0;
    const auto kept =
        qa::applyBaseline(after, baseline, suppressed);
    EXPECT_EQ(suppressed, 1);
    EXPECT_TRUE(kept.empty());
}

TEST(Baseline, EditedStatementInvalidatesSuppression)
{
    const auto before = findingsFor(
        "src/a.cpp", "int f() {\n    static int calls = 0;\n}\n");
    const auto after = findingsFor(
        "src/a.cpp", "int f() {\n    static int calls = 1;\n}\n");
    ASSERT_EQ(before.size(), 1u);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(before[0].context, after[0].context);

    qa::Baseline baseline;
    baseline.entries.push_back(qa::BaselineEntry{
        before[0].rule, before[0].file, before[0].context,
        before[0].ordinal, "test: stale after edit"});
    int suppressed = 0;
    const auto kept = qa::applyBaseline(after, baseline, suppressed);
    EXPECT_EQ(suppressed, 0);
    // The real finding stays AND the unmatched entry is reported.
    EXPECT_EQ(countRule(kept, "local-static"), 1);
    EXPECT_EQ(countRule(kept, "stale-baseline"), 1);
}

TEST(Baseline, OrdinalsDisambiguateIdenticalStatements)
{
    const auto findings = findingsFor(
        "src/a.cpp", "int f() {\n    static int calls = 0;\n}\n"
                     "int g() {\n    static int calls = 0;\n}\n");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].context, findings[1].context);
    EXPECT_EQ(findings[0].ordinal, 0);
    EXPECT_EQ(findings[1].ordinal, 1);
    EXPECT_NE(qa::fingerprintHex(findings[0]),
              qa::fingerprintHex(findings[1]));
}

TEST(Baseline, StringLiteralEditsDoNotInvalidate)
{
    // Literal contents normalize away in the context, so editing a
    // message string near a suppressed statement changes nothing.
    const auto a = findingsFor(
        "src/a.cpp",
        "int f() {\n    static int n = 0; log(\"one\");\n}\n");
    const auto b = findingsFor(
        "src/a.cpp",
        "int f() {\n    static int n = 0; log(\"two\");\n}\n");
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].context, b[0].context);
}

TEST(Baseline, LoaderRejectsMissingJustification)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/baseline.json";
    {
        std::ofstream out(path);
        out << "{ \"version\": 1, \"entries\": [ { \"rule\": \"x\", "
               "\"file\": \"f\", \"context\": \"c\", \"ordinal\": 0, "
               "\"justification\": \"TODO: justify\" } ] }";
    }
    qa::Baseline baseline;
    std::string error;
    EXPECT_FALSE(qa::loadBaseline(path, baseline, error));
    EXPECT_NE(error.find("justification"), std::string::npos);
}

TEST(Baseline, WriteThenLoadRoundTrips)
{
    const auto findings = findingsFor(
        "src/a.cpp", "int f() {\n    static int calls = 0;\n}\n");
    ASSERT_EQ(findings.size(), 1u);
    std::string text = qa::writeBaseline(findings);
    // The writer leaves TODO justifications; fill one in as an
    // author would, then the loader accepts and it suppresses.
    const std::string todo = "TODO: justify";
    const std::size_t at = text.find(todo);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, todo.size(), "reviewed: test");
    const std::string path =
        ::testing::TempDir() + "/roundtrip_baseline.json";
    {
        std::ofstream out(path);
        out << text;
    }
    qa::Baseline baseline;
    std::string error;
    ASSERT_TRUE(qa::loadBaseline(path, baseline, error)) << error;
    int suppressed = 0;
    const auto kept =
        qa::applyBaseline(findings, baseline, suppressed);
    EXPECT_EQ(suppressed, 1);
    EXPECT_TRUE(kept.empty());
}

// ---------------------------------------------------------------------
// SARIF

TEST(Sarif, StructureIsValid210)
{
    const auto findings = findingsFor(
        "src/a.cpp", "int f() {\n    static int calls = 0;\n}\n");
    ASSERT_EQ(findings.size(), 1u);
    const std::string sarif = qa::renderSarif(findings);

    std::string error;
    const auto root = qa::parseJson(sarif, error);
    ASSERT_NE(root, nullptr) << error;
    const qa::JsonValue *version = root->get("version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->string, "2.1.0");
    const qa::JsonValue *schema = root->get("$schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_NE(schema->string.find("sarif-2.1.0"), std::string::npos);

    const qa::JsonValue *runs = root->get("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    const qa::JsonValue &run = *runs->array[0];
    const qa::JsonValue *driver = run.get("tool")->get("driver");
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(driver->get("name")->string, "qedm_analyze");
    // Every registered rule appears in the driver's rule table.
    const qa::JsonValue *rules = driver->get("rules");
    ASSERT_NE(rules, nullptr);
    std::vector<std::string> rule_ids;
    for (const auto &r : rules->array)
        rule_ids.push_back(r->get("id")->string);
    for (const char *expected :
         {"rng-discipline", "time-seed", "assert-discipline",
          "stdout-discipline", "pragma-once", "naked-new",
          "dense-distance", "unordered-iteration", "local-static",
          "float-accumulate", "wall-clock", "layering", "include-cycle",
          "stale-baseline"}) {
        EXPECT_NE(std::find(rule_ids.begin(), rule_ids.end(),
                            expected),
                  rule_ids.end())
            << expected;
    }

    const qa::JsonValue *results = run.get("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->array.size(), 1u);
    const qa::JsonValue &result = *results->array[0];
    EXPECT_EQ(result.get("ruleId")->string, "local-static");
    EXPECT_EQ(result.get("level")->string, "error");
    EXPECT_FALSE(result.get("message")->get("text")->string.empty());
    const qa::JsonValue &loc = *result.get("locations")->array[0];
    const qa::JsonValue *phys = loc.get("physicalLocation");
    ASSERT_NE(phys, nullptr);
    EXPECT_EQ(phys->get("artifactLocation")->get("uri")->string,
              "src/a.cpp");
    EXPECT_EQ(phys->get("region")->get("startLine")->number, 2.0);
    EXPECT_FALSE(result.get("partialFingerprints")
                     ->get("qedmTokenContext/v1")
                     ->string.empty());
}

// ---------------------------------------------------------------------
// Determinism and the real tree

TEST(Determinism, JobsOneAndFourAreByteIdentical)
{
    qa::AnalyzeOptions opts;
    opts.root = QEDM_SOURCE_DIR;
    opts.jobs = 1;
    const qa::Report serial = qa::analyzeTree(opts);
    ASSERT_TRUE(serial.error.empty()) << serial.error;
    opts.jobs = 4;
    const qa::Report parallel = qa::analyzeTree(opts);
    ASSERT_TRUE(parallel.error.empty()) << parallel.error;

    EXPECT_EQ(qa::renderText(serial), qa::renderText(parallel));
    EXPECT_EQ(qa::renderSarif(serial.findings),
              qa::renderSarif(parallel.findings));
}

TEST(Determinism, RepoTreeIsCleanUnderTheBaseline)
{
    qa::AnalyzeOptions opts;
    opts.root = QEDM_SOURCE_DIR;
    opts.jobs = 4;
    const qa::Report report = qa::analyzeTree(opts);
    ASSERT_TRUE(report.error.empty()) << report.error;
    EXPECT_TRUE(report.findings.empty())
        << qa::renderText(report);
}

} // namespace
