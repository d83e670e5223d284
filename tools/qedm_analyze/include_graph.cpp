#include "qedm_analyze/include_graph.hpp"

#include <functional>
#include <map>

namespace qedm::analyze {

namespace {

/**
 * The layer DAG: module → modules it may include. Matches DESIGN.md
 * §5/§15 and the dependency edges the build actually links today;
 * growing a module's dependencies means editing this table in the
 * same PR. Modules absent from the table (and files directly under
 * src/) carry no constraint.
 */
const std::map<std::string, std::set<std::string>> &
allowedDeps()
{
    static const std::map<std::string, std::set<std::string>> table = {
        {"common", {}},
        {"stats", {"common"}},
        {"circuit", {"common"}},
        {"hw", {"common"}},
        {"runtime", {"common"}},
        // resilience reaches down to stats (journaled batch counts)
        // and check (structured journal-corruption errors); see the
        // crash-safe journal design in DESIGN.md.
        {"resilience", {"common", "runtime", "stats", "check"}},
        {"analysis", {"common", "stats"}},
        {"check", {"common", "circuit", "hw"}},
        {"sim", {"common", "circuit", "hw", "stats"}},
        {"variational", {"common", "circuit", "hw", "stats"}},
        {"transpile", {"common", "circuit", "hw", "check"}},
        {"benchmarks", {"common", "circuit"}},
        {"core",
         {"common", "stats", "circuit", "hw", "check", "sim",
          "transpile", "benchmarks", "resilience", "runtime"}},
    };
    return table;
}

/** Module of a scanned file: "src/transpile/x.hpp" → "transpile";
 *  files outside src/ or directly under it have no module. */
std::string
moduleOf(const std::string &rel_path)
{
    if (rel_path.rfind("src/", 0) != 0)
        return {};
    const std::size_t start = 4;
    const std::size_t slash = rel_path.find('/', start);
    if (slash == std::string::npos)
        return {};
    return rel_path.substr(start, slash - start);
}

/** Module of an include target: "transpile/router.hpp" →
 *  "transpile"; same-directory includes have no module. */
std::string
targetModule(const std::string &target)
{
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos)
        return {};
    return target.substr(0, slash);
}

std::string
dirname(const std::string &rel_path)
{
    const std::size_t slash = rel_path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : rel_path.substr(0, slash);
}

} // namespace

void
collectIncludes(const FileScan &scan, std::vector<IncludeEdge> &out)
{
    for (std::size_t i = 0; i + 1 < scan.tokens.size(); ++i) {
        const Token &d = scan.tokens[i];
        if (d.kind != TokKind::PPDirective || d.text != "include")
            continue;
        // The header-name token follows immediately (comments
        // between `#include` and the name are legal but unheard-of;
        // skip them if present).
        std::size_t j = i + 1;
        while (j < scan.tokens.size() &&
               scan.tokens[j].kind == TokKind::Comment)
            ++j;
        if (j < scan.tokens.size() &&
            scan.tokens[j].kind == TokKind::PPHeaderQuote) {
            out.push_back(IncludeEdge{scan.rel_path,
                                      scan.tokens[j].line,
                                      scan.tokens[j].text});
        }
    }
}

void
analyzeIncludeGraph(const std::vector<IncludeEdge> &edges,
                    const std::set<std::string> &scanned,
                    std::vector<Finding> &out)
{
    const auto &allowed = allowedDeps();
    std::map<std::string, std::vector<std::string>> graph;
    for (const IncludeEdge &e : edges) {
        const std::string from_mod = moduleOf(e.from);
        const std::string to_mod = targetModule(e.target);
        if (!from_mod.empty() && !to_mod.empty() &&
            from_mod != to_mod) {
            const auto it = allowed.find(from_mod);
            if (it != allowed.end() &&
                it->second.count(to_mod) == 0) {
                out.push_back(Finding{
                    e.from, e.line, "layering",
                    "src/" + from_mod + " may not include " + to_mod +
                        "/ headers (" + e.target +
                        "); the layer DAG allows no such edge — see "
                        "DESIGN.md and "
                        "tools/qedm_analyze/include_graph.cpp",
                    e.target, 0});
            }
        }
        // Cycle graph: resolve against src/ (project convention) and
        // the including file's own directory.
        for (const std::string &resolved :
             {"src/" + e.target, dirname(e.from) + "/" + e.target}) {
            if (scanned.count(resolved) != 0) {
                graph[e.from].push_back(resolved);
                break;
            }
        }
    }

    // Iterative-enough three-color DFS (recursion depth is bounded by
    // include-chain length); a back edge to an in-progress node
    // closes a cycle, reported once with the full path.
    std::map<std::string, int> color; // 0 white, 1 gray, 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;
    std::function<void(const std::string &)> visit =
        [&](const std::string &node) {
            color[node] = 1;
            stack.push_back(node);
            for (const std::string &next : graph[node]) {
                if (color[next] == 1) {
                    std::string path = next;
                    for (std::size_t i = stack.size(); i-- > 0;) {
                        path += " -> " + stack[i];
                        if (stack[i] == next)
                            break;
                    }
                    if (reported.insert(path).second) {
                        out.push_back(
                            Finding{node, 0, "include-cycle",
                                    "include cycle: " + path, path,
                                    0});
                    }
                } else if (color[next] == 0) {
                    visit(next);
                }
            }
            stack.pop_back();
            color[node] = 2;
        };
    for (const auto &[node, _] : graph) {
        if (color[node] == 0)
            visit(node);
    }
}

} // namespace qedm::analyze
