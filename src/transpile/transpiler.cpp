#include "transpile/transpiler.hpp"

#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "runtime/clock.hpp"
#include "transpile/esp.hpp"
#include "transpile/placer.hpp"

namespace qedm::transpile {

std::vector<int>
CompiledProgram::usedQubits() const
{
    std::set<int> used;
    for (const auto &g : physical.gates())
        used.insert(g.qubits.begin(), g.qubits.end());
    return {used.begin(), used.end()};
}

Transpiler::Transpiler(const hw::Device &device, RouteCost cost,
                       bool verify)
    : view_(device), cost_(cost), verify_(verify)
{
}

Transpiler::Transpiler(hw::DeviceView view, RouteCost cost, bool verify)
    : view_(std::move(view)), cost_(cost), verify_(verify)
{
}

namespace {

/** Mutable state threaded through the pass list. */
struct CompileContext
{
    const circuit::Circuit *logical = nullptr;
    std::vector<int> initialMap;
    std::optional<RouteResult> routed;
    CompiledProgram out;
};

using PassFn = std::function<void(CompileContext &, PassMetadata &)>;

} // namespace

CompileTrace
Transpiler::runPasses(const circuit::Circuit &logical,
                      const std::vector<int> *initial_map) const
{
    std::vector<std::pair<std::string, PassFn>> passes;

    if (initial_map == nullptr) {
        passes.emplace_back(
            "place", [this](CompileContext &ctx, PassMetadata &meta) {
                ctx.initialMap = Placer(view_).place(*ctx.logical);
                meta.metrics["placedQubits"] =
                    static_cast<double>(ctx.initialMap.size());
            });
    }
    passes.emplace_back(
        "route", [this](CompileContext &ctx, PassMetadata &meta) {
            Router router(view_, cost_);
            ctx.routed = router.route(*ctx.logical, ctx.initialMap);
            meta.metrics["swaps"] =
                static_cast<double>(ctx.routed->swapCount);
        });
    passes.emplace_back(
        "score", [this](CompileContext &ctx, PassMetadata &meta) {
            ctx.out.initialMap = ctx.initialMap;
            ctx.out.finalMap = std::move(ctx.routed->finalMap);
            ctx.out.swapCount = ctx.routed->swapCount;
            ctx.out.esp = esp(ctx.routed->physical, view_.device());
            ctx.out.physical = std::move(ctx.routed->physical);
            meta.metrics["esp"] = ctx.out.esp;
        });
    if (verify_) {
        passes.emplace_back(
            "check", [this](CompileContext &ctx, PassMetadata &meta) {
                check::ProgramView view;
                view.physical = &ctx.out.physical;
                view.initialMap = &ctx.out.initialMap;
                view.finalMap = &ctx.out.finalMap;
                view.swapCount = ctx.out.swapCount;
                view.esp = ctx.out.esp;
                view.device = &view_.device();
                view.logical = ctx.logical;
                view.region = &view_;
                meta.metrics["passesRun"] = static_cast<double>(
                    check::verifyProgram(view));
            });
    }

    CompileContext ctx;
    ctx.logical = &logical;
    if (initial_map != nullptr)
        ctx.initialMap = *initial_map;

    CompileTrace trace;
    trace.passes.reserve(passes.size());
    for (auto &[name, pass] : passes) {
        PassMetadata meta;
        meta.name = name;
        const runtime::Clock &clock_src = runtime::steadyClock();
        const double start_ms = clock_src.nowMs();
        pass(ctx, meta);
        meta.milliseconds = clock_src.nowMs() - start_ms;
        trace.passes.push_back(std::move(meta));
    }
    trace.program = std::move(ctx.out);
    return trace;
}

CompiledProgram
Transpiler::compile(const circuit::Circuit &logical) const
{
    return runPasses(logical, nullptr).program;
}

CompileTrace
Transpiler::compileWithTrace(const circuit::Circuit &logical) const
{
    return runPasses(logical, nullptr);
}

CompiledProgram
Transpiler::compileWithPlacement(
    const circuit::Circuit &logical,
    const std::vector<int> &initial_map) const
{
    return runPasses(logical, &initial_map).program;
}

} // namespace qedm::transpile
