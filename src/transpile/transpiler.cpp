#include "transpile/transpiler.hpp"

#include <set>
#include <utility>

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

CompiledProgram
Transpiler::routeAndScore(const circuit::Circuit &logical,
                          std::vector<int> initial_map) const
{
    RouteResult routed = Router(view_, cost_).route(logical, initial_map);
    CompiledProgram out;
    out.initialMap = std::move(initial_map);
    out.finalMap = std::move(routed.finalMap);
    out.swapCount = routed.swapCount;
    out.esp = esp(routed.physical, view_.device());
    out.physical = std::move(routed.physical);
    if (verify_)
        verifyCompiled(out, logical, view_);
    return out;
}

CompiledProgram
Transpiler::compile(const circuit::Circuit &logical) const
{
    return routeAndScore(logical, Placer(view_).place(logical));
}

CompiledProgram
Transpiler::compileWithPlacement(
    const circuit::Circuit &logical,
    const std::vector<int> &initial_map) const
{
    return routeAndScore(logical, initial_map);
}

void
verifyCompiled(const CompiledProgram &program,
               const circuit::Circuit &logical, const hw::DeviceView &view)
{
    check::ProgramView pv;
    pv.physical = &program.physical;
    pv.initialMap = &program.initialMap;
    pv.finalMap = &program.finalMap;
    pv.swapCount = program.swapCount;
    pv.esp = program.esp;
    pv.device = &view.device();
    pv.logical = &logical;
    pv.region = &view;
    check::verifyProgram(pv);
}

} // namespace qedm::transpile
