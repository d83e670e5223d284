/**
 * @file
 * Unit tests for qedm::check: the static verifier passes (circuit
 * structure, mapping/coupling/SWAP bookkeeping, measurement-remap
 * consistency, ESP consistency), their diagnostics, and the
 * transpiler/ensemble/pipeline wiring.
 * Fixtures corrupt real routed circuits — an uncoupled CX, a
 * non-bijective layout, a stale ESP — and assert that the right pass
 * rejects with the right diagnostic.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "check/check.hpp"
#include "check/circuit_checker.hpp"
#include "check/esp_checker.hpp"
#include "check/mapping_checker.hpp"
#include "check/measure_checker.hpp"
#include "core/edm.hpp"
#include "core/ensemble.hpp"
#include "hw/device.hpp"
#include "transpile/esp.hpp"
#include "transpile/transpiler.hpp"

namespace qedm::check {
namespace {

using circuit::Circuit;
using transpile::CompiledProgram;
using transpile::Transpiler;

/** A freshly compiled BV-6 program on the paper's device. */
CompiledProgram
compiledBv6(const hw::Device &device)
{
    const Transpiler compiler(device);
    return compiler.compile(benchmarks::bv6().circuit);
}

ProgramView
viewOf(const CompiledProgram &program, const hw::Device &device)
{
    ProgramView view;
    view.physical = &program.physical;
    view.initialMap = &program.initialMap;
    view.finalMap = &program.finalMap;
    view.swapCount = program.swapCount;
    view.esp = program.esp;
    view.device = &device;
    return view;
}

TEST(CheckErrorTest, CarriesPassGateAndQubitDiagnostics)
{
    const CheckError err("mapping", "cx acts on an uncoupled pair", 12,
                         {3, 9});
    EXPECT_EQ(err.pass(), "mapping");
    EXPECT_EQ(err.kind(), CheckErrorKind::Unspecified);
    EXPECT_EQ(err.gateIndex(), 12);
    EXPECT_EQ(err.qubits(), (std::vector<int>{3, 9}));
    const std::string what = err.what();
    EXPECT_NE(what.find("check[mapping]"), std::string::npos);
    EXPECT_NE(what.find("gate 12"), std::string::npos);
    EXPECT_NE(what.find("p3,p9"), std::string::npos);
}

TEST(CheckErrorTest, CarriesStructuredKind)
{
    const CheckError err("mapping", CheckErrorKind::UncoupledGate,
                         "cx acts on an uncoupled pair", 12, {3, 9});
    EXPECT_EQ(err.kind(), CheckErrorKind::UncoupledGate);
    EXPECT_STREQ(checkErrorKindName(err.kind()), "uncoupled-gate");
    EXPECT_EQ(err.pass(), "mapping");
    EXPECT_EQ(err.gateIndex(), 12);
    EXPECT_EQ(err.qubits(), (std::vector<int>{3, 9}));
}

TEST(CircuitCheckerTest, AcceptsCompiledProgram)
{
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    EXPECT_NO_THROW(CircuitChecker{}.check(program.physical));
}

TEST(CircuitCheckerTest, RejectsUseAfterMeasure)
{
    Circuit c(3, 3);
    c.h(0).measure(0, 0).x(0);
    try {
        CircuitChecker{}.check(c);
        FAIL() << "use-after-measure not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "circuit");
        EXPECT_EQ(err.kind(), CheckErrorKind::UseAfterMeasure);
        EXPECT_EQ(err.gateIndex(), 2);
    }
}

TEST(CircuitCheckerTest, AllowsDeclaredMidCircuitMeasure)
{
    Circuit c(3, 3);
    c.h(0).measure(0, 0).x(0);
    CircuitCheckOptions options;
    options.allowUseAfterMeasure = true;
    EXPECT_NO_THROW(CircuitChecker{options}.check(c));
}

TEST(CircuitCheckerTest, RejectsRawGateOutOfRange)
{
    // Raw gate lists bypass the builder validation; the checker must
    // catch them anyway.
    const std::vector<circuit::Gate> gates{
        {circuit::OpKind::Cx, {0, 7}, {}, -1}};
    try {
        CircuitChecker{}.checkGates(gates, 4, 4);
        FAIL() << "out-of-range qubit not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "circuit");
        EXPECT_EQ(err.kind(), CheckErrorKind::QubitOutOfRange);
        EXPECT_EQ(err.gateIndex(), 0);
    }
}

TEST(CircuitCheckerTest, RejectsRawGateArityMismatch)
{
    const std::vector<circuit::Gate> gates{
        {circuit::OpKind::Cx, {0}, {}, -1}};
    try {
        CircuitChecker{}.checkGates(gates, 4, 4);
        FAIL() << "arity mismatch not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.kind(), CheckErrorKind::ArityMismatch);
    }
}

TEST(MappingCheckerTest, AcceptsCompiledProgram)
{
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    EXPECT_NO_THROW(MappingChecker{}.run(viewOf(program, device)));
}

TEST(MappingCheckerTest, RejectsUncoupledCx)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    // Corrupt the routed circuit with a CX between qubits 0 and 7,
    // which are not coupled on melbourne.
    ASSERT_FALSE(device.topology().adjacent(0, 7));
    program.physical.cx(0, 7);
    try {
        MappingChecker{}.checkCoupling(program.physical, device);
        FAIL() << "uncoupled CX not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "mapping");
        EXPECT_EQ(err.gateIndex(),
                  static_cast<int>(program.physical.size()) - 1);
        EXPECT_EQ(err.kind(), CheckErrorKind::UncoupledGate);
        EXPECT_EQ(err.qubits(), (std::vector<int>{0, 7}));
    }
}

TEST(MappingCheckerTest, RejectsNonBijectiveLayout)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    ASSERT_GE(program.initialMap.size(), 2u);
    program.initialMap[1] = program.initialMap[0];
    try {
        MappingChecker{}.run(viewOf(program, device));
        FAIL() << "non-bijective layout not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "mapping");
        EXPECT_EQ(err.kind(), CheckErrorKind::LayoutNotBijective);
    }
}

TEST(MappingCheckerTest, RejectsLayoutOutsideDevice)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    program.initialMap[0] = device.numQubits();
    try {
        MappingChecker{}.run(viewOf(program, device));
        FAIL() << "out-of-device layout not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.kind(), CheckErrorKind::LayoutOutOfRange);
    }
}

TEST(MappingCheckerTest, RejectsStaleFinalMap)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    ASSERT_GE(program.finalMap.size(), 2u);
    std::swap(program.finalMap[0], program.finalMap[1]);
    try {
        MappingChecker{}.run(viewOf(program, device));
        FAIL() << "stale final map not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "mapping");
        EXPECT_EQ(err.kind(), CheckErrorKind::SwapTrailMismatch);
    }
}

TEST(MappingCheckerTest, RejectsSwapCountMismatch)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    program.swapCount += 1;
    try {
        MappingChecker{}.run(viewOf(program, device));
        FAIL() << "SWAP count mismatch not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "mapping");
        EXPECT_EQ(err.kind(), CheckErrorKind::SwapCountMismatch);
    }
}

TEST(EspCheckerTest, RecomputationMatchesTranspilerScore)
{
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    EXPECT_NEAR(EspChecker{}.recompute(program.physical, device),
                transpile::esp(program.physical, device), 1e-15);
    EXPECT_NO_THROW(EspChecker{}.run(viewOf(program, device)));
}

TEST(EspCheckerTest, ToleratesTinyReportingNoise)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    program.esp += 1e-12;
    EXPECT_NO_THROW(EspChecker{}.run(viewOf(program, device)));
}

TEST(EspCheckerTest, RejectsStaleEsp)
{
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    program.esp += 1e-3; // score no longer matches the circuit
    try {
        EspChecker{}.run(viewOf(program, device));
        FAIL() << "stale ESP not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "esp");
        EXPECT_EQ(err.kind(), CheckErrorKind::EspMismatch);
    }
}

TEST(EspCheckerTest, RejectsCircuitEditedAfterScoring)
{
    // The motivating bug: a transform edits the routed circuit after
    // the score pass and forgets to re-score it.
    const hw::Device device = hw::Device::melbourne(2);
    CompiledProgram program = compiledBv6(device);
    const auto [a, b] = std::pair{device.topology().edges().front().a,
                                  device.topology().edges().front().b};
    program.physical.cx(a, b);
    EXPECT_THROW(EspChecker{}.run(viewOf(program, device)), CheckError);
}

TEST(MeasureCheckerTest, AcceptsCompiledProgram)
{
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    EXPECT_NO_THROW(MeasureChecker{}.run(viewOf(program, device)));
}

TEST(MeasureCheckerTest, AcceptsLogicalSourceThroughFinalMap)
{
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    const Circuit logical = benchmarks::bv6().circuit;
    ProgramView view = viewOf(program, device);
    view.logical = &logical;
    EXPECT_NO_THROW(MeasureChecker{}.run(view));
}

TEST(MeasureCheckerTest, RejectsMeasureOffFinalLayout)
{
    // A measure left on a stale physical qubit after SWAP insertion:
    // the final map's image no longer contains the measured qubit.
    Circuit physical(4, 1);
    physical.h(0).measure(3, 0);
    const std::vector<int> final_map{0, 1};
    try {
        MeasureChecker{}.checkMeasureTargets(physical, final_map);
        FAIL() << "off-layout measure not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "measure");
        EXPECT_EQ(err.kind(), CheckErrorKind::MeasureOffLayout);
        EXPECT_EQ(err.qubits(), (std::vector<int>{3}));
    }
}

TEST(MeasureCheckerTest, RejectsDuplicateClbitWrites)
{
    Circuit physical(4, 2);
    physical.measure(0, 0).measure(1, 0);
    try {
        MeasureChecker{}.checkMeasureTargets(physical, {0, 1});
        FAIL() << "duplicate clbit write not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "measure");
        EXPECT_EQ(err.kind(), CheckErrorKind::ClbitMisuse);
    }
}

TEST(MeasureCheckerTest, RejectsRemapMismatch)
{
    // The logical program reads logical qubit 0, which the final map
    // sends to physical 5 — but the physical program measures 6.
    Circuit logical(2, 1);
    logical.cx(0, 1).measure(0, 0);
    Circuit physical(14, 1);
    physical.measure(6, 0);
    const std::vector<int> final_map{5, 6};
    try {
        MeasureChecker{}.checkMeasureRemap(logical, physical,
                                           final_map);
        FAIL() << "remapped measure mismatch not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "measure");
        EXPECT_EQ(err.kind(), CheckErrorKind::MeasureRemapMismatch);
        EXPECT_EQ(err.qubits(), (std::vector<int>{6, 5}));
    }
}

TEST(MeasureCheckerTest, RejectsMissingPhysicalMeasure)
{
    Circuit logical(2, 2);
    logical.measure(0, 0).measure(1, 1);
    Circuit physical(14, 2);
    physical.measure(5, 0);
    try {
        MeasureChecker{}.checkMeasureRemap(logical, physical, {5, 6});
        FAIL() << "dropped measure not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.kind(), CheckErrorKind::MeasureRemapMismatch);
    }
}

TEST(MeasureCheckerTest, KindNamesAreStable)
{
    EXPECT_STREQ(checkErrorKindName(CheckErrorKind::MeasureOffLayout),
                 "measure-off-layout");
    EXPECT_STREQ(
        checkErrorKindName(CheckErrorKind::MeasureRemapMismatch),
        "measure-remap-mismatch");
}

TEST(VerifyProgramTest, RunsEveryStandardPass)
{
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    EXPECT_EQ(verifyProgram(viewOf(program, device)),
              standardPasses().size());
    EXPECT_EQ(standardPasses().size(), 4u);
}

/** Writes clbit 0 twice: it places, routes and scores, and only the
 *  measure checker rejects it, so it shows whether verification ran. */
Circuit
doubleClbitWrite()
{
    Circuit logical(2, 1);
    logical.cx(0, 1).measure(0, 0).measure(1, 0);
    return logical;
}

/** melbourne's qubits 0-6. */
const std::vector<int> kRegion = {0, 1, 2, 3, 4, 5, 6};

/** @p compile throws the measure checker's double-write error. */
template <typename Fn>
void
expectDoubleWriteRejected(Fn &&compile, const std::string &what)
{
    try {
        compile();
        ADD_FAILURE() << what << ": double clbit write not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "measure") << what;
        EXPECT_EQ(err.kind(), CheckErrorKind::ClbitMisuse) << what;
        EXPECT_NE(std::string(err.what())
                      .find("clbit 0 is written by more than one measure"),
                  std::string::npos)
            << what;
    }
}

TEST(TranspilerHookTest, CheckPassRunsWhenVerifyEnabled)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView region(device, kRegion);
    const Circuit logical = doubleClbitWrite();
    const std::vector<int> placement = {0, 1};
    const Transpiler on(region, transpile::RouteCost::Reliability, true);
    expectDoubleWriteRejected([&] { on.compile(logical); }, "compile");
    expectDoubleWriteRejected(
        [&] { on.compileWithPlacement(logical, placement); },
        "compileWithPlacement");
}

TEST(TranspilerHookTest, CheckPassAbsentWhenVerifyDisabled)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView region(device, kRegion);
    const Circuit logical = doubleClbitWrite();
    const std::vector<int> placement = {0, 1};
    const Transpiler off(region, transpile::RouteCost::Reliability,
                         false);
    EXPECT_NO_THROW(off.compile(logical));
    EXPECT_NO_THROW(off.compileWithPlacement(logical, placement));
}

TEST(TranspilerHookTest, VerifyCompiledRejectsStaleEsp)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView full(device);
    const Circuit logical = benchmarks::bv6().circuit;
    CompiledProgram program = compiledBv6(device);
    EXPECT_NO_THROW(transpile::verifyCompiled(program, logical, full));
    program.esp += 1e-6;
    try {
        transpile::verifyCompiled(program, logical, full);
        FAIL() << "stale esp not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.kind(), CheckErrorKind::EspMismatch);
    }
}

TEST(TranspilerHookTest, VerifiedCompileMatchesUnverified)
{
    const hw::Device device = hw::Device::melbourne(2);
    const auto logical = benchmarks::bv6().circuit;
    const Transpiler on(device, transpile::RouteCost::Reliability,
                        true);
    const Transpiler off(device, transpile::RouteCost::Reliability,
                         false);
    const CompiledProgram a = on.compile(logical);
    const CompiledProgram b = off.compile(logical);
    EXPECT_EQ(a.physical.fingerprint(), b.physical.fingerprint());
    EXPECT_EQ(a.initialMap, b.initialMap);
    EXPECT_EQ(a.finalMap, b.finalMap);
    EXPECT_DOUBLE_EQ(a.esp, b.esp);
}

TEST(EnsembleHookTest, VerifiedBuildProducesValidMembers)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EnsembleConfig config;
    config.verifyPasses = true;
    const core::EnsembleBuilder builder(device, config);
    const auto members = builder.build(benchmarks::bv6().circuit);
    ASSERT_FALSE(members.empty());
    for (const auto &member : members)
        EXPECT_NO_THROW(verifyProgram(viewOf(member, device)));
}

TEST(EnsembleHookTest, VerifyPassesCheckSeedAndEveryTransfer)
{
    const hw::Device device = hw::Device::melbourne(2);
    const Circuit logical = doubleClbitWrite();
    core::EnsembleConfig config;
    config.region = kRegion;
    config.verifyPasses = false;
    EXPECT_FALSE(core::EnsembleBuilder(device, config).build(logical)
                     .empty());

    config.verifyPasses = true;
    expectDoubleWriteRejected(
        [&] { core::EnsembleBuilder(device, config).build(logical); },
        "build, seed compiled");

    // A cached seed skips the compiler's check (the cache key ignores
    // the verify flag), so only the per-transfer check can reject it.
    transpile::CompileCache cache;
    cache.getOrCompile(Transpiler(hw::DeviceView(device, kRegion),
                                  config.routeCost, false),
                       logical);
    config.compileCache = &cache;
    expectDoubleWriteRejected(
        [&] { core::EnsembleBuilder(device, config).build(logical); },
        "build, seed cached");
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(PipelineHookTest, EdmRunWithVerifyPassesEnabled)
{
    const hw::Device device = hw::Device::melbourne(2);
    core::EdmConfig config;
    config.totalShots = 512;
    config.verifyPasses = true;
    const core::EdmPipeline pipeline(device, config);
    Rng rng(5);
    const auto result = pipeline.run(benchmarks::bv6().circuit, rng);
    EXPECT_FALSE(result.members.empty());
}

TEST(MappingCheckerTest, AcceptsProgramInsideRegion)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView region(device,
                                {0, 1, 2, 3, 4, 5, 6, 13, 12});
    const Transpiler compiler(region);
    const CompiledProgram program =
        compiler.compile(benchmarks::bv6().circuit);
    ProgramView view = viewOf(program, device);
    view.region = &region;
    EXPECT_NO_THROW(MappingChecker{}.run(view));
}

TEST(MappingCheckerTest, RejectsLayoutOutsideRegion)
{
    // A program compiled against the full device escapes a mask that
    // excludes one of its qubits; the region pass must reject it.
    const hw::Device device = hw::Device::melbourne(2);
    const CompiledProgram program = compiledBv6(device);
    std::vector<int> partial;
    for (int q = 0; q < device.numQubits(); ++q) {
        if (q != program.initialMap[0])
            partial.push_back(q);
    }
    const hw::DeviceView region(device, partial);
    ProgramView view = viewOf(program, device);
    view.region = &region;
    try {
        MappingChecker{}.run(view);
        FAIL() << "out-of-region layout not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.pass(), "mapping");
        EXPECT_EQ(err.kind(), CheckErrorKind::QubitOutsideRegion);
        EXPECT_STREQ(checkErrorKindName(err.kind()),
                     "qubit-outside-region");
    }
}

TEST(MappingCheckerTest, RejectsGateEscapingRegion)
{
    // The maps stay inside the region but a gate (e.g. a routed SWAP
    // leg) touches a disallowed qubit.
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView region(device,
                                {0, 1, 2, 3, 4, 5, 6, 13, 12});
    const Transpiler compiler(region);
    CompiledProgram program =
        compiler.compile(benchmarks::bv6().circuit);
    ASSERT_FALSE(region.allowed(8));
    ASSERT_TRUE(device.topology().adjacent(7, 8));
    program.physical.cx(7, 8);
    ProgramView view = viewOf(program, device);
    view.region = &region;
    try {
        MappingChecker{}.checkRegion(view, region);
        FAIL() << "out-of-region gate not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.kind(), CheckErrorKind::QubitOutsideRegion);
    }
}

TEST(MappingCheckerTest, RejectsMeasureEscapingRegion)
{
    // checkCoupling skips measures, so the region walk must not: a
    // measurement on a disallowed qubit is an escape too.
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView region(device,
                                {0, 1, 2, 3, 4, 5, 6, 13, 12});
    const Transpiler compiler(region);
    CompiledProgram program =
        compiler.compile(benchmarks::bv6().circuit);
    ASSERT_FALSE(region.allowed(9));
    program.physical.measure(9, 0);
    ProgramView view = viewOf(program, device);
    view.region = &region;
    try {
        MappingChecker{}.checkRegion(view, region);
        FAIL() << "out-of-region measure not rejected";
    } catch (const CheckError &err) {
        EXPECT_EQ(err.kind(), CheckErrorKind::QubitOutsideRegion);
    }
}

TEST(MappingCheckerTest, FullRegionViewIsNeverRejected)
{
    const hw::Device device = hw::Device::melbourne(2);
    const hw::DeviceView full(device);
    const CompiledProgram program = compiledBv6(device);
    ProgramView view = viewOf(program, device);
    view.region = &full;
    EXPECT_NO_THROW(MappingChecker{}.run(view));
}

} // namespace
} // namespace qedm::check
