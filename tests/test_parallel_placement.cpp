/**
 * @file
 * Parallel-vs-serial bit-identity for the placement search and the
 * ensemble candidate pipeline (DESIGN.md §18).
 *
 * The determinism contract says the top-K placements and the full
 * candidate list are byte-identical at every --jobs value. These
 * tests pin that contract at jobs 1/4/16, on topologies both sides
 * of the dense-distance threshold (melbourne at 14 qubits, heavy-hex
 * at 127), and under region-masked DeviceView searches — the three
 * axes along which the parallel driver, the shared pruning bound,
 * and the distance-provider sharding could each break it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/ensemble.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"
#include "runtime/scheduler.hpp"
#include "transpile/placer.hpp"

namespace qedm {
namespace {

/** The jobs values every identity test sweeps. */
const std::vector<int> kJobsSweep = {4, 16};

hw::Device
heavyHex127Device()
{
    return hw::Device::synthetic("heavy-hex-127",
                                 hw::Topology::heavyHex127(),
                                 hw::CalibrationSpec{}, hw::NoiseSpec{},
                                 7);
}

/** EXPECTs byte-identity of two scored placement lists (exact maps,
 *  exact doubles — no tolerance). */
void
expectIdentical(const std::vector<transpile::ScoredPlacement> &serial,
                const std::vector<transpile::ScoredPlacement> &parallel,
                int jobs)
{
    ASSERT_EQ(serial.size(), parallel.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].map, parallel[i].map)
            << "jobs=" << jobs << " rank=" << i;
        EXPECT_EQ(serial[i].esp, parallel[i].esp)
            << "jobs=" << jobs << " rank=" << i;
    }
}

/** Runs the serial search, then each parallel jobs value, and checks
 *  byte-identity of the results. */
void
checkPlacementIdentity(const transpile::Placer &serial_placer,
                       const hw::DeviceView &view,
                       const circuit::Circuit &logical, std::size_t k)
{
    const auto serial = serial_placer.topPlacements(logical, k);
    ASSERT_FALSE(serial.empty());
    for (const int jobs : kJobsSweep) {
        const runtime::JobScheduler sched(jobs);
        transpile::Placer placer(view);
        placer.setScheduler(&sched);
        expectIdentical(serial, placer.topPlacements(logical, k),
                        jobs);
    }
}

TEST(ParallelPlacement, BitIdenticalOnMelbourne)
{
    // 14 qubits: below kEagerDistanceMaxQubits, dense distance path.
    const hw::Device device = hw::Device::melbourne(2);
    const transpile::Placer placer(device);
    checkPlacementIdentity(placer, hw::DeviceView(device),
                           benchmarks::qaoaMaxcutPath(7).circuit, 4);
}

TEST(ParallelPlacement, BitIdenticalOnHeavyHex127)
{
    // 127 qubits: above the threshold, on-demand sharded distances.
    const hw::Device device = heavyHex127Device();
    const transpile::Placer placer(device);
    checkPlacementIdentity(placer, hw::DeviceView(device),
                           benchmarks::qaoaMaxcutPath(7).circuit, 4);
}

TEST(ParallelPlacement, BitIdenticalWithLargerK)
{
    // K past the diversity of the frontier: the merge has to rank
    // many near-tied candidates, where an unstable tie-break between
    // worker heaps would show first.
    const hw::Device device = heavyHex127Device();
    const transpile::Placer placer(device);
    checkPlacementIdentity(placer, hw::DeviceView(device),
                           benchmarks::qaoaMaxcutPath(5).circuit, 16);
}

TEST(ParallelPlacement, BitIdenticalRegionMasked)
{
    // Region-scoped search on the large device: a band of the lattice
    // wide enough to admit several embeddings. The mask changes the
    // root frontier and the feasibility bitsets; identity must hold
    // through both.
    const hw::Device device = heavyHex127Device();
    std::vector<int> region;
    for (int q = 0; q < 60; ++q)
        region.push_back(q);
    const hw::DeviceView view(device, region);
    const transpile::Placer placer(view);
    checkPlacementIdentity(placer, view,
                           benchmarks::qaoaMaxcutPath(5).circuit, 4);

    // Every returned map stays inside the region.
    const auto top =
        placer.topPlacements(benchmarks::qaoaMaxcutPath(5).circuit, 4);
    for (const auto &scored : top) {
        for (const int p : scored.map)
            EXPECT_TRUE(view.allowed(p));
    }
}

TEST(ParallelPlacement, BitIdenticalRegionMaskedSmallDevice)
{
    // Masked search below the dense-distance threshold.
    const hw::Device device = hw::Device::melbourne(2);
    std::vector<int> region;
    for (int q = 0; q < 10; ++q)
        region.push_back(q);
    const hw::DeviceView view(device, region);
    const transpile::Placer placer(view);
    checkPlacementIdentity(placer, view,
                           benchmarks::qaoaMaxcutPath(5).circuit, 4);
}

/** Two compiled programs are byte-identical: same gates, same maps,
 *  same score. */
void
expectSamePrograms(
    const std::vector<transpile::CompiledProgram> &serial,
    const std::vector<transpile::CompiledProgram> &parallel, int jobs)
{
    ASSERT_EQ(serial.size(), parallel.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].physical.toQasm(),
                  parallel[i].physical.toQasm())
            << "jobs=" << jobs << " member=" << i;
        EXPECT_EQ(serial[i].initialMap, parallel[i].initialMap)
            << "jobs=" << jobs << " member=" << i;
        EXPECT_EQ(serial[i].finalMap, parallel[i].finalMap)
            << "jobs=" << jobs << " member=" << i;
        EXPECT_EQ(serial[i].esp, parallel[i].esp)
            << "jobs=" << jobs << " member=" << i;
        EXPECT_EQ(serial[i].swapCount, parallel[i].swapCount)
            << "jobs=" << jobs << " member=" << i;
    }
}

TEST(ParallelEnsemble, CandidatesBitIdentical)
{
    const hw::Device device = hw::Device::melbourne(2);
    const auto logical = benchmarks::bv6().circuit;
    const core::EnsembleBuilder serial_builder(device);
    const auto serial = serial_builder.candidates(logical);
    ASSERT_FALSE(serial.empty());
    for (const int jobs : kJobsSweep) {
        const runtime::JobScheduler sched(jobs);
        core::EnsembleConfig config;
        config.scheduler = &sched;
        const core::EnsembleBuilder builder(device, config);
        expectSamePrograms(serial, builder.candidates(logical), jobs);
    }
}

TEST(ParallelEnsemble, BuildBitIdenticalOnHeavyHex27)
{
    // Full ensemble construction on a heavy-hex lattice: seed
    // compile with parallel placement search, then candidate ranking
    // and materialization. heavy-hex-27 stays under the 64-qubit circuit
    // cap that physical-circuit materialization requires.
    const hw::Device device = hw::Device::synthetic(
        "heavy-hex-27", hw::Topology::heavyHex27(),
        hw::CalibrationSpec{}, hw::NoiseSpec{}, 7);
    const auto logical = benchmarks::bv6().circuit;
    const core::EnsembleBuilder serial_builder(device);
    const auto serial = serial_builder.build(logical);
    ASSERT_FALSE(serial.empty());
    for (const int jobs : kJobsSweep) {
        const runtime::JobScheduler sched(jobs);
        core::EnsembleConfig config;
        config.scheduler = &sched;
        const core::EnsembleBuilder builder(device, config);
        expectSamePrograms(serial, builder.build(logical), jobs);
    }
}

TEST(ParallelEnsemble, RegionScopedCandidatesBitIdentical)
{
    const hw::Device device = hw::Device::synthetic(
        "heavy-hex-27", hw::Topology::heavyHex27(),
        hw::CalibrationSpec{}, hw::NoiseSpec{}, 7);
    const auto logical = benchmarks::bv6().circuit;
    std::vector<int> region;
    for (int q = 0; q < 20; ++q)
        region.push_back(q);
    core::EnsembleConfig serial_config;
    serial_config.region = region;
    const core::EnsembleBuilder serial_builder(device, serial_config);
    const auto serial = serial_builder.candidates(logical);
    ASSERT_FALSE(serial.empty());
    for (const int jobs : kJobsSweep) {
        const runtime::JobScheduler sched(jobs);
        core::EnsembleConfig config;
        config.region = region;
        config.scheduler = &sched;
        const core::EnsembleBuilder builder(device, config);
        expectSamePrograms(serial, builder.candidates(logical), jobs);
    }
}

} // namespace
} // namespace qedm
