/**
 * @file
 * Shared distance tables over the device coupling graph, used by
 * placement and routing heuristics.
 *
 * One immutable all-pairs table per (view fingerprint, route cost),
 * built by per-source Dijkstra over the view's allowed subgraph so
 * masked regions never see distances through disallowed qubits.
 * Consumers fetch it through sharedDistanceProvider.
 */

#pragma once

#include <memory>
#include <vector>

#include "hw/device_view.hpp"
#include "transpile/router.hpp"

namespace qedm::transpile {

/** Sentinel for disconnected (or mask-excluded) qubit pairs. */
inline constexpr double kUnreachableDistance = 1e18;

/**
 * All-pairs shortest-path costs over a device view, where each edge
 * costs -log(1 - cxError) (reliability metric) or 1 (hop metric).
 * Paths only traverse allowed qubits; any pair touching a disallowed
 * qubit, or disconnected, reports kUnreachableDistance. Copies what
 * it needs at construction, so it never dangles past a Device.
 */
class DistanceTable
{
  public:
    DistanceTable(const hw::DeviceView &view, RouteCost cost);

    /** Shortest-path cost from @p a to @p b under the view. */
    double distance(int a, int b) const;

  private:
    /** Row-major by source qubit. */
    std::vector<std::vector<double>> matrix_;
};

/**
 * Memoized table, keyed on (view fingerprint, cost metric) — NOT the
 * device fingerprint, or a masked view would poison the full-device
 * entry. Thread-safe; the returned table is immutable and shareable
 * across threads.
 */
std::shared_ptr<const DistanceTable>
sharedDistanceProvider(const hw::DeviceView &view, RouteCost cost);

} // namespace qedm::transpile
