#include "transpile/distances.hpp"

#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <queue>
#include <utility>

#include "common/error.hpp"

namespace qedm::transpile {

namespace {

std::vector<double>
edgeCosts(const hw::Device &device, RouteCost cost)
{
    const auto &topo = device.topology();
    std::vector<double> edge_cost(topo.numEdges());
    for (std::size_t e = 0; e < topo.numEdges(); ++e) {
        if (cost == RouteCost::HopCount) {
            edge_cost[e] = 1.0;
        } else {
            const double err = device.calibration().edge(e).cxError;
            edge_cost[e] = -std::log(std::max(1.0 - err, 1e-12));
        }
    }
    return edge_cost;
}

/** One Dijkstra row over the allowed subgraph (all of it when null). */
std::vector<double>
dijkstraRow(const hw::Topology &topo, const std::vector<double> &edge_cost,
            const std::vector<bool> *allowed, int src)
{
    const int n = topo.numQubits();
    std::vector<double> dist(static_cast<std::size_t>(n),
                             kUnreachableDistance);
    if (allowed && !(*allowed)[static_cast<std::size_t>(src)])
        return dist;
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[static_cast<std::size_t>(src)] = 0.0;
    pq.emplace(0.0, src);
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[static_cast<std::size_t>(u)])
            continue;
        for (int v : topo.neighbors(u)) {
            if (allowed && !(*allowed)[static_cast<std::size_t>(v)])
                continue;
            const int e = topo.edgeIndex(u, v);
            const double nd = d + edge_cost[static_cast<std::size_t>(e)];
            if (nd < dist[static_cast<std::size_t>(v)]) {
                dist[static_cast<std::size_t>(v)] = nd;
                pq.emplace(nd, v);
            }
        }
    }
    return dist;
}

} // namespace

DistanceTable::DistanceTable(const hw::DeviceView &view, RouteCost cost)
{
    const auto &topo = view.topology();
    const std::vector<double> edge_cost = edgeCosts(view.device(), cost);
    matrix_.reserve(static_cast<std::size_t>(topo.numQubits()));
    for (int src = 0; src < topo.numQubits(); ++src)
        matrix_.push_back(
            dijkstraRow(topo, edge_cost, view.maskPtr(), src));
}

double
DistanceTable::distance(int a, int b) const
{
    const int n = static_cast<int>(matrix_.size());
    QEDM_REQUIRE(a >= 0 && a < n && b >= 0 && b < n,
                 "qubit index out of range");
    return matrix_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

namespace {

/**
 * Bounded FIFO cache of distance tables, keyed on the VIEW
 * fingerprint so restricted regions and the full device never share
 * an entry.
 */
class ProviderRegistry
{
  public:
    std::shared_ptr<const DistanceTable>
    get(const hw::DeviceView &view, RouteCost cost)
    {
        const Key key{view.fingerprint(), cost};
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = providers_.find(key);
        if (it != providers_.end())
            return it->second;
        auto provider = std::make_shared<const DistanceTable>(view, cost);
        providers_.emplace(key, provider);
        order_.push_back(key);
        while (providers_.size() > kCapacity) {
            providers_.erase(order_.front());
            order_.pop_front();
        }
        return provider;
    }

  private:
    using Key = std::pair<std::uint64_t, RouteCost>;

    static constexpr std::size_t kCapacity = 64;

    std::mutex mutex_;
    std::map<Key, std::shared_ptr<const DistanceTable>> providers_;
    std::list<Key> order_;
};

} // namespace

std::shared_ptr<const DistanceTable>
sharedDistanceProvider(const hw::DeviceView &view, RouteCost cost)
{
    static ProviderRegistry registry;
    return registry.get(view, cost);
}

} // namespace qedm::transpile
