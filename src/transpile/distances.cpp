#include "transpile/distances.hpp"

#include <array>
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

/**
 * One Dijkstra row over the allowed subgraph. With a null mask this
 * follows the exact traversal of distanceMatrix(), so full-view
 * providers reproduce its doubles bit-for-bit.
 */
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

DistanceMatrix
distanceMatrix(const hw::Device &device, RouteCost cost)
{
    const auto &topo = device.topology();
    const int n = topo.numQubits();
    const std::vector<double> edge_cost = edgeCosts(device, cost);
    std::vector<std::vector<double>> dist;
    dist.reserve(static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src)
        dist.push_back(dijkstraRow(topo, edge_cost, nullptr, src));
    return dist;
}

DenseDistanceProvider::DenseDistanceProvider(const hw::DeviceView &view,
                                             RouteCost cost)
{
    if (view.isFull()) {
        matrix_ = distanceMatrix(view.device(), cost);
        return;
    }
    const auto &topo = view.topology();
    const std::vector<double> edge_cost = edgeCosts(view.device(), cost);
    matrix_.reserve(static_cast<std::size_t>(topo.numQubits()));
    for (int src = 0; src < topo.numQubits(); ++src)
        matrix_.push_back(
            dijkstraRow(topo, edge_cost, view.maskPtr(), src));
}

double
DenseDistanceProvider::distance(int a, int b) const
{
    const int n = static_cast<int>(matrix_.size());
    QEDM_REQUIRE(a >= 0 && a < n && b >= 0 && b < n,
                 "qubit index out of range");
    return matrix_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

struct OnDemandDistanceProvider::Impl
{
    /**
     * Row fills are guarded by source-sharded locks (src mod
     * kLockShards), not one global mutex. The provider is shared
     * process-wide per view, and an experiment compiles its rounds
     * concurrently, so several threads can fill rows of one provider
     * at once; they only contend when they hash to the same shard,
     * and a thread holding one shard never blocks Dijkstra work under
     * another. Each row is computed exactly once (the shard lock
     * covers its slot's check-and-fill), so results are independent
     * of fill order.
     */
    static constexpr std::size_t kLockShards = 16;

    hw::Topology topo;
    std::vector<double> edgeCost;
    std::vector<bool> mask; ///< empty for a full view
    mutable std::array<std::mutex, kLockShards> shards;
    mutable std::vector<std::shared_ptr<const std::vector<double>>> rows;

    Impl(const hw::DeviceView &view, RouteCost cost)
        : topo(view.topology()),
          edgeCost(edgeCosts(view.device(), cost)),
          rows(static_cast<std::size_t>(view.numQubits()))
    {
        if (!view.isFull())
            mask = view.mask();
    }

    std::shared_ptr<const std::vector<double>> row(int src) const
    {
        std::lock_guard<std::mutex> lock(
            shards[static_cast<std::size_t>(src) % kLockShards]);
        auto &slot = rows[static_cast<std::size_t>(src)];
        if (!slot) {
            slot = std::make_shared<const std::vector<double>>(
                dijkstraRow(topo, edgeCost,
                            mask.empty() ? nullptr : &mask, src));
        }
        return slot;
    }
};

OnDemandDistanceProvider::OnDemandDistanceProvider(
    const hw::DeviceView &view, RouteCost cost)
    : impl_(std::make_shared<Impl>(view, cost))
{
}

double
OnDemandDistanceProvider::distance(int a, int b) const
{
    const int n = impl_->topo.numQubits();
    QEDM_REQUIRE(a >= 0 && a < n && b >= 0 && b < n,
                 "qubit index out of range");
    return (*impl_->row(a))[static_cast<std::size_t>(b)];
}

std::size_t
OnDemandDistanceProvider::rowsComputed() const
{
    // Take every shard (ascending, deadlock-free) so the count is a
    // consistent snapshot across concurrent row fills.
    std::array<std::unique_lock<std::mutex>, Impl::kLockShards> locks;
    for (std::size_t s = 0; s < Impl::kLockShards; ++s)
        locks[s] = std::unique_lock<std::mutex>(impl_->shards[s]);
    std::size_t count = 0;
    for (const auto &slot : impl_->rows) {
        if (slot)
            ++count;
    }
    return count;
}

namespace {

/** Bounded FIFO cache of distance matrices per calibration epoch. */
class DistanceRegistry
{
  public:
    std::shared_ptr<const DistanceMatrix>
    get(const hw::Device &device, RouteCost cost)
    {
        const Key key{device.fingerprint(), cost};
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = matrices_.find(key);
        if (it != matrices_.end())
            return it->second;
        auto matrix = std::make_shared<const DistanceMatrix>(
            distanceMatrix(device, cost));
        matrices_.emplace(key, matrix);
        order_.push_back(key);
        while (matrices_.size() > kCapacity) {
            matrices_.erase(order_.front());
            order_.pop_front();
        }
        return matrix;
    }

  private:
    using Key = std::pair<std::uint64_t, RouteCost>;

    static constexpr std::size_t kCapacity = 64;

    std::mutex mutex_;
    std::map<Key, std::shared_ptr<const DistanceMatrix>> matrices_;
    std::list<Key> order_;
};

/**
 * Bounded FIFO cache of distance providers, keyed on the VIEW
 * fingerprint so restricted regions and the full device never share
 * an entry.
 */
class ProviderRegistry
{
  public:
    std::shared_ptr<const DistanceProvider>
    get(const hw::DeviceView &view, RouteCost cost)
    {
        const Key key{view.fingerprint(), cost};
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = providers_.find(key);
        if (it != providers_.end())
            return it->second;
        std::shared_ptr<const DistanceProvider> provider;
        if (view.numQubits() <= kDenseDistanceMaxQubits) {
            provider =
                std::make_shared<const DenseDistanceProvider>(view, cost);
        } else {
            provider = std::make_shared<const OnDemandDistanceProvider>(
                view, cost);
        }
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
    std::map<Key, std::shared_ptr<const DistanceProvider>> providers_;
    std::list<Key> order_;
};

} // namespace

std::shared_ptr<const DistanceMatrix>
sharedDistanceMatrix(const hw::Device &device, RouteCost cost)
{
    static DistanceRegistry registry;
    return registry.get(device, cost);
}

std::shared_ptr<const DistanceProvider>
sharedDistanceProvider(const hw::DeviceView &view, RouteCost cost)
{
    static ProviderRegistry registry;
    return registry.get(view, cost);
}

} // namespace qedm::transpile
