#include "transpile/vf2.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace qedm::transpile {
namespace {

/** Descending degrees of a vertex's neighbors. */
std::vector<int>
neighborSignature(const hw::Topology &graph, int v)
{
    std::vector<int> sig;
    sig.reserve(graph.neighbors(v).size());
    for (int u : graph.neighbors(v))
        sig.push_back(graph.degree(u));
    std::sort(sig.begin(), sig.end(), std::greater<>());
    return sig;
}

/**
 * Necessary condition for mapping a pattern vertex onto a target
 * vertex: the target's i-th largest neighbor degree must cover the
 * pattern's. Any embedding pairs each pattern neighbor with a distinct
 * target neighbor of at least its degree, so by a greedy/Hall argument
 * the sorted lists must dominate — the test never rejects a viable
 * host and the enumeration's output set and order are unchanged.
 */
bool
signatureDominates(const std::vector<int> &target_sig,
                   const std::vector<int> &pattern_sig)
{
    if (target_sig.size() < pattern_sig.size())
        return false;
    for (std::size_t i = 0; i < pattern_sig.size(); ++i) {
        if (target_sig[i] < pattern_sig[i])
            return false;
    }
    return true;
}

/**
 * Recursive VF2-style state. The degree/signature/mask host filters
 * are folded into one feasibility bitset per pattern vertex at
 * construction, and coupling checks probe the target's adjacency
 * bitset rows — the per-node work is bit probes, no allocation, and
 * the candidate enumeration order (hence the result order) is exactly
 * the pre-bitset code's.
 */
class Matcher
{
  public:
    Matcher(const hw::Topology &pattern, const hw::Topology &target,
            std::size_t limit, const std::vector<bool> *allowed,
            const std::function<void(const std::vector<int> &)> &visit)
        : pattern_(pattern), target_(target), limit_(limit),
          words_((static_cast<std::size_t>(target.numQubits()) + 63) /
                 64),
          visit_(visit)
    {
        // Per-vertex feasibility: allowed-mask, degree, and signature
        // dominance combined into one bitset row. Degree/signature
        // tests use full-graph degrees even under the mask: a host
        // viable in the induced subgraph has at least its induced
        // degree in the full graph, so the filter stays admissible.
        std::vector<std::vector<int>> target_sig;
        target_sig.reserve(
            static_cast<std::size_t>(target_.numQubits()));
        for (int t = 0; t < target_.numQubits(); ++t)
            target_sig.push_back(neighborSignature(target_, t));
        feasible_.assign(static_cast<std::size_t>(
                             pattern_.numQubits()) *
                             words_,
                         0);
        for (int v = 0; v < pattern_.numQubits(); ++v) {
            const std::vector<int> psig =
                neighborSignature(pattern_, v);
            std::uint64_t *row =
                feasible_.data() +
                static_cast<std::size_t>(v) * words_;
            for (int t = 0; t < target_.numQubits(); ++t) {
                if (allowed &&
                    !(*allowed)[static_cast<std::size_t>(t)])
                    continue;
                if (target_.degree(t) < pattern_.degree(v))
                    continue;
                if (!signatureDominates(
                        target_sig[static_cast<std::size_t>(t)],
                        psig))
                    continue;
                row[static_cast<std::size_t>(t) >> 6] |=
                    std::uint64_t{1}
                    << (static_cast<std::size_t>(t) & 63);
            }
        }
        // Match high-degree pattern vertices first, preferring vertices
        // connected to already-matched ones (VF2 candidate ordering).
        order_.reserve(pattern_.numQubits());
        std::vector<bool> placed(pattern_.numQubits(), false);
        for (int step = 0; step < pattern_.numQubits(); ++step) {
            int best = -1;
            int best_connected = -1;
            int best_degree = -1;
            for (int v = 0; v < pattern_.numQubits(); ++v) {
                if (placed[v])
                    continue;
                int connected = 0;
                for (int u : pattern_.neighbors(v)) {
                    if (placed[u])
                        ++connected;
                }
                const int degree = pattern_.degree(v);
                if (connected > best_connected ||
                    (connected == best_connected &&
                     degree > best_degree)) {
                    best = v;
                    best_connected = connected;
                    best_degree = degree;
                }
            }
            placed[best] = true;
            order_.push_back(best);
        }
        map_.assign(pattern_.numQubits(), -1);
        used_.assign(static_cast<std::size_t>(target_.numQubits()),
                     0);
    }

    std::size_t
    run()
    {
        recurse(0);
        return count_;
    }

  private:
    bool
    feasibleBit(int v, int t) const
    {
        return (feasible_[static_cast<std::size_t>(v) * words_ +
                          (static_cast<std::size_t>(t) >> 6)] >>
                (static_cast<std::size_t>(t) & 63)) &
               1U;
    }

    /** Try target @p t as the host of pattern vertex @p v. */
    // qedm:hot
    void
    tryHost(std::size_t depth, int v, int t)
    {
        if (used_[static_cast<std::size_t>(t)] != 0)
            return;
        if (!feasibleBit(v, t))
            return;
        for (int u : pattern_.neighbors(v)) {
            if (map_[u] >= 0 && !target_.adjacentBit(map_[u], t))
                return;
        }
        map_[v] = t;
        used_[static_cast<std::size_t>(t)] = 1;
        recurse(depth + 1);
        map_[v] = -1;
        used_[static_cast<std::size_t>(t)] = 0;
    }

    void
    recurse(std::size_t depth)
    {
        if (count_ >= limit_)
            return;
        if (depth == order_.size()) {
            ++count_;
            visit_(map_);
            return;
        }
        const int v = order_[depth];
        // Candidates: neighbors of the first already-mapped pattern
        // neighbor, or every feasible target vertex (ascending, the
        // order the dense scan used) when v has none mapped yet.
        int mapped_neighbor = -1;
        for (int u : pattern_.neighbors(v)) {
            if (map_[u] >= 0) {
                mapped_neighbor = u;
                break;
            }
        }
        if (mapped_neighbor >= 0) {
            for (int t : target_.neighbors(map_[mapped_neighbor])) {
                tryHost(depth, v, t);
                if (count_ >= limit_)
                    return;
            }
        } else {
            const std::uint64_t *row =
                feasible_.data() +
                static_cast<std::size_t>(v) * words_;
            for (std::size_t w = 0; w < words_; ++w) {
                std::uint64_t bits = row[w];
                while (bits != 0) {
                    const int t = static_cast<int>(
                        (w << 6) + static_cast<std::size_t>(
                                       std::countr_zero(bits)));
                    bits &= bits - 1;
                    tryHost(depth, v, t);
                    if (count_ >= limit_)
                        return;
                }
            }
        }
    }

    const hw::Topology &pattern_;
    const hw::Topology &target_;
    std::size_t limit_;
    std::size_t words_;
    std::vector<std::uint64_t> feasible_;
    std::vector<int> order_;
    std::vector<int> map_;
    std::vector<std::uint8_t> used_;
    const std::function<void(const std::vector<int> &)> &visit_;
    std::size_t count_ = 0;
};

} // namespace

std::size_t
vf2ForEachEmbedding(const hw::Topology &pattern, const hw::Topology &target,
                    std::size_t limit, const std::vector<bool> *allowed,
                    const std::function<void(const std::vector<int> &)>
                        &visit)
{
    QEDM_REQUIRE(pattern.numQubits() <= target.numQubits(),
                 "pattern is larger than the target graph");
    QEDM_REQUIRE(limit > 0, "limit must be positive");
    QEDM_REQUIRE(!allowed ||
                     allowed->size() ==
                         static_cast<std::size_t>(target.numQubits()),
                 "allowed mask size must match the target graph");
    Matcher matcher(pattern, target, limit, allowed, visit);
    return matcher.run();
}

std::vector<std::vector<int>>
vf2AllEmbeddings(const hw::Topology &pattern, const hw::Topology &target,
                 std::size_t limit, const std::vector<bool> *allowed)
{
    std::vector<std::vector<int>> out;
    vf2ForEachEmbedding(pattern, target, limit, allowed,
                        [&out](const std::vector<int> &embedding) {
                            out.push_back(embedding);
                        });
    return out;
}

bool
vf2Embeds(const hw::Topology &pattern, const hw::Topology &target)
{
    if (pattern.numQubits() > target.numQubits())
        return false;
    return !vf2AllEmbeddings(pattern, target, 1).empty();
}

} // namespace qedm::transpile
