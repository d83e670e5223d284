#include "transpile/placement_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace qedm::transpile {
namespace {

/**
 * Slack subtracted from the prune threshold: the incremental bound is
 * an additive log sum while exact scores are multiplicative products,
 * so the two can disagree by a few ulps. The slack makes the bound
 * strictly conservative — a placement that would exactly tie the
 * K-th best is never pruned.
 */
constexpr double kBoundSlack = 1e-9;

/** Floor under exact scores before taking the threshold log. */
constexpr double kEspLogFloor = 1e-300;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/**
 * Flattened per-vertex neighbor-degree signatures (descending): one
 * shared data array plus offsets, instead of one heap vector per
 * vertex — a 127-qubit target used to cost 127 allocations per
 * search construction.
 */
struct SignatureTable
{
    std::vector<int> data;
    std::vector<int> off; ///< size numQubits + 1

    explicit SignatureTable(const hw::Topology &graph)
    {
        const int n = graph.numQubits();
        off.resize(static_cast<std::size_t>(n) + 1, 0);
        for (int v = 0; v < n; ++v)
            off[static_cast<std::size_t>(v) + 1] =
                off[static_cast<std::size_t>(v)] + graph.degree(v);
        data.resize(
            static_cast<std::size_t>(off[static_cast<std::size_t>(n)]));
        for (int v = 0; v < n; ++v) {
            int *out = data.data() + off[static_cast<std::size_t>(v)];
            const auto &nbrs = graph.neighbors(v);
            for (std::size_t i = 0; i < nbrs.size(); ++i)
                out[i] = graph.degree(nbrs[i]);
            std::sort(out, out + nbrs.size(), std::greater<>());
        }
    }

    const int *begin(int v) const
    {
        return data.data() + off[static_cast<std::size_t>(v)];
    }
    int size(int v) const
    {
        return off[static_cast<std::size_t>(v) + 1] -
               off[static_cast<std::size_t>(v)];
    }
};

/**
 * Necessary condition for hosting a pattern vertex with signature
 * @p pattern_sig on a target vertex with signature @p target_sig: the
 * target's i-th best neighbor degree must cover the pattern's (Hall
 * condition on the sorted lists). Never rejects a viable host.
 */
bool
signatureDominates(const int *target_sig, int target_n,
                   const int *pattern_sig, int pattern_n)
{
    if (target_n < pattern_n)
        return false;
    for (int i = 0; i < pattern_n; ++i) {
        if (target_sig[i] < pattern_sig[i])
            return false;
    }
    return true;
}

/** The canonical strict total order: placementBefore extended with an
 *  embedding tie-break, so the kept list never depends on insertion
 *  order. */
bool
entryBefore(double esp_a, const std::vector<int> &map_a,
            const std::vector<int> &emb_a, double esp_b,
            const std::vector<int> &map_b,
            const std::vector<int> &emb_b)
{
    if (esp_a != esp_b)
        return esp_a > esp_b;
    if (map_a != map_b)
        return map_a < map_b;
    return emb_a < emb_b;
}

} // namespace

/**
 * Everything immutable across searches of one plan: feasibility
 * bitsets, the matching order with its flattened back edges, suffix
 * bounds, and dense log-score lookup tables. Built once per plan
 * (typically once per circuit) and only read afterwards.
 */
struct PlacementSearchPlan::Impl
{
    const hw::Topology &pattern;
    const hw::Topology &target;

    int numPattern;
    int numTarget;
    std::size_t words; ///< 64-bit words per target bitset row
    std::size_t targetEdges;

    /** Per pattern vertex: hosts passing allowed+degree+signature. */
    std::vector<std::uint64_t> feasible;
    /** Per pattern vertex: hosts passing allowed+degree only (tells
     *  the prunedSignature counter apart from plain misfits). */
    std::vector<std::uint64_t> degreeOk;
    std::vector<int> feasibleCount;

    std::vector<int> order;
    std::vector<int> posOf;
    /** Flattened back edges: for depth d, entries [backOff[d],
     *  backOff[d+1]) of backVertex/backEdge. */
    std::vector<int> backOff;
    std::vector<int> backVertex;
    std::vector<int> backEdge;
    std::vector<double> suffixBound;
    /** Best claimable at each depth alone (the suffix summand). */
    std::vector<double> depthBest;
    /**
     * Anchor-conditioned refinement of depthBest: entry
     * [d * numTarget + h] bounds what depth d can claim when its
     * anchor vertex is hosted on h — the vertex must then land on a
     * neighbor of h, so the max ranges over feasible neighbors of h
     * (charging the anchor edge exactly) instead of the whole device.
     * Only anchored depths have meaningful rows.
     */
    std::vector<double> anchorBound;

    /** vertexLogTab[v * numTarget + t] = cost.vertexLog(v, t). */
    std::vector<double> vertexLogTab;
    /** edgeLogTab[e * numEdges(target) + de] = cost.edgeLog(e, de). */
    std::vector<double> edgeLogTab;

    /**
     * Per pattern vertex: its feasible hosts, best vertexLog first,
     * ties by ascending host — entries [hostOff[v], hostOff[v + 1])
     * of hostsByScore. order[0]'s list is the root frontier (best
     * first warms the bound early); an unanchored depth reads its
     * vertex's list instead of sorting its children at every node.
     */
    std::vector<int> hostOff;
    std::vector<int> hostsByScore;

    /**
     * Twin classes of two or more pattern vertices, members in
     * matching order: entries [classOff[c], classOff[c + 1]) of
     * classMembers. Both stay empty for a twin-free pattern.
     * prevTwin[v] is the member before v in its class, -1 for the
     * first member and for vertices in no class. The search only
     * hosts v above prevTwin[v]'s host, so it reaches one embedding
     * per orbit, and each leaf scores the orbit's other members.
     */
    std::vector<int> classOff;
    std::vector<int> classMembers;
    std::vector<int> prevTwin;

    Impl(const hw::Topology &pattern_graph,
         const PlacementCostModel &cost,
         const std::vector<bool> *allowed)
        : pattern(pattern_graph), target(cost.espModel().topology()),
          numPattern(pattern_graph.numQubits()),
          numTarget(target.numQubits()),
          words((static_cast<std::size_t>(target.numQubits()) + 63) /
                64),
          targetEdges(target.numEdges())
    {
        buildFeasibility(allowed);
        buildOrder();
        buildTables(cost);
        buildBounds();
        buildHostLists();
        buildTwins();
    }

    bool feasibleBit(int v, int t) const
    {
        return (feasible[static_cast<std::size_t>(v) * words +
                         (static_cast<std::size_t>(t) >> 6)] >>
                (static_cast<std::size_t>(t) & 63)) &
               1U;
    }

    bool degreeOkBit(int v, int t) const
    {
        return (degreeOk[static_cast<std::size_t>(v) * words +
                         (static_cast<std::size_t>(t) >> 6)] >>
                (static_cast<std::size_t>(t) & 63)) &
               1U;
    }

    /** Feasible hosts of pattern vertex @p v, best vertexLog first. */
    std::span<const int> hosts(int v) const
    {
        const auto vi = static_cast<std::size_t>(v);
        return {hostsByScore.data() + hostOff[vi],
                static_cast<std::size_t>(hostOff[vi + 1] - hostOff[vi])};
    }

  private:
    void
    buildFeasibility(const std::vector<bool> *allowed)
    {
        const SignatureTable tsig(target);
        const SignatureTable psig(pattern);
        const auto np = static_cast<std::size_t>(numPattern);
        feasible.assign(np * words, 0);
        degreeOk.assign(np * words, 0);
        feasibleCount.assign(np, 0);
        for (int v = 0; v < numPattern; ++v) {
            std::uint64_t *feas =
                feasible.data() + static_cast<std::size_t>(v) * words;
            std::uint64_t *deg =
                degreeOk.data() + static_cast<std::size_t>(v) * words;
            int count = 0;
            for (int t = 0; t < numTarget; ++t) {
                // Full-graph degree/signature tests stay admissible
                // under the mask: a host viable in the induced
                // subgraph has at least its induced degree in the
                // full graph.
                if (allowed &&
                    !(*allowed)[static_cast<std::size_t>(t)])
                    continue;
                if (target.degree(t) < pattern.degree(v))
                    continue;
                const std::uint64_t bit =
                    std::uint64_t{1}
                    << (static_cast<std::size_t>(t) & 63);
                deg[static_cast<std::size_t>(t) >> 6] |= bit;
                if (!signatureDominates(tsig.begin(t), tsig.size(t),
                                        psig.begin(v), psig.size(v)))
                    continue;
                feas[static_cast<std::size_t>(t) >> 6] |= bit;
                ++count;
            }
            feasibleCount[static_cast<std::size_t>(v)] = count;
        }
    }

    /**
     * Matching order: rarest-degree-first (fewest feasible hosts)
     * roots, then connected expansion preferring vertices with the
     * most placed neighbors, ties again rarest-first, then highest
     * degree, then lowest index — all deterministic.
     */
    void
    buildOrder()
    {
        const auto n = static_cast<std::size_t>(numPattern);
        order.reserve(n);
        posOf.assign(n, -1);
        std::vector<bool> placed(n, false);
        for (std::size_t step = 0; step < n; ++step) {
            int best = -1;
            int best_connected = -1;
            int best_feasible = std::numeric_limits<int>::max();
            int best_degree = -1;
            for (int v = 0; v < numPattern; ++v) {
                const auto vi = static_cast<std::size_t>(v);
                if (placed[vi])
                    continue;
                int connected = 0;
                for (int u : pattern.neighbors(v)) {
                    if (placed[static_cast<std::size_t>(u)])
                        ++connected;
                }
                const int feasible_hosts = feasibleCount[vi];
                const int degree = pattern.degree(v);
                const bool better =
                    connected > best_connected ||
                    (connected == best_connected &&
                     (feasible_hosts < best_feasible ||
                      (feasible_hosts == best_feasible &&
                       degree > best_degree)));
                if (better) {
                    best = v;
                    best_connected = connected;
                    best_feasible = feasible_hosts;
                    best_degree = degree;
                }
            }
            placed[static_cast<std::size_t>(best)] = true;
            posOf[static_cast<std::size_t>(best)] =
                static_cast<int>(step);
            order.push_back(best);
        }

        // Edges to already-placed neighbors, charged when the later
        // endpoint is placed; flattened depth-major.
        std::vector<std::vector<std::pair<int, int>>> back(n);
        for (const auto &edge : pattern.edges()) {
            const int pa = posOf[static_cast<std::size_t>(edge.a)];
            const int pb = posOf[static_cast<std::size_t>(edge.b)];
            const int later = std::max(pa, pb);
            const int earlier_vertex = pa < pb ? edge.a : edge.b;
            const int e = pattern.edgeIndex(edge.a, edge.b);
            back[static_cast<std::size_t>(later)].emplace_back(
                earlier_vertex, e);
        }
        backOff.assign(n + 1, 0);
        for (std::size_t d = 0; d < n; ++d)
            backOff[d + 1] =
                backOff[d] + static_cast<int>(back[d].size());
        backVertex.resize(static_cast<std::size_t>(backOff[n]));
        backEdge.resize(static_cast<std::size_t>(backOff[n]));
        for (std::size_t d = 0; d < n; ++d) {
            int at = backOff[d];
            for (const auto &[vertex, edge] : back[d]) {
                backVertex[static_cast<std::size_t>(at)] = vertex;
                backEdge[static_cast<std::size_t>(at)] = edge;
                ++at;
            }
        }
    }

    /**
     * Optimistic log-ESP still claimable from depth d onward,
     * tightened to the feasible subgraph: the per-vertex optimistic
     * term maximizes over that vertex's *feasible* hosts only, and
     * the per-edge term over device edges whose endpoints can host
     * the pattern edge's endpoints. Still admissible — every
     * completion maps vertices to feasible hosts and charges edges
     * between them — but far tighter than the whole-device best
     * factors on a spread calibration, so the bound fires earlier.
     * An infeasible vertex (no hosts) yields -inf and prunes the
     * whole search, which is exact: no completion exists.
     */
    void
    buildBounds()
    {
        const std::size_t n = order.size();
        const auto nt = static_cast<std::size_t>(numTarget);
        std::vector<double> best_vlog(n, kNegInf);
        for (int v = 0; v < numPattern; ++v) {
            double best = kNegInf;
            for (int t = 0; t < numTarget; ++t) {
                if (feasibleBit(v, t))
                    best = std::max(
                        best,
                        vertexLogTab[static_cast<std::size_t>(v) * nt +
                                     static_cast<std::size_t>(t)]);
            }
            best_vlog[static_cast<std::size_t>(v)] = best;
        }
        const std::size_t ne = target.numEdges();
        std::vector<double> best_elog(pattern.numEdges(), kNegInf);
        for (std::size_t e = 0; e < pattern.numEdges(); ++e) {
            const int va = pattern.edges()[e].a;
            const int vb = pattern.edges()[e].b;
            double best = kNegInf;
            for (std::size_t de = 0; de < ne; ++de) {
                const int a = target.edges()[de].a;
                const int b = target.edges()[de].b;
                if ((feasibleBit(va, a) && feasibleBit(vb, b)) ||
                    (feasibleBit(va, b) && feasibleBit(vb, a)))
                    best = std::max(best, edgeLogTab[e * ne + de]);
            }
            best_elog[e] = best;
        }
        suffixBound.assign(n + 1, 0.0);
        depthBest.assign(n, 0.0);
        for (std::size_t d = 0; d < n; ++d) {
            depthBest[d] =
                best_vlog[static_cast<std::size_t>(order[d])];
            for (int i = backOff[d]; i < backOff[d + 1]; ++i)
                depthBest[d] += best_elog[static_cast<std::size_t>(
                    backEdge[static_cast<std::size_t>(i)])];
        }
        for (std::size_t d = n; d-- > 0;)
            suffixBound[d] = suffixBound[d + 1] + depthBest[d];

        // Anchor-conditioned per-depth bounds: for each anchored
        // depth and each possible anchor host h, the vertex lands on
        // a feasible neighbor of h over the incident device edge, so
        // maximize vertexLog + first-back-edge log over exactly those
        // pairs; remaining back edges keep their static best. -inf
        // when h has no feasible neighbor — the branch is hopeless.
        anchorBound.assign(n * nt, kNegInf);
        for (std::size_t d = 1; d < n; ++d) {
            if (backOff[d] == backOff[d + 1])
                continue;
            const int v = order[d];
            const std::size_t e0 = static_cast<std::size_t>(
                backEdge[static_cast<std::size_t>(backOff[d])]);
            double static_rest = 0.0;
            for (int i = backOff[d] + 1; i < backOff[d + 1]; ++i)
                static_rest += best_elog[static_cast<std::size_t>(
                    backEdge[static_cast<std::size_t>(i)])];
            double *row = anchorBound.data() + d * nt;
            for (int h = 0; h < numTarget; ++h) {
                double best = kNegInf;
                for (const auto &[u, de] : target.neighborEdges(h)) {
                    if (!feasibleBit(v, u))
                        continue;
                    best = std::max(
                        best,
                        vertexLogTab[static_cast<std::size_t>(v) * nt +
                                     static_cast<std::size_t>(u)] +
                            edgeLogTab[e0 * ne +
                                       static_cast<std::size_t>(de)]);
                }
                row[static_cast<std::size_t>(h)] = best + static_rest;
            }
        }
    }

    /** Dense (v, t) and (pattern edge, device edge) log tables, so
     *  the inner loop is two array reads instead of recomputing the
     *  count-weighted sums per node. Same doubles: each entry is the
     *  exact expression vertexLog/edgeLog evaluates. */
    void
    buildTables(const PlacementCostModel &cost)
    {
        const auto nt = static_cast<std::size_t>(numTarget);
        vertexLogTab.resize(static_cast<std::size_t>(numPattern) * nt);
        for (int v = 0; v < numPattern; ++v) {
            for (int t = 0; t < numTarget; ++t)
                vertexLogTab[static_cast<std::size_t>(v) * nt +
                             static_cast<std::size_t>(t)] =
                    cost.vertexLog(v, t);
        }
        const std::size_t ne = target.numEdges();
        edgeLogTab.resize(pattern.numEdges() * ne);
        for (std::size_t e = 0; e < pattern.numEdges(); ++e) {
            for (std::size_t de = 0; de < ne; ++de)
                edgeLogTab[e * ne + de] =
                    cost.edgeLog(static_cast<int>(e),
                                 static_cast<int>(de));
        }
    }

    void
    buildHostLists()
    {
        const auto np = static_cast<std::size_t>(numPattern);
        const auto nt = static_cast<std::size_t>(numTarget);
        hostOff.assign(np + 1, 0);
        for (std::size_t v = 0; v < np; ++v)
            hostOff[v + 1] = hostOff[v] + feasibleCount[v];
        hostsByScore.resize(static_cast<std::size_t>(hostOff[np]));
        for (int v = 0; v < numPattern; ++v) {
            int *first = hostsByScore.data() +
                         hostOff[static_cast<std::size_t>(v)];
            int *last = first;
            for (int t = 0; t < numTarget; ++t) {
                if (feasibleBit(v, t))
                    *last++ = t;
            }
            const double *vlog =
                vertexLogTab.data() + static_cast<std::size_t>(v) * nt;
            std::sort(first, last, [vlog](int a, int b) {
                const double la = vlog[static_cast<std::size_t>(a)];
                const double lb = vlog[static_cast<std::size_t>(b)];
                if (la != lb)
                    return la > lb;
                return a < b;
            });
        }
    }

    /**
     * True when swapping the hosts of @p u and @p w never changes a
     * score term: same neighbors apart from each other, equal vertex
     * rows, and equal edge rows to every common neighbor. The swap is
     * then a pattern automorphism that keeps the host set, the
     * feasibility and the multiset of log terms.
     */
    bool
    twins(int u, int w) const
    {
        const auto nt = static_cast<std::size_t>(numTarget);
        const auto others = [this](int a, int b) {
            const int deg = pattern.degree(a);
            return pattern.adjacent(a, b) ? deg - 1 : deg;
        };
        if (others(u, w) != others(w, u))
            return false;
        const double *vu =
            vertexLogTab.data() + static_cast<std::size_t>(u) * nt;
        const double *vw =
            vertexLogTab.data() + static_cast<std::size_t>(w) * nt;
        if (!std::equal(vu, vu + nt, vw))
            return false;
        for (int x : pattern.neighbors(u)) {
            if (x == w)
                continue;
            const int ew = pattern.edgeIndex(w, x);
            if (ew < 0)
                return false;
            const double *eu =
                edgeLogTab.data() +
                static_cast<std::size_t>(pattern.edgeIndex(u, x)) *
                    targetEdges;
            const double *row_w = edgeLogTab.data() +
                                  static_cast<std::size_t>(ew) *
                                      targetEdges;
            if (!std::equal(eu, eu + targetEdges, row_w))
                return false;
        }
        return true;
    }

    /** Groups pattern vertices into twin classes (see classOff). A
     *  vertex joins the first class, in matching order, whose every
     *  member it twins. */
    void
    buildTwins()
    {
        const auto np = static_cast<std::size_t>(numPattern);
        prevTwin.assign(np, -1);
        std::vector<bool> grouped(np, false);
        classOff.assign(1, 0);
        for (std::size_t d = 0; d < np; ++d) {
            if (grouped[static_cast<std::size_t>(order[d])])
                continue;
            const std::size_t first = classMembers.size();
            classMembers.push_back(order[d]);
            for (std::size_t d2 = d + 1; d2 < np; ++d2) {
                const int w = order[d2];
                if (grouped[static_cast<std::size_t>(w)])
                    continue;
                bool all = true;
                for (std::size_t i = first;
                     all && i < classMembers.size(); ++i)
                    all = twins(classMembers[i], w);
                if (!all)
                    continue;
                grouped[static_cast<std::size_t>(w)] = true;
                prevTwin[static_cast<std::size_t>(w)] =
                    classMembers.back();
                classMembers.push_back(w);
            }
            if (classMembers.size() - first < 2)
                classMembers.pop_back();
            else
                classOff.push_back(static_cast<int>(classMembers.size()));
        }
        if (classOff.size() == 1)
            classOff.clear();
    }
};

namespace {

using PlanImpl = PlacementSearchPlan::Impl;

/** Bounded best-K list kept sorted under the canonical total order;
 *  the worst kept entry is back(). */
class BoundedBest
{
  public:
    explicit BoundedBest(std::size_t k) : k_(k)
    {
        entries_.reserve(k + 1);
    }

    bool full() const { return entries_.size() == k_; }
    double worstEsp() const { return entries_.back().esp; }

    /** True when a candidate with this score/map/embedding belongs in
     *  the list right now. */
    bool
    admits(double esp, const std::vector<int> &map,
           const std::vector<int> &embedding) const
    {
        if (!full())
            return true;
        const ScoredEmbedding &w = entries_.back();
        return entryBefore(esp, map, embedding, w.esp, w.map,
                           w.embedding);
    }

    void
    insert(double esp, std::vector<int> map,
           std::vector<int> embedding)
    {
        std::size_t pos = entries_.size();
        while (pos > 0 &&
               entryBefore(esp, map, embedding, entries_[pos - 1].esp,
                           entries_[pos - 1].map,
                           entries_[pos - 1].embedding))
            --pos;
        entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(
                                               pos),
                        ScoredEmbedding{std::move(embedding),
                                        std::move(map), esp});
        if (entries_.size() > k_)
            entries_.pop_back();
    }

    std::vector<ScoredEmbedding> take() { return std::move(entries_); }

  private:
    std::size_t k_;
    std::vector<ScoredEmbedding> entries_; ///< sorted best-first
};

/**
 * The search state: partial map, best-K list, and the prune threshold
 * cached from the list's K-th best. One worker walks every root
 * branch in order (the classic DFS).
 */
class Worker
{
  public:
    Worker(const PlanImpl &plan, const EmbeddingScorer &scorer,
           std::size_t k, std::size_t limit,
           PlacementSearchStats *stats,
           const HostSetConstraint *constraint)
        : plan_(plan), scorer_(scorer), limit_(limit), stats_(stats),
          best_(k),
          map_(static_cast<std::size_t>(plan.numPattern), -1),
          used_(static_cast<std::size_t>(plan.numTarget), 0),
          candDelta_(static_cast<std::size_t>(plan.numPattern) *
                     static_cast<std::size_t>(plan.numTarget)),
          candHost_(static_cast<std::size_t>(plan.numPattern) *
                    static_cast<std::size_t>(plan.numTarget)),
          classHosts_(plan.classMembers.size())
    {
        if (constraint != nullptr && !constraint->avoid.empty())
            buildAvoidTable(*constraint);
    }

    /** Explore the whole branch rooted at hosting order[0] on @p t.
     *  The completion budget (limit) is per root branch. */
    void
    searchRoot(int t)
    {
        if (!admitted(t))
            return;
        completions_ = 0;
        if (stats_ != nullptr)
            ++stats_->nodesVisited;
        if (boundPrunes(plan_.suffixBound[0])) {
            if (stats_ != nullptr)
                ++stats_->prunedBound;
            return;
        }
        const int v = plan_.order.front();
        const auto vi = static_cast<std::size_t>(v);
        const double delta =
            plan_.vertexLogTab[vi * static_cast<std::size_t>(
                                        plan_.numTarget) +
                               static_cast<std::size_t>(t)];
        map_[vi] = t;
        used_[static_cast<std::size_t>(t)] = 1;
        share(t, 1);
        recurse(1, delta);
        share(t, -1);
        map_[vi] = -1;
        used_[static_cast<std::size_t>(t)] = 0;
    }

    std::vector<ScoredEmbedding> take() { return best_.take(); }

  private:
    /** Per-target lists of the avoided sets containing the target
     *  (CSR), plus one shared-host count per avoided set. */
    void
    buildAvoidTable(const HostSetConstraint &constraint)
    {
        const auto nt = static_cast<std::size_t>(plan_.numTarget);
        maxShared_ = constraint.maxShared;
        shared_.assign(constraint.avoid.size(), 0);
        avoidOff_.assign(nt + 1, 0);
        for (const std::vector<int> &set : constraint.avoid) {
            for (int t : set) {
                QEDM_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < nt,
                             "avoided host is not a target qubit");
                ++avoidOff_[static_cast<std::size_t>(t) + 1];
            }
        }
        for (std::size_t t = 0; t < nt; ++t)
            avoidOff_[t + 1] += avoidOff_[t];
        avoidSet_.resize(static_cast<std::size_t>(avoidOff_[nt]));
        std::vector<int> next(avoidOff_.begin(), avoidOff_.end() - 1);
        for (std::size_t j = 0; j < constraint.avoid.size(); ++j) {
            for (int t : constraint.avoid[j])
                avoidSet_[static_cast<std::size_t>(
                    next[static_cast<std::size_t>(t)]++)] =
                    static_cast<int>(j);
        }
    }

    /** True when hosting on @p t keeps every shared count within the
     *  constraint (always, without one). */
    // qedm:hot
    bool
    admitted(int t) const
    {
        if (avoidOff_.empty())
            return true;
        const auto ti = static_cast<std::size_t>(t);
        for (int i = avoidOff_[ti]; i < avoidOff_[ti + 1]; ++i) {
            if (shared_[static_cast<std::size_t>(
                    avoidSet_[static_cast<std::size_t>(i)])] >=
                maxShared_)
                return false;
        }
        return true;
    }

    /** Add @p delta to the shared count of every avoided set that
     *  contains @p t. */
    // qedm:hot
    void
    share(int t, int delta)
    {
        if (avoidOff_.empty())
            return;
        const auto ti = static_cast<std::size_t>(t);
        for (int i = avoidOff_[ti]; i < avoidOff_[ti + 1]; ++i)
            shared_[static_cast<std::size_t>(
                avoidSet_[static_cast<std::size_t>(i)])] += delta;
    }

    /** Current prune threshold: the log of the K-th best score so
     *  far (-inf until K are kept), cached so no log() is taken per
     *  node. */
    double threshold() const { return threshold_; }

    void
    refreshThreshold()
    {
        if (!best_.full())
            return;
        threshold_ =
            std::log(std::max(best_.worstEsp(), kEspLogFloor));
    }

    /** Score the embedding in map_ and keep it if it belongs in the
     *  list. The scorer sees the admission floor, so it may skip the
     *  key of a score admits() rejects on the score alone. */
    // qedm:hot
    void
    score()
    {
        const double admission_floor =
            best_.full() ? best_.worstEsp() : kNegInf;
        double esp = 0.0;
        scorer_(map_, admission_floor, key_, esp);
        // Below the floor admits() decides on the score alone, so a
        // key the scorer skipped is never read.
        if (!best_.admits(esp, key_, map_))
            return;
        best_.insert(esp, key_, map_);
        refreshThreshold();
    }

    /**
     * A leaf of the twin-sorted tree: one completion, standing for
     * its whole orbit. Each class's hosts are ascending in matching
     * order here, so stepping every class through next_permutation
     * (an odometer over the classes) scores each permutation once and
     * leaves map_ as it found it.
     */
    // qedm:hot
    void
    complete(double partial)
    {
        ++completions_;
        if (stats_ != nullptr)
            ++stats_->completions;
        // Leaf bound: partial (+ slack) upper-bounds the exact log
        // score — isolated-qubit factors only lower it — so a leaf
        // that cannot reach the K-th best skips the exact scorer.
        // Twin permutations sum the same terms in another order, far
        // inside the slack, so the test speaks for the whole orbit.
        if (boundPrunes(partial))
            return;
        const auto &members = plan_.classMembers;
        const auto &off = plan_.classOff;
        for (std::size_t i = 0; i < members.size(); ++i)
            classHosts_[i] =
                map_[static_cast<std::size_t>(members[i])];
        const std::size_t classes = off.empty() ? 0 : off.size() - 1;
        for (;;) {
            score();
            std::size_t c = 0;
            for (; c < classes; ++c) {
                int *first = classHosts_.data() + off[c];
                int *last = classHosts_.data() + off[c + 1];
                const bool more = std::next_permutation(first, last);
                for (int i = off[c]; i < off[c + 1]; ++i)
                    map_[static_cast<std::size_t>(
                        members[static_cast<std::size_t>(i)])] =
                        classHosts_[static_cast<std::size_t>(i)];
                if (more)
                    break;
            }
            if (c == classes)
                return;
        }
    }

    /** Host pattern vertex @p v on target @p t and explore deeper. */
    // qedm:hot
    void
    descend(std::size_t depth, int v, int t, double next_partial)
    {
        map_[static_cast<std::size_t>(v)] = t;
        used_[static_cast<std::size_t>(t)] = 1;
        share(t, 1);
        recurse(depth + 1, next_partial);
        share(t, -1);
        map_[static_cast<std::size_t>(v)] = -1;
        used_[static_cast<std::size_t>(t)] = 0;
    }

    /**
     * Collect the viable hosts for the vertex at @p depth into this
     * depth's scratch slice, sorted by descending log-score delta
     * (ties: host ascending). Exploring locally-best children first
     * warms the prune threshold early; the final top-K is exact
     * either way, so the output does not depend on this order.
     */
    // qedm:hot
    int
    gatherChildren(std::size_t depth, int v, int anchor_host,
                   const double *vlog, double *cand_delta,
                   int *cand_host)
    {
        // Twin order: v's host must exceed its previous twin's (-1,
        // so no bar, when v has none).
        const int twin_host =
            hostOf(plan_.prevTwin[static_cast<std::size_t>(v)]);
        int nc = 0;
        if (anchor_host < 0) {
            // Start of a disconnected pattern component: every unused
            // feasible host, no back edges to charge. The plan's list
            // is already in child order, so this only filters it.
            for (int t : plan_.hosts(v)) {
                if (used_[static_cast<std::size_t>(t)] != 0 ||
                    t <= twin_host || !admitted(t))
                    continue;
                cand_delta[nc] = vlog[static_cast<std::size_t>(t)];
                cand_host[nc] = t;
                ++nc;
            }
            return nc;
        }
        const auto insert = [&](int t, double delta) {
            int pos = nc;
            while (pos > 0 && cand_delta[pos - 1] < delta) {
                cand_delta[pos] = cand_delta[pos - 1];
                cand_host[pos] = cand_host[pos - 1];
                --pos;
            }
            cand_delta[pos] = delta;
            cand_host[pos] = t;
            ++nc;
        };
        const std::size_t ne = plan_.targetEdges;
        // Connected expansion: candidates are the neighbors of the
        // first already-placed pattern neighbor, iterated with their
        // incident device edge so the first back edge charges its
        // factor without an edgeIndex lookup.
        for (const auto &[t, device_edge] :
             plan_.target.neighborEdges(anchor_host)) {
            if (used_[static_cast<std::size_t>(t)] != 0 ||
                t <= twin_host)
                continue;
            if (!plan_.feasibleBit(v, t)) {
                if (stats_ != nullptr && plan_.degreeOkBit(v, t))
                    ++stats_->prunedSignature;
                continue;
            }
            if (!admitted(t))
                continue;
            double delta = vlog[static_cast<std::size_t>(t)];
            int i = plan_.backOff[depth];
            delta += plan_.edgeLogTab[static_cast<std::size_t>(
                                          plan_.backEdge[static_cast<
                                              std::size_t>(i)]) *
                                          ne +
                                      static_cast<std::size_t>(
                                          device_edge)];
            bool viable = true;
            for (++i; i < plan_.backOff[depth + 1]; ++i) {
                const int mapped = map_[static_cast<std::size_t>(
                    plan_.backVertex[static_cast<std::size_t>(i)])];
                const int de = plan_.target.edgeIndex(mapped, t);
                if (de < 0) {
                    viable = false;
                    break;
                }
                delta += plan_.edgeLogTab[static_cast<std::size_t>(
                                              plan_.backEdge[
                                                  static_cast<
                                                      std::size_t>(
                                                      i)]) *
                                              ne +
                                          static_cast<std::size_t>(
                                              de)];
            }
            if (viable)
                insert(t, delta);
        }
        return nc;
    }

    /** The anchor of @p depth — the earlier pattern neighbor its
     *  candidates must be adjacent to — or -1 when @p depth starts a
     *  disconnected component. */
    int
    anchorOf(std::size_t depth) const
    {
        if (plan_.backOff[depth] == plan_.backOff[depth + 1])
            return -1;
        return plan_.backVertex[static_cast<std::size_t>(
            plan_.backOff[depth])];
    }

    /** Host of pattern vertex @p v, -1 while unplaced (or for -1). */
    int
    hostOf(int v) const
    {
        return v < 0 ? -1 : map_[static_cast<std::size_t>(v)];
    }

    /** Optimistic log score of a node at @p depth holding @p partial:
     *  the partial itself at a leaf (complete()'s bound), else partial
     *  + what @p depth can claim + the suffix bound beyond it. An
     *  anchored depth claims its anchor-conditioned bound (its host
     *  must neighbor @p anchor_host), an unanchored one the static
     *  per-depth best. Both are admissible; the conditioned one is far
     *  tighter. */
    double
    optimistic(std::size_t depth, double partial, int anchor_host) const
    {
        if (depth == plan_.order.size())
            return partial;
        const std::size_t nt =
            static_cast<std::size_t>(plan_.numTarget);
        const double avail =
            anchor_host < 0
                ? plan_.depthBest[depth]
                : plan_.anchorBound[depth * nt +
                                    static_cast<std::size_t>(anchor_host)];
        return partial + avail + plan_.suffixBound[depth + 1];
    }

    bool
    boundPrunes(double optimistic_log) const
    {
        return optimistic_log < threshold() - kBoundSlack;
    }

    /** Count @p left sibling calls at @p depth as made, each pruned by
     *  its own bound test: a leaf completion each until the per-root
     *  limit binds, else a visited node pruned by bound each. */
    // qedm:hot
    void
    chargePruned(std::size_t depth, std::uint64_t left)
    {
        if (depth == plan_.order.size()) {
            const std::uint64_t n = std::min<std::uint64_t>(
                left, static_cast<std::uint64_t>(limit_) - completions_);
            completions_ += n;
            if (stats_ != nullptr)
                stats_->completions += n;
        } else if (stats_ != nullptr) {
            stats_->nodesVisited += left;
            stats_->prunedBound += left;
        }
    }

    // qedm:hot
    void
    recurse(std::size_t depth, double partial)
    {
        if (completions_ >= limit_)
            return;
        if (depth == plan_.order.size()) {
            complete(partial);
            return;
        }
        if (stats_ != nullptr)
            ++stats_->nodesVisited;
        const int anchor_host = hostOf(anchorOf(depth));
        if (boundPrunes(optimistic(depth, partial, anchor_host))) {
            if (stats_ != nullptr)
                ++stats_->prunedBound;
            return;
        }
        const int v = plan_.order[depth];
        const std::size_t nt =
            static_cast<std::size_t>(plan_.numTarget);
        const double *vlog =
            plan_.vertexLogTab.data() + static_cast<std::size_t>(v) * nt;
        // Per-depth scratch slice — recursion below this depth uses
        // deeper slices, so the candidate list survives the loop.
        const std::size_t base = (depth - 1) * nt;
        double *cand_delta = candDelta_.data() + base;
        int *cand_host = candHost_.data() + base;
        const int nc = gatherChildren(depth, v, anchor_host, vlog,
                                      cand_delta, cand_host);
        // Sorted-sibling cutoff: children come in descending delta and
        // rounded addition is monotone, so once a child fails the
        // bound test its own call would run first, every later sibling
        // fails it too — when that test is the same expression for all
        // of them: at a leaf, at an unanchored next depth, and at one
        // anchored on an earlier depth. A next depth anchored on v
        // reads the bound row of each child's host, so each child runs
        // its own test.
        const std::size_t next = depth + 1;
        const int next_anchor =
            next == plan_.order.size() ? -1 : anchorOf(next);
        const bool cutoff = next_anchor != v;
        const int next_anchor_host = hostOf(next_anchor);
        for (int j = 0; j < nc; ++j) {
            const double child_partial = partial + cand_delta[j];
            if (cutoff &&
                boundPrunes(
                    optimistic(next, child_partial, next_anchor_host))) {
                chargePruned(next, static_cast<std::uint64_t>(nc - j));
                return;
            }
            descend(depth, v, cand_host[j], child_partial);
            if (completions_ >= limit_)
                return;
        }
    }

    const PlanImpl &plan_;
    const EmbeddingScorer &scorer_;
    std::size_t limit_;
    PlacementSearchStats *stats_;
    BoundedBest best_;
    std::vector<int> map_;
    std::vector<std::uint8_t> used_;
    /** Depth-sliced candidate scratch (numPattern x numTarget). */
    std::vector<double> candDelta_;
    std::vector<int> candHost_;
    /** Leaf scratch: the twin classes' hosts (classMembers order)
     *  and the scorer's key. */
    std::vector<int> classHosts_;
    std::vector<int> key_;
    /** Host-set constraint state; avoidOff_ stays empty without one.
     *  Target t's avoided sets are avoidSet_[avoidOff_[t] ..
     *  avoidOff_[t + 1]). */
    std::vector<int> avoidOff_;
    std::vector<int> avoidSet_;
    std::vector<int> shared_;
    int maxShared_ = 0;
    double threshold_ = kNegInf;
    std::uint64_t completions_ = 0;
};

} // namespace

bool
placementBefore(double esp_a, const std::vector<int> &map_a,
                double esp_b, const std::vector<int> &map_b)
{
    if (esp_a != esp_b)
        return esp_a > esp_b;
    return map_a < map_b;
}

PlacementCostModel::PlacementCostModel(
    std::shared_ptr<const EspModel> model, const hw::Topology &pattern,
    const std::vector<int> &pattern_index, const GateTrace &trace,
    const std::vector<bool> *allowed)
    : model_(std::move(model))
{
    const auto n = static_cast<std::size_t>(pattern.numQubits());
    oneQubitCount_.assign(n, 0.0);
    measureCount_.assign(n, 0.0);
    twoQubitCount_.assign(pattern.numEdges(), 0.0);
    for (const GateTerm &term : trace) {
        switch (term.kind) {
          case GateTerm::Kind::OneQubit:
          case GateTerm::Kind::Measure: {
            const int v = pattern_index[static_cast<std::size_t>(
                term.a)];
            if (v < 0)
                break; // outside the pattern (isolated qubit)
            auto &counts = term.kind == GateTerm::Kind::OneQubit
                               ? oneQubitCount_
                               : measureCount_;
            counts[static_cast<std::size_t>(v)] += 1.0;
            break;
          }
          case GateTerm::Kind::TwoQubit: {
            const int va = pattern_index[static_cast<std::size_t>(
                term.a)];
            const int vb = pattern_index[static_cast<std::size_t>(
                term.b)];
            QEDM_ASSERT(va >= 0 && vb >= 0,
                        "two-qubit term off the pattern graph");
            const int e = pattern.edgeIndex(va, vb);
            QEDM_ASSERT(e >= 0,
                        "two-qubit term on a non-pattern edge");
            twoQubitCount_[static_cast<std::size_t>(e)] += 1.0;
            break;
          }
        }
    }
    bestVertexLog_.assign(n, 0.0);
    for (int v = 0; v < pattern.numQubits(); ++v) {
        double best = -std::numeric_limits<double>::infinity();
        for (int t = 0; t < model_->numQubits(); ++t) {
            if (allowed && !(*allowed)[static_cast<std::size_t>(t)])
                continue;
            best = std::max(best, vertexLog(v, t));
        }
        bestVertexLog_[static_cast<std::size_t>(v)] = best;
    }
}

PlacementSearchPlan::PlacementSearchPlan(
    const hw::Topology &pattern, const PlacementCostModel &cost_model,
    const std::vector<bool> *allowed)
{
    QEDM_REQUIRE(pattern.numQubits() <=
                     cost_model.espModel().numQubits(),
                 "pattern is larger than the target graph");
    QEDM_REQUIRE(!allowed ||
                     allowed->size() ==
                         static_cast<std::size_t>(
                             cost_model.espModel().numQubits()),
                 "allowed mask size must match the target graph");
    impl_ = std::make_unique<Impl>(pattern, cost_model, allowed);
}

std::vector<std::vector<int>>
PlacementSearchPlan::twinClasses() const
{
    std::vector<std::vector<int>> out;
    const std::vector<int> &off = impl_->classOff;
    for (std::size_t c = 0; c + 1 < off.size(); ++c)
        out.emplace_back(impl_->classMembers.begin() + off[c],
                         impl_->classMembers.begin() + off[c + 1]);
    return out;
}

PlacementSearchPlan::~PlacementSearchPlan() = default;
PlacementSearchPlan::PlacementSearchPlan(
    PlacementSearchPlan &&) noexcept = default;
PlacementSearchPlan &
PlacementSearchPlan::operator=(PlacementSearchPlan &&) noexcept =
    default;

std::vector<ScoredEmbedding>
topKPlacements(const PlacementSearchPlan &plan,
               const EmbeddingScorer &scorer, std::size_t k,
               std::size_t limit, PlacementSearchStats *stats,
               const HostSetConstraint *constraint)
{
    QEDM_REQUIRE(k > 0, "top-K placement search needs k >= 1");
    QEDM_REQUIRE(limit > 0, "enumeration limit must be positive");
    QEDM_REQUIRE(constraint == nullptr || constraint->maxShared >= 0,
                 "host-set constraint needs maxShared >= 0");

    // The completion budget resets per root branch, so a binding
    // limit caps every branch alike instead of letting the first
    // roots spend it all (DESIGN.md §18).
    const PlanImpl &impl = *plan.impl_;
    Worker worker(impl, scorer, k, limit, stats, constraint);
    if (!impl.order.empty()) {
        for (int t : impl.hosts(impl.order.front()))
            worker.searchRoot(t);
    }
    return worker.take();
}

} // namespace qedm::transpile
