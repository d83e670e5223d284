#include "core/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/esp_model.hpp"
#include "transpile/placement_search.hpp"
#include "transpile/vf2.hpp"

namespace qedm::core {

using transpile::CompiledProgram;

namespace {

/**
 * The kept isomorphic transfer of one distinct qubit set: the full
 * relabeling, the relabeled initial map (the deterministic tie-break
 * key), the exact trace-scored ESP, and the set itself as a bitmask.
 * The physical circuit is only built for the rows a policy returns.
 */
struct CandidateRecord
{
    std::vector<int> relabel;
    std::vector<int> initialMap;
    std::uint64_t usedMask = 0; ///< embedding targets, bit q = qubit q
    double esp = 0.0;
};

/** Deterministic candidate order: ESP descending, ties broken on the
 *  initial map and then on the full relabeling — a total order
 *  independent of enumeration order. */
bool
candidateBefore(const CandidateRecord &a, const CandidateRecord &b)
{
    if (a.esp != b.esp)
        return a.esp > b.esp;
    if (a.initialMap != b.initialMap)
        return a.initialMap < b.initialMap;
    return a.relabel < b.relabel;
}

/** The qubit set an embedding targets, as a bitmask. */
std::uint64_t
maskOf(const std::vector<int> &embedding)
{
    std::uint64_t mask = 0;
    for (int q : embedding)
        mask |= std::uint64_t{1} << q;
    return mask;
}

/**
 * The overlap cap as an integer: the most qubits a candidate may
 * share with each picked member. The greedy skips a candidate whose
 * shared fraction s / |set| exceeds @p cap, so this is the largest s
 * that passes that test, evaluated with the same double expression.
 * At cap >= 1.0 the cap is off; |set| - 1 then excludes only the
 * picked qubit sets themselves (every candidate has |set| qubits).
 */
int
maxSharedUnder(double cap, int set_size)
{
    if (cap >= 1.0)
        return set_size - 1;
    int shared = 0;
    while (shared < set_size &&
           !(static_cast<double>(shared + 1) /
                 static_cast<double>(set_size) >
             cap))
        ++shared;
    return shared;
}

/**
 * The compiled seed and what every policy derives from it once: the
 * pattern (the induced subgraph on the qubits the seed touches,
 * including any SWAP waypoints), its gate trace re-indexed to pattern
 * slots, and the calibration's ESP tables. Candidate records are
 * materialized (and verified) against it one at a time, on demand.
 */
struct Seed
{
    const hw::DeviceView &view;
    const circuit::Circuit &logical;
    bool verify;
    CompiledProgram program;
    std::vector<int> used; ///< pattern slot -> seed physical qubit
    hw::Topology pattern;
    /** The seed's ESP terms with operands re-indexed to pattern slots:
     *  an embedding (slot -> physical) is then itself the map
     *  espOfTrace walks. These are the factors esp() multiplies on the
     *  materialized circuit, in the same order, so the scores are
     *  bit-identical without building a circuit or a relabeling. */
    transpile::GateTrace trace;
    std::shared_ptr<const transpile::EspModel> model;

    /**
     * The record of @p embedding: its qubit set, score, and full
     * physical-to-physical relabeling. Used qubits move via the
     * embedding; the rest fill the remaining slots in ascending order
     * (their placement is irrelevant, no gate touches them).
     */
    void
    fill(const std::vector<int> &embedding, double esp,
         CandidateRecord &rec) const
    {
        const int n = view.device().numQubits();
        rec.usedMask = maskOf(embedding);
        rec.esp = esp;
        rec.relabel.assign(static_cast<std::size_t>(n), -1);
        for (std::size_t i = 0; i < used.size(); ++i)
            rec.relabel[used[i]] = embedding[i];
        std::uint64_t taken = rec.usedMask;
        int next = 0;
        for (int &target : rec.relabel) {
            if (target >= 0)
                continue;
            while ((taken >> next) & 1U)
                ++next;
            target = next;
            taken |= std::uint64_t{1} << next;
        }
        rec.initialMap.clear();
        for (int p : program.initialMap)
            rec.initialMap.push_back(rec.relabel[p]);
    }

    /** The isomorphic transfer of the seed onto @p rec. */
    CompiledProgram
    member(const CandidateRecord &rec) const
    {
        CompiledProgram out;
        out.physical = program.physical.remapQubits(
            rec.relabel, view.device().numQubits());
        out.initialMap = rec.initialMap;
        out.finalMap.reserve(program.finalMap.size());
        for (int p : program.finalMap)
            out.finalMap.push_back(rec.relabel[p]);
        out.swapCount = program.swapCount;
        out.esp = rec.esp;
        // Isomorphic transfer must preserve validity; verify every
        // member the builder hands out, not just the compiled seed.
        if (verify)
            transpile::verifyCompiled(out, logical, view);
        return out;
    }

    std::vector<CompiledProgram>
    members(const std::vector<CandidateRecord> &records) const
    {
        std::vector<CompiledProgram> out;
        out.reserve(records.size());
        for (const CandidateRecord &rec : records)
            out.push_back(member(rec));
        return out;
    }
};

Seed
compileSeed(const hw::DeviceView &view, const EnsembleConfig &config,
            const circuit::Circuit &logical)
{
    transpile::Transpiler compiler(view, config.routeCost,
                                   config.verifyPasses);
    std::shared_ptr<const CompiledProgram> cached;
    if (config.compileCache != nullptr)
        cached = config.compileCache->getOrCompile(compiler, logical);
    CompiledProgram program = cached ? *cached : compiler.compile(logical);
    const hw::Topology &topo = view.device().topology();
    const int n = topo.numQubits();
    // The seed's physical circuit spans the device register, which
    // Circuit caps at 64 qubits, so one word keys every qubit set.
    QEDM_ASSERT(n <= 64, "qubit-set keys hold at most 64 qubits");

    std::vector<int> used = program.usedQubits();
    QEDM_ASSERT(!used.empty(), "compiled program uses no qubits");
    std::vector<int> patternIndex(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < used.size(); ++i)
        patternIndex[used[i]] = static_cast<int>(i);
    std::vector<std::pair<int, int>> pattern_edges;
    for (const auto &edge : topo.edges()) {
        if (patternIndex[edge.a] >= 0 && patternIndex[edge.b] >= 0)
            pattern_edges.emplace_back(patternIndex[edge.a],
                                       patternIndex[edge.b]);
    }
    hw::Topology pattern(static_cast<int>(used.size()), pattern_edges);

    transpile::GateTrace trace =
        transpile::EspModel::trace(program.physical.decomposed());
    for (transpile::GateTerm &term : trace) {
        term.a = patternIndex[term.a];
        if (term.kind == transpile::GateTerm::Kind::TwoQubit)
            term.b = patternIndex[term.b];
    }
    return Seed{view,
                logical,
                config.verifyPasses,
                std::move(program),
                std::move(used),
                std::move(pattern),
                std::move(trace),
                transpile::sharedEspModel(view)};
}

/**
 * Every distinct qubit set the seed embeds onto, as its best embedding
 * under candidateBefore, sorted best first: the rows the exhaustive
 * policies (candidates, buildRandom) draw from. Throws UserError when
 * the seed has more than @p vf2_limit embeddings: the cap would cut
 * the list in enumeration order, not ESP order.
 *
 * The paper ranks isomorphic *sub-graphs*: automorphic relabelings of
 * one qubit set collapse onto its best. Embeddings stream past; only
 * a set's first embedding, a strictly better ESP, or an exact ESP tie
 * pays for a relabeling. The map is only looked up, never iterated:
 * the rows vector holds the order.
 */
std::vector<CandidateRecord>
rankAll(const Seed &seed, std::size_t vf2_limit)
{
    std::vector<CandidateRecord> rows;
    std::unordered_map<std::uint64_t, std::size_t> rowOf;
    CandidateRecord challenger;
    // One embedding past the cap tells a list the cap cuts short from
    // one that ends at it (the max guards the uncapped SIZE_MAX).
    const std::size_t visited = transpile::vf2ForEachEmbedding(
        seed.pattern, seed.view.device().topology(),
        std::max(vf2_limit, vf2_limit + 1), seed.view.maskPtr(),
        [&](const std::vector<int> &embedding) {
            const double esp =
                seed.model->espOfTrace(seed.trace, embedding);
            const auto [slot, fresh] =
                rowOf.try_emplace(maskOf(embedding), rows.size());
            if (fresh) {
                seed.fill(embedding, esp, rows.emplace_back());
                return;
            }
            CandidateRecord &best = rows[slot->second];
            if (esp < best.esp)
                return;
            seed.fill(embedding, esp, challenger);
            if (candidateBefore(challenger, best))
                std::swap(challenger, best);
        });
    QEDM_REQUIRE(visited <= vf2_limit,
                 "seed pattern has more embeddings than "
                 "EnsembleConfig::vf2Limit = " +
                     std::to_string(vf2_limit) +
                     "; the candidate list would be cut short");
    QEDM_ASSERT(!rows.empty(), "identity embedding must always exist");
    std::sort(rows.begin(), rows.end(), candidateBefore);
    return rows;
}

/**
 * The overlap-capped greedy, one search per pick (DESIGN.md §13).
 *
 * Walking the ranked rows and taking the first that passes the cap
 * against the earlier picks is the same as taking the best embedding,
 * under candidateBefore, among those whose qubit set shares at most
 * maxSharedUnder(cap) qubits with every picked set: rows skipped
 * earlier in a pass only face more picks later, and a set's best
 * embedding outranks its other embeddings. So each pick is one top-1
 * branch-and-bound query with a host-set constraint, and no query
 * enumerates the embeddings it can prove lose. If the cap starves the
 * ensemble below @p want, it is relaxed by 0.25 for the *remaining*
 * picks only, so the tight-cap prefix (the most diverse members) is
 * preserved; at cap >= 1.0 the greedy takes the next-best sets in
 * order. Serial on purpose: each query is small, and the effort
 * counters summed into @p stats stay reproducible.
 */
std::vector<CandidateRecord>
selectGreedy(const Seed &seed, std::size_t want, double max_overlap,
             transpile::PlacementSearchStats *stats)
{
    std::vector<int> slots(seed.used.size());
    std::iota(slots.begin(), slots.end(), 0);
    const transpile::PlacementCostModel cost(seed.model, seed.pattern,
                                             slots, seed.trace,
                                             seed.view.maskPtr());
    const transpile::PlacementSearchPlan plan(seed.pattern, cost,
                                              seed.view.maskPtr());
    // The search orders by (esp, key, embedding). With the key
    // initialMap ++ relabel (initialMap has a fixed length) that is
    // candidateBefore, and the relabeling already decides the
    // embedding. A score below the admission floor never reads its
    // key, so it skips the relabeling too.
    CandidateRecord scratch;
    const transpile::EmbeddingScorer scorer =
        [&](const std::vector<int> &embedding, double floor,
            std::vector<int> &key, double &esp) {
            esp = seed.model->espOfTrace(seed.trace, embedding);
            if (esp < floor) {
                key.clear();
                return;
            }
            seed.fill(embedding, esp, scratch);
            key = scratch.initialMap;
            key.insert(key.end(), scratch.relabel.begin(),
                       scratch.relabel.end());
        };

    const int set_size = static_cast<int>(seed.used.size());
    transpile::HostSetConstraint constraint;
    std::vector<CandidateRecord> picks;
    double cap = max_overlap;
    while (picks.size() < want) {
        constraint.maxShared = maxSharedUnder(cap, set_size);
        const auto best = transpile::topKPlacements(
            plan, scorer, 1, std::numeric_limits<std::size_t>::max(),
            stats, &constraint);
        if (best.empty()) {
            if (cap >= 1.0)
                break;
            cap += 0.25;
            continue;
        }
        const std::vector<int> &embedding = best.front().embedding;
        seed.fill(embedding, best.front().esp, picks.emplace_back());
        constraint.avoid.push_back(embedding);
    }
    return picks;
}

} // namespace

EnsembleBuilder::EnsembleBuilder(const hw::Device &device,
                                 EnsembleConfig config)
    : device_(device), config_(std::move(config)),
      view_(config_.region.empty()
                ? hw::DeviceView(device)
                : hw::DeviceView(device, config_.region))
{
    QEDM_REQUIRE(config_.size >= 1, "ensemble size must be >= 1");
    QEDM_REQUIRE(config_.expectedDropoutProb >= 0.0 &&
                     config_.expectedDropoutProb < 1.0,
                 "expected dropout probability must be in [0, 1)");
    QEDM_REQUIRE(config_.plannedDropouts >= 0,
                 "planned dropout count must be non-negative");
    // NaN would skip every cap test and never relax to >= 1.0.
    QEDM_REQUIRE(std::isfinite(config_.maxOverlap) &&
                     config_.maxOverlap >= 0.0,
                 "maxOverlap must be finite and non-negative");
}

std::vector<CompiledProgram>
EnsembleBuilder::candidates(const circuit::Circuit &logical) const
{
    const Seed seed = compileSeed(view_, config_, logical);
    return seed.members(rankAll(seed, config_.vf2Limit));
}

std::vector<CompiledProgram>
EnsembleBuilder::build(const circuit::Circuit &logical,
                       transpile::PlacementSearchStats *stats) const
{
    const Seed seed = compileSeed(view_, config_, logical);
    // Fault-aware sizing: when the fault plan predicts member dropout,
    // over-provision K so the ensemble *expected to survive* still has
    // config_.size members — size / (1 - p) against probabilistic
    // dropout, plus one slot per deterministically-failed member.
    std::size_t want = static_cast<std::size_t>(config_.size);
    if (config_.expectedDropoutProb > 0.0 || config_.plannedDropouts > 0) {
        const double p = std::min(config_.expectedDropoutProb, 0.9);
        want = static_cast<std::size_t>(std::ceil(
                   static_cast<double>(config_.size) / (1.0 - p))) +
               static_cast<std::size_t>(config_.plannedDropouts);
    }
    return seed.members(
        selectGreedy(seed, want, config_.maxOverlap, stats));
}

std::vector<CompiledProgram>
EnsembleBuilder::buildPredictive(const circuit::Circuit &logical,
                                 std::size_t pool_size) const
{
    QEDM_REQUIRE(pool_size >= 2, "predictive pool needs >= 2 members");
    const Seed seed = compileSeed(view_, config_, logical);
    // The pool is the ranked prefix: the greedy with the cap off.
    const std::vector<CompiledProgram> pool =
        seed.members(selectGreedy(seed, pool_size, 1.0, nullptr));
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(config_.size), pool.size());

    // Exact compile-time prediction of every pool member's output.
    const sim::Executor exec(device_);
    std::vector<stats::Distribution> predicted;
    predicted.reserve(pool.size());
    for (const auto &member : pool)
        predicted.push_back(exec.exactDistribution(member.physical));

    // Greedy max-diversity: seed with the best-ESP member, then add
    // the candidate with the largest summed divergence from the
    // already-selected set.
    std::vector<std::size_t> chosen{0};
    while (chosen.size() < want) {
        double best_gain = -1.0;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (std::find(chosen.begin(), chosen.end(), i) !=
                chosen.end()) {
                continue;
            }
            double gain = 0.0;
            for (std::size_t j : chosen)
                gain += stats::symmetricKl(predicted[i], predicted[j]);
            if (gain > best_gain) {
                best_gain = gain;
                best_idx = i;
            }
        }
        chosen.push_back(best_idx);
    }
    std::vector<CompiledProgram> out;
    out.reserve(chosen.size());
    for (std::size_t i : chosen)
        out.push_back(pool[i]);
    return out;
}

std::vector<CompiledProgram>
EnsembleBuilder::buildAdaptive(const circuit::Circuit &logical,
                               double min_esp_ratio) const
{
    QEDM_REQUIRE(min_esp_ratio > 0.0 && min_esp_ratio <= 1.0,
                 "min_esp_ratio must be in (0, 1]");
    std::vector<CompiledProgram> selected = build(logical);
    QEDM_ASSERT(!selected.empty(), "ensemble builder returned nothing");
    const double floor_esp = selected.front().esp * min_esp_ratio;
    std::size_t keep = 1;
    while (keep < selected.size() && selected[keep].esp >= floor_esp)
        ++keep;
    selected.resize(keep);
    return selected;
}

std::vector<CompiledProgram>
EnsembleBuilder::buildRandom(const circuit::Circuit &logical,
                             Rng &rng) const
{
    const Seed seed = compileSeed(view_, config_, logical);
    std::vector<CandidateRecord> rows = rankAll(seed, config_.vf2Limit);
    if (static_cast<int>(rows.size()) <= config_.size)
        return seed.members(rows);
    std::vector<std::size_t> order(rows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<CandidateRecord> picks;
    picks.push_back(std::move(rows.front())); // keep the compile-time best
    // Fisher-Yates over the remaining row indices.
    for (std::size_t i = 1;
         i < order.size() &&
         picks.size() < static_cast<std::size_t>(config_.size);
         ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    rng.uniformInt(order.size() - i));
        std::swap(order[i], order[j]);
        picks.push_back(std::move(rows[order[i]]));
    }
    return seed.members(picks);
}

} // namespace qedm::core
