#include "core/ensemble.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "sim/executor.hpp"
#include "stats/metrics.hpp"
#include "transpile/esp_model.hpp"
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

/** Fraction of @p a's qubits also present in @p b. */
double
overlapFraction(std::uint64_t a, std::uint64_t b)
{
    return static_cast<double>(std::popcount(a & b)) /
           static_cast<double>(std::popcount(a));
}

/**
 * One build's candidates: the compiled seed plus one row per distinct
 * qubit set, sorted by candidateBefore. Rows are materialized (and
 * verified) one at a time, on demand.
 */
struct Ranking
{
    const hw::DeviceView &view;
    const circuit::Circuit &logical;
    bool verify;
    CompiledProgram seed;
    std::vector<CandidateRecord> rows;

    /** The isomorphic transfer of the seed onto row @p i. */
    CompiledProgram
    member(std::size_t i) const
    {
        const CandidateRecord &rec = rows[i];
        CompiledProgram out;
        out.physical = seed.physical.remapQubits(
            rec.relabel, view.device().numQubits());
        out.initialMap = rec.initialMap;
        out.finalMap.reserve(seed.finalMap.size());
        for (int p : seed.finalMap)
            out.finalMap.push_back(rec.relabel[p]);
        out.swapCount = seed.swapCount;
        out.esp = rec.esp;
        // Isomorphic transfer must preserve validity; verify every
        // member the builder hands out, not just the compiled seed.
        if (verify) {
            check::ProgramView pv;
            pv.physical = &out.physical;
            pv.initialMap = &out.initialMap;
            pv.finalMap = &out.finalMap;
            pv.swapCount = out.swapCount;
            pv.esp = out.esp;
            pv.device = &view.device();
            pv.logical = &logical;
            pv.region = &view;
            check::verifyProgram(pv);
        }
        return out;
    }

    std::vector<CompiledProgram>
    members(const std::vector<std::size_t> &picks) const
    {
        std::vector<CompiledProgram> out;
        out.reserve(picks.size());
        for (std::size_t i : picks)
            out.push_back(member(i));
        return out;
    }

    /** Row indices 0 .. @p n - 1. */
    static std::vector<std::size_t>
    prefix(std::size_t n)
    {
        std::vector<std::size_t> out(n);
        std::iota(out.begin(), out.end(), std::size_t{0});
        return out;
    }
};

Ranking
rankCandidates(const hw::DeviceView &view, const EnsembleConfig &config,
               const circuit::Circuit &logical)
{
    transpile::Transpiler compiler(view, config.routeCost,
                                   config.verifyPasses);
    compiler.setScheduler(config.scheduler);
    std::shared_ptr<const CompiledProgram> cached;
    if (config.compileCache != nullptr)
        cached = config.compileCache->getOrCompile(compiler, logical);
    Ranking out{view, logical, config.verifyPasses,
                cached ? *cached : compiler.compile(logical), {}};
    const CompiledProgram &seed = out.seed;
    const hw::Topology &topo = view.device().topology();
    const int n = topo.numQubits();
    // The seed's physical circuit spans the device register, which
    // Circuit caps at 64 qubits, so one word keys every qubit set.
    QEDM_ASSERT(n <= 64, "qubit-set keys hold at most 64 qubits");

    // Pattern: the induced subgraph on the qubits the seed executable
    // touches (including any SWAP waypoints).
    const std::vector<int> used = seed.usedQubits();
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
    const hw::Topology pattern(static_cast<int>(used.size()),
                               pattern_edges);

    // Score every transfer from the seed's gate trace, re-indexed once
    // to pattern slots: an embedding (slot -> physical) is then itself
    // the map espOfTrace walks. These are the factors esp() multiplies
    // on the materialized circuit, in the same order, so the scores
    // are bit-identical without building a circuit or a relabeling.
    const auto model = transpile::sharedEspModel(view);
    transpile::GateTrace trace =
        transpile::EspModel::trace(seed.physical.decomposed());
    for (transpile::GateTerm &term : trace) {
        term.a = patternIndex[term.a];
        if (term.kind == transpile::GateTerm::Kind::TwoQubit)
            term.b = patternIndex[term.b];
    }

    // Full physical-to-physical relabeling: used qubits move via the
    // embedding; the rest fill the remaining slots in ascending order
    // (their placement is irrelevant, no gate touches them).
    const auto fill = [&](const std::vector<int> &embedding,
                          CandidateRecord &rec) {
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
        for (int p : seed.initialMap)
            rec.initialMap.push_back(rec.relabel[p]);
    };

    // The paper ranks isomorphic *sub-graphs*: automorphic relabelings
    // of one qubit set collapse onto its best under candidateBefore.
    // Embeddings stream past; only a set's first embedding, a strictly
    // better ESP, or an exact ESP tie pays for a relabeling. The map is
    // only looked up, never iterated: the rows vector holds the order.
    std::unordered_map<std::uint64_t, std::size_t> rowOf;
    CandidateRecord challenger;
    transpile::vf2ForEachEmbedding(
        pattern, topo, config.vf2Limit, view.maskPtr(),
        [&](const std::vector<int> &embedding) {
            std::uint64_t mask = 0;
            for (int q : embedding)
                mask |= std::uint64_t{1} << q;
            const double esp = model->espOfTrace(trace, embedding);
            const auto [slot, fresh] =
                rowOf.try_emplace(mask, out.rows.size());
            if (fresh) {
                CandidateRecord &rec = out.rows.emplace_back();
                rec.usedMask = mask;
                rec.esp = esp;
                fill(embedding, rec);
                return;
            }
            CandidateRecord &best = out.rows[slot->second];
            if (esp < best.esp)
                return;
            challenger.usedMask = mask;
            challenger.esp = esp;
            fill(embedding, challenger);
            if (candidateBefore(challenger, best))
                std::swap(challenger, best);
        });
    QEDM_ASSERT(!out.rows.empty(), "identity embedding must always exist");
    std::sort(out.rows.begin(), out.rows.end(), candidateBefore);
    return out;
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
}

std::vector<CompiledProgram>
EnsembleBuilder::candidates(const circuit::Circuit &logical) const
{
    const Ranking ranking = rankCandidates(view_, config_, logical);
    return ranking.members(Ranking::prefix(ranking.rows.size()));
}

std::vector<CompiledProgram>
EnsembleBuilder::build(const circuit::Circuit &logical) const
{
    const Ranking ranking = rankCandidates(view_, config_, logical);
    const std::vector<CandidateRecord> &rows = ranking.rows;
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

    // Greedy top-K selection under the overlap cap, on the rows' qubit
    // sets. If the cap starves the ensemble below K, it is relaxed
    // progressively for the *remaining* slots only, so the tight-cap
    // prefix (the most diverse members) is preserved. Only the picked
    // rows are materialized.
    std::vector<std::size_t> picks;
    std::vector<bool> taken(rows.size(), false);
    for (double cap = config_.maxOverlap;
         picks.size() < want && picks.size() < rows.size(); cap += 0.25) {
        for (std::size_t i = 0; i < rows.size() && picks.size() < want;
             ++i) {
            if (taken[i])
                continue;
            bool ok = true;
            if (cap < 1.0) {
                for (std::size_t prev : picks) {
                    if (overlapFraction(rows[i].usedMask,
                                        rows[prev].usedMask) > cap) {
                        ok = false;
                        break;
                    }
                }
            }
            if (ok) {
                picks.push_back(i);
                taken[i] = true;
            }
        }
        if (cap >= 1.0)
            break;
    }
    return ranking.members(picks);
}

std::vector<CompiledProgram>
EnsembleBuilder::buildPredictive(const circuit::Circuit &logical,
                                 std::size_t pool_size) const
{
    QEDM_REQUIRE(pool_size >= 2, "predictive pool needs >= 2 members");
    const Ranking ranking = rankCandidates(view_, config_, logical);
    const std::vector<CompiledProgram> pool = ranking.members(
        Ranking::prefix(std::min(pool_size, ranking.rows.size())));
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
    const Ranking ranking = rankCandidates(view_, config_, logical);
    std::vector<std::size_t> order = Ranking::prefix(ranking.rows.size());
    if (static_cast<int>(order.size()) <= config_.size)
        return ranking.members(order);
    std::vector<std::size_t> picks{0}; // keep the compile-time best
    // Fisher-Yates over the remaining row indices.
    for (std::size_t i = 1;
         i < order.size() &&
         picks.size() < static_cast<std::size_t>(config_.size);
         ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    rng.uniformInt(order.size() - i));
        std::swap(order[i], order[j]);
        picks.push_back(order[i]);
    }
    return ranking.members(picks);
}

} // namespace qedm::core
