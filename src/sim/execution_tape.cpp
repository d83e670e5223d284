#include "sim/execution_tape.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qedm::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::OpKind;

namespace {

/**
 * Apply per-bit readout confusion to a classical distribution,
 * in place: outcomes pair up as (o, o^bit), and each pair exchanges
 * probability mass independently of every other pair, so no scratch
 * distribution is needed. The two accumulations keep the term order
 * of the historical copy-based implementation (lower-index source
 * first), so results are bit-identical to it.
 */
void
applyBitConfusion(stats::Distribution &dist, int bit, double p01,
                  double p10)
{
    const std::size_t n = dist.size();
    const std::size_t mask = std::size_t(1) << bit;
    for (std::size_t o = 0; o < n; ++o) {
        if (o & mask)
            continue;
        const double p0 = dist.prob(o);
        const double p1 = dist.prob(o | mask);
        dist.setProb(o, p0 * (1.0 - p01) + p1 * p10);
        dist.setProb(o | mask, p0 * p01 + p1 * (1.0 - p10));
    }
}

/** Apply a joint two-bit flip channel to a classical distribution,
 *  in place (outcomes pair up under the flip involution). */
void
applyJointFlip(stats::Distribution &dist, int bit_a, int bit_b, double p)
{
    if (p <= 0.0)
        return;
    const std::size_t n = dist.size();
    for (std::size_t o = 0; o < n; ++o) {
        const Outcome f = flipBit(flipBit(o, bit_a), bit_b);
        if (f <= o)
            continue; // visit each pair once, from its lower index
        const double po = dist.prob(o);
        const double pf = dist.prob(f);
        dist.setProb(o, po * (1.0 - p) + pf * p);
        dist.setProb(f, po * p + pf * (1.0 - p));
    }
}

/**
 * Queue every 1-qubit factor @p op puts on a qubit @p accepts, in tape
 * order. For a 1-qubit op that is its idle relaxation, gate,
 * over-rotation, depolarizing and relaxation; for a 2-qubit op, what
 * follows its pass: over-rotation, control phase, crosstalk kicks and
 * relaxation. A 2-qubit op's idle relaxation flushes into its pass, so
 * the caller queues it before that pass.
 */
template <typename Accepts>
void
queueOneQubitFactors(DensityMatrix &rho, const TapeOp &op, Accepts accepts)
{
    if (op.l1 < 0) {
        if (!accepts(op.l0))
            return;
        for (const auto &[local, kraus] : op.preRelaxation)
            rho.applyKraus1q(kraus, local);
        rho.apply1q(op.gate1q, op.l0);
        if (op.overRotation != 0.0)
            rho.apply1q(op.overRotationMat, op.l0);
        if (op.depolProb > 0.0)
            rho.applyKraus1q(depolarizing1q(op.depolProb), op.l0);
    } else {
        if (op.overRotation != 0.0 && accepts(op.l1))
            rho.apply1q(op.overRotationMat, op.l1);
        if (op.controlPhase != 0.0 && accepts(op.l0))
            rho.apply1q(op.controlPhaseMat, op.l0);
        for (const auto &[spectator, kick] : op.crosstalk) {
            if (accepts(spectator))
                rho.apply1q(kick, spectator);
        }
    }
    for (const auto &[local, kraus] : op.relaxation) {
        if (accepts(local))
            rho.applyKraus1q(kraus, local);
    }
}

} // namespace

DensityMatrix
evolveDensityMatrix(const ExecutionTape &tape)
{
    QEDM_REQUIRE(tape.numLocal <= 10,
                 "exact density-matrix simulation supports at most 10 "
                 "active qubits, circuit has " +
                     std::to_string(tape.numLocal) +
                     "; use trajectory sampling (Executor::run) for "
                     "larger circuits");

    // A qubit is finished at its last 2-qubit pass (DESIGN.md §19).
    // Everything the tape applies to it afterwards acts on it alone and
    // so commutes with every factor on other qubits: it is queued right
    // after that pass, in tape order, and the qubit is dephased, since
    // its coherences can no longer reach the law. Later passes then
    // skip its coherent half. Qubits with no pass stay fresh until the
    // end.
    const std::size_t n = static_cast<std::size_t>(tape.numLocal);
    std::vector<std::size_t> last_pass(n, tape.ops.size());
    for (std::size_t i = 0; i < tape.ops.size(); ++i) {
        if (tape.ops[i].l1 >= 0) {
            last_pass[static_cast<std::size_t>(tape.ops[i].l0)] = i;
            last_pass[static_cast<std::size_t>(tape.ops[i].l1)] = i;
        }
    }
    std::vector<char> finished(n, 0);
    const auto unfinished = [&](int q) {
        return !finished[static_cast<std::size_t>(q)];
    };
    DensityMatrix rho(tape.numLocal);
    const auto queueMeasureRelaxation = [&](const TapeMeasure &m) {
        for (const auto &kraus : m.relaxation)
            rho.applyKraus1q(kraus, m.local);
    };

    // Each 2-qubit op is one pass. Its depolarizing rides in that
    // pass: the channel commutes with the local unitary kicks
    // (over-rotation, control phase, crosstalk) that follow the gate on
    // the tape, so applying it first changes nothing.
    for (std::size_t i = 0; i < tape.ops.size(); ++i) {
        const TapeOp &op = tape.ops[i];
        if (op.l1 >= 0) {
            for (const auto &[local, kraus] : op.preRelaxation)
                rho.applyKraus1q(kraus, local);
            rho.apply2q(op.gate2q, op.l0, op.l1, op.depolProb);
        }
        queueOneQubitFactors(rho, op, unfinished);
        for (const int q : {op.l0, op.l1}) {
            if (q < 0 || last_pass[static_cast<std::size_t>(q)] != i)
                continue;
            const auto on_q = [q](int local) { return local == q; };
            for (std::size_t j = i + 1; j < tape.ops.size(); ++j)
                queueOneQubitFactors(rho, tape.ops[j], on_q);
            for (const auto &m : tape.measures) {
                if (m.local == q)
                    queueMeasureRelaxation(m);
            }
            rho.dephase(q);
            finished[static_cast<std::size_t>(q)] = 1;
        }
    }
    for (const auto &m : tape.measures) {
        if (unfinished(m.local))
            queueMeasureRelaxation(m);
    }
    // Only the qubits without a pass are left: the rest is classical.
    for (int q = 0; q < tape.numLocal; ++q)
        rho.dephase(q);
    return rho;
}

stats::Distribution
exactLaw(const ExecutionTape &tape, const hw::Calibration &cal)
{
    const DensityMatrix rho = evolveDensityMatrix(tape);

    // Project the basis-state probabilities onto the classical register.
    stats::Distribution dist(tape.numClbits);
    const std::vector<double> probs = rho.probabilities();
    for (std::size_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        Outcome outcome = 0;
        for (const auto &m : tape.measures)
            outcome = setBit(outcome, m.clbit, getBit(basis, m.local));
        dist.addProb(outcome, probs[basis]);
    }

    // Classical readout channels (applied in place; see the helpers).
    for (const auto &m : tape.measures) {
        const auto &qc = cal.qubit(m.phys);
        if (qc.readoutP01 > 0.0 || qc.readoutP10 > 0.0)
            applyBitConfusion(dist, m.clbit, qc.readoutP01,
                              qc.readoutP10);
    }
    for (const auto &pr : tape.pairReadout)
        applyJointFlip(dist, pr.clbitA, pr.clbitB, pr.jointFlipProb);

    dist.normalize();
    return dist;
}

ExecutionTape
ExecutionTape::build(const hw::Device &device, const Circuit &physical)
{
    const auto &topo = device.topology();
    const auto &cal = device.calibration();
    const auto &noise = device.noise();
    const auto &spec = noise.spec();

    QEDM_REQUIRE(physical.numQubits() == topo.numQubits(),
                 "physical circuit register must match the device");
    const Circuit flat = physical.decomposed();

    // Collect active qubits and build the local compaction map.
    std::map<int, int> physToLocal;
    for (const Gate &g : flat.gates()) {
        for (int q : g.qubits) {
            if (!physToLocal.count(q)) {
                const int local = static_cast<int>(physToLocal.size());
                physToLocal[q] = local;
            }
        }
    }
    // Renumber in physical order for determinism.
    {
        int next = 0;
        for (auto &[phys, local] : physToLocal)
            local = next++;
    }

    ExecutionTape tape;
    tape.numLocal = static_cast<int>(physToLocal.size());
    tape.numClbits = flat.numClbits();
    tape.localToPhys.resize(tape.numLocal);
    for (const auto &[phys, local] : physToLocal)
        tape.localToPhys[local] = phys;
    QEDM_REQUIRE(tape.numLocal >= 1, "circuit has no active qubits");

    std::vector<bool> measured(topo.numQubits(), false);
    std::vector<bool> clbitWritten(std::max(flat.numClbits(), 1), false);
    // ASAP schedule clock per local qubit, for idle-window damping.
    std::vector<double> ready_ns(
        static_cast<std::size_t>(tape.numLocal), 0.0);

    for (const Gate &g : flat.gates()) {
        if (g.kind == OpKind::Barrier)
            continue;
        for (int q : g.qubits) {
            QEDM_REQUIRE(!measured[q],
                         "gate after measurement is not supported");
        }
        if (g.kind == OpKind::Measure) {
            const int q = g.qubits[0];
            measured[q] = true;
            QEDM_REQUIRE(!clbitWritten[g.clbit],
                         "clbit measured more than once");
            clbitWritten[g.clbit] = true;
            tape.measures.push_back(
                TapeMeasure{physToLocal.at(q), q, g.clbit, {}});
            continue;
        }
        TapeOp op;
        op.kind = g.kind;
        op.params = g.params;
        op.p0 = g.qubits[0];
        op.l0 = physToLocal.at(op.p0);
        if (circuit::opArity(g.kind) == 1)
            op.gate1q = circuit::gateMatrix1q(g.kind, g.params);
        else
            op.gate2q = circuit::gateMatrix2q(g.kind);
        auto addRelaxation = [&](int local, int phys, double dur_ns) {
            if (!spec.enableDecoherence)
                return;
            for (auto &kraus : thermalRelaxation(
                     dur_ns, cal.qubit(phys).t1Us,
                     cal.qubit(phys).t2Us)) {
                op.relaxation.emplace_back(local, std::move(kraus));
            }
        };
        const double duration = circuit::opArity(g.kind) == 1
                                    ? spec.gate1qNs
                                    : spec.gate2qNs;
        double start_ns = 0.0;
        for (int q : g.qubits) {
            start_ns = std::max(
                start_ns,
                ready_ns[static_cast<std::size_t>(physToLocal.at(q))]);
        }
        // Idle-window damping for operands that waited.
        if (spec.enableDecoherence && spec.idleDecoherence) {
            for (int q : g.qubits) {
                const int local = physToLocal.at(q);
                const double gap =
                    start_ns - ready_ns[static_cast<std::size_t>(local)];
                if (gap > 0.0) {
                    for (auto &kraus : thermalRelaxation(
                             gap, cal.qubit(q).t1Us,
                             cal.qubit(q).t2Us)) {
                        op.preRelaxation.emplace_back(
                            local, std::move(kraus));
                    }
                }
            }
        }
        for (int q : g.qubits) {
            ready_ns[static_cast<std::size_t>(physToLocal.at(q))] =
                start_ns + duration;
        }
        if (circuit::opArity(g.kind) == 1) {
            op.overRotation = noise.overRotation1q(op.p0);
            op.depolProb = std::min(
                cal.qubit(op.p0).error1q * spec.stochasticScale, 1.0);
            addRelaxation(op.l0, op.p0, spec.gate1qNs);
        } else {
            op.p1 = g.qubits[1];
            op.l1 = physToLocal.at(op.p1);
            const int edge = topo.edgeIndex(op.p0, op.p1);
            QEDM_REQUIRE(edge >= 0,
                         "two-qubit gate on uncoupled physical qubits");
            op.overRotation =
                noise.overRotation(static_cast<std::size_t>(edge));
            op.controlPhase =
                noise.controlPhase(static_cast<std::size_t>(edge));
            op.depolProb = std::min(
                cal.edge(static_cast<std::size_t>(edge)).cxError *
                    spec.stochasticScale,
                1.0);
            for (const auto &xt :
                 noise.crosstalk(static_cast<std::size_t>(edge))) {
                auto it = physToLocal.find(xt.spectator);
                if (it != physToLocal.end()) {
                    op.crosstalk.emplace_back(
                        it->second,
                        circuit::gateMatrix1q(OpKind::Rz,
                                              {xt.angleRad}));
                }
            }
            addRelaxation(op.l0, op.p0, spec.gate2qNs);
            addRelaxation(op.l1, op.p1, spec.gate2qNs);
        }
        // Pre-materialize the coherent-noise kicks so the shot loop
        // multiplies by stored matrices instead of re-deriving them.
        if (op.overRotation != 0.0) {
            op.overRotationMat =
                circuit::gateMatrix1q(OpKind::Rx, {op.overRotation});
        }
        if (op.controlPhase != 0.0) {
            op.controlPhaseMat =
                circuit::gateMatrix1q(OpKind::Rz, {op.controlPhase});
        }
        if (op.depolProb > 0.0 || !op.relaxation.empty() ||
            !op.preRelaxation.empty()) {
            tape.stochastic = true;
        }
        tape.ops.push_back(std::move(op));
    }
    QEDM_REQUIRE(!tape.measures.empty(),
                 "circuit must measure at least one qubit");
    if (spec.enableDecoherence) {
        // Measurement fires simultaneously at circuit end; qubits that
        // finished early idle until then.
        double end_ns = 0.0;
        for (double t : ready_ns)
            end_ns = std::max(end_ns, t);
        for (auto &m : tape.measures) {
            if (spec.idleDecoherence) {
                const double gap =
                    end_ns - ready_ns[static_cast<std::size_t>(m.local)];
                if (gap > 0.0) {
                    m.relaxation = thermalRelaxation(
                        gap, cal.qubit(m.phys).t1Us,
                        cal.qubit(m.phys).t2Us);
                }
            }
            for (auto &kraus : thermalRelaxation(
                     spec.measureNs, cal.qubit(m.phys).t1Us,
                     cal.qubit(m.phys).t2Us)) {
                m.relaxation.push_back(std::move(kraus));
            }
            if (!m.relaxation.empty())
                tape.stochastic = true;
        }
    }

    // Correlated readout channels between pairs of *measured* qubits.
    std::map<int, int> physToClbit;
    for (const auto &m : tape.measures)
        physToClbit[m.phys] = m.clbit;
    for (const auto &cr : noise.correlatedReadout()) {
        auto a = physToClbit.find(cr.qubitA);
        auto b = physToClbit.find(cr.qubitB);
        if (a != physToClbit.end() && b != physToClbit.end()) {
            tape.pairReadout.push_back(TapePairReadout{
                a->second, b->second, cr.jointFlipProb});
        }
    }

    if (tape.numLocal <= kExactLawMaxQubits) {
        const stats::Distribution law = exactLaw(tape, cal);
        std::vector<double> cumulative(law.size());
        double acc = 0.0;
        for (std::size_t o = 0; o < law.size(); ++o) {
            acc += law.probabilities()[o];
            cumulative[o] = acc;
        }
        tape.law = LawSampler(std::move(cumulative));
    }
    return tape;
}

TapeCache::TapeCache(std::size_t capacity) : capacity_(capacity)
{
    QEDM_REQUIRE(capacity >= 1, "tape cache capacity must be >= 1");
}

std::shared_ptr<const ExecutionTape>
TapeCache::get(const hw::Device &device, const circuit::Circuit &physical)
{
    const Key key{device.fingerprint(), physical.fingerprint()};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            order_.splice(order_.begin(), order_, it->second.second);
            return it->second.first;
        }
        ++misses_;
    }
    // Build outside the lock: concurrent misses on the *same* key may
    // build twice, but both results are identical and the duplicate is
    // simply dropped on insert — cheaper than holding every caller
    // behind one build.
    auto tape = std::make_shared<const ExecutionTape>(
        ExecutionTape::build(device, physical));
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end())
        return it->second.first;
    order_.push_front(key);
    entries_.emplace(key, std::make_pair(tape, order_.begin()));
    while (entries_.size() > capacity_) {
        entries_.erase(order_.back());
        order_.pop_back();
    }
    return tape;
}

std::size_t
TapeCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t
TapeCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
TapeCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
TapeCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    order_.clear();
}

} // namespace qedm::sim
