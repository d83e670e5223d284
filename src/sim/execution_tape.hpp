/**
 * @file
 * Precompiled, shareable execution tapes.
 *
 * A tape is the device-specific preprocessing of one physical circuit:
 * active-qubit compaction, per-gate systematic noise terms, scheduled
 * idle/gate relaxation channels, the readout channel list, and — for
 * registers of at most kExactLawMaxQubits active qubits — the exact
 * classical output law every trial is drawn from. It is immutable
 * after build and references nothing mutable, so one tape can be
 * executed by any number of threads concurrently.
 *
 * Tapes are the unit the runtime layer caches: within one experimental
 * round, the four baseline policies and the K ensemble members re-run
 * the same (circuit, calibration) pairs repeatedly, and the tape — law
 * included — only needs to be built once per pair. The cache key is
 * (device fingerprint, circuit fingerprint); calibration drift changes the
 * device fingerprint, so stale tapes from earlier rounds can never be
 * served ("drift-aware invalidation" by construction).
 */

#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "hw/device.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/law_sampler.hpp"
#include "stats/distribution.hpp"

namespace qedm::sim {

/** One preprocessed gate on a tape.
 *
 *  All unitary factors are pre-materialized at build time (the base
 *  gate matrix, the over-rotation/control-phase kicks, and the
 *  crosstalk phases), so the per-shot trajectory loop never calls
 *  gateMatrix1q/gateMatrix2q or evaluates trigonometry. */
struct TapeOp
{
    circuit::OpKind kind;
    std::vector<double> params;
    int l0 = -1, l1 = -1; ///< local operands
    int p0 = -1, p1 = -1; ///< physical operands
    /** Pre-materialized base gate matrix (arity-1 ops). */
    std::array<circuit::Complex, 4> gate1q{};
    /** Pre-materialized base gate matrix (arity-2 ops). */
    std::array<circuit::Complex, 16> gate2q{};
    double overRotation = 0.0; ///< coherent extra on target (rad)
    double controlPhase = 0.0; ///< coherent Rz on control (rad)
    /** Rx(overRotation), pre-materialized; valid iff overRotation != 0. */
    std::array<circuit::Complex, 4> overRotationMat{};
    /** Rz(controlPhase), pre-materialized; valid iff controlPhase != 0. */
    std::array<circuit::Complex, 4> controlPhaseMat{};
    /** (local spectator, Rz(angle) matrix) crosstalk kicks. */
    std::vector<std::pair<int, std::array<circuit::Complex, 4>>>
        crosstalk;
    double depolProb = 0.0; ///< stochastic depolarizing strength
    /** Thermal relaxation applied *before* the gate, covering each
     *  operand's idle window since its previous gate. */
    std::vector<std::pair<int, Kraus1q>> preRelaxation;
    /** Thermal-relaxation Kraus sets per operand (local qubit,
     *  channel), precomputed from gate duration and T1/T2. */
    std::vector<std::pair<int, Kraus1q>> relaxation;
};

/** One measurement on a tape. */
struct TapeMeasure
{
    int local;
    int phys;
    int clbit;
    /** Relaxation during the measurement window. */
    std::vector<Kraus1q> relaxation;
};

/** Pairwise-correlated readout flip between two classical bits. */
struct TapePairReadout
{
    int clbitA;
    int clbitB;
    double jointFlipProb;
};

/**
 * Largest active register whose classical output law a tape carries
 * (DESIGN.md §19); above it the tape leaves the law empty and shots
 * run on the trajectory engine. The law is shared by every batch of
 * the tape. At 8 active qubits a BV law costs under a tenth of 256
 * trajectories, and it stays below 256 trajectories at 9 and 10
 * qubits too. The cut stays 8 because no workload has a member above
 * it. Deliberately a constant, not an option.
 */
inline constexpr int kExactLawMaxQubits = 8;

/**
 * Immutable preprocessed program for one (device, physical circuit)
 * pair. Build once, execute from any thread.
 */
struct ExecutionTape
{
    int numLocal = 0;
    int numClbits = 0;
    std::vector<int> localToPhys;
    std::vector<TapeOp> ops;
    std::vector<TapeMeasure> measures;
    std::vector<TapePairReadout> pairReadout;
    bool stochastic = false; ///< any per-shot randomness pre-readout
    /**
     * Exact output law over the 2^numClbits classical outcomes
     * (readout channels included): its cumulative form, normalized so
     * the last entry is 1 within rounding, plus the guide table every
     * trial's draw starts from (sim/law_sampler.hpp). Filled by
     * build() iff numLocal <= kExactLawMaxQubits, empty otherwise; the
     * density-matrix scratch it came from goes back to the thread's
     * spare buffer (sim/density_matrix.hpp) before build() returns.
     */
    LawSampler law;

    /** Does this tape carry its exact output law? */
    bool hasLaw() const { return !law.empty(); }

    /**
     * Preprocess @p physical for @p device. The circuit register must
     * match the device; every 2-qubit gate must sit on a coupling
     * edge; at least one qubit must be measured. Registers of at most
     * kExactLawMaxQubits active qubits also get their exact law.
     */
    static ExecutionTape build(const hw::Device &device,
                               const circuit::Circuit &physical);
};

/**
 * The fused density-matrix evolution behind exactLaw: every gate and
 * noise channel on @p tape through the measurement-window relaxation.
 * Each qubit is finished at its last 2-qubit pass: every 1-qubit
 * factor the tape applies to it later is queued right after that
 * pass, in tape order, and the qubit is dephased. Qubits without a
 * pass are dephased last (DESIGN.md §19). The result is diagonal, and
 * its diagonal is the pre-readout law. At most 10 active qubits;
 * throws UserError above that.
 */
DensityMatrix evolveDensityMatrix(const ExecutionTape &tape);

/**
 * Exact output distribution of @p tape's classical register under
 * @p cal: evolveDensityMatrix's law of every gate and noise channel
 * on the tape, projected onto the measured clbits, then per-bit readout confusion and correlated pair
 * flips applied to the classical law. At most 10 active qubits (the
 * matrix holds 4^n entries); throws UserError above that.
 */
stats::Distribution exactLaw(const ExecutionTape &tape,
                             const hw::Calibration &cal);

/**
 * Thread-safe LRU cache of built tapes keyed on
 * (device fingerprint, circuit fingerprint).
 */
class TapeCache
{
  public:
    /** @param capacity maximum resident tapes (>= 1). */
    explicit TapeCache(std::size_t capacity = 256);

    /** Fetch the tape for (@p device, @p physical), building on miss. */
    std::shared_ptr<const ExecutionTape>
    get(const hw::Device &device, const circuit::Circuit &physical);

    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    void clear();

  private:
    using Key = std::pair<std::uint64_t, std::uint64_t>;

    std::size_t capacity_;
    mutable std::mutex mutex_;
    /** LRU order: front = most recent. */
    std::list<Key> order_;
    std::map<Key, std::pair<std::shared_ptr<const ExecutionTape>,
                            std::list<Key>::iterator>>
        entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace qedm::sim
