/**
 * @file
 * Static verification of compiler artifacts (no simulation).
 *
 * Noise-adaptive compilers fail in ways that do not crash: a mapping
 * bug produces a plausible-but-wrong histogram (Murali et al.,
 * ASPLOS'19), so EDM's reliability claims rest on every ensemble
 * member being *provably* well-formed. qedm::check is a library of
 * verifier passes that validate a compiled program against the device
 * it was compiled for:
 *
 *   - CircuitChecker: structural validity of the gate list (indices in
 *     range, arity/params match the op kind, no use-after-measure);
 *   - MappingChecker: the layout is a bijection onto the device, every
 *     two-qubit gate sits on a coupling edge, and the SWAP trail turns
 *     the initial map into the final map;
 *   - MeasureChecker: the measurement table reads the final layout —
 *     every clbit written once, every measured qubit inside the final
 *     map's image, and (when the logical source is attached) the
 *     physical measures are exactly the logical ones pushed through
 *     the final map;
 *   - EspChecker: the reported ESP is recomputable from the routed
 *     circuit and the calibration tables within 1e-9.
 *
 * The passes run through transpile::verifyCompiled, after every
 * Transpiler compile and over every ensemble member: always-on in
 * debug builds (kDefaultVerify), opt-in via EdmConfig::verifyPasses /
 * `qedm_cli --check` in release.
 * A violation throws CheckError naming the pass, the offending gate
 * index, and the physical qubits involved.
 */

#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "hw/device.hpp"
#include "hw/device_view.hpp"

namespace qedm::check {

/**
 * Default verification policy: always-on in debug builds, opt-in in
 * release (checkers must be zero-cost when disabled).
 */
#ifdef NDEBUG
inline constexpr bool kDefaultVerify = false;
#else
inline constexpr bool kDefaultVerify = true;
#endif

/**
 * What class of violation a verifier pass found. Tests and callers
 * match on the kind instead of substring-grepping what(), so
 * diagnostic wording can evolve without breaking them.
 */
enum class CheckErrorKind
{
    Unspecified,      ///< legacy construction without a kind
    MissingArtifact,  ///< the program view lacks a required piece
    ArityMismatch,    ///< operand count does not match the op kind
    ParamMismatch,    ///< parameter count does not match the op kind
    QubitOutOfRange,  ///< gate qubit index outside the register
    DuplicateOperand, ///< a gate repeats an operand qubit
    UseAfterMeasure,  ///< a gate acts on a qubit after measurement
    ClbitMisuse,      ///< clbit out of range or on a non-measure op
    RegisterMismatch, ///< register/map sizes disagree with the device
    LayoutOutOfRange, ///< a layout entry leaves the device register
    LayoutNotBijective, ///< two logical qubits share a physical qubit
    UndecomposedGate, ///< >2-qubit gate survived into a routed circuit
    UncoupledGate,    ///< two-qubit gate on a non-adjacent pair
    SwapCountMismatch, ///< reported SWAP count != SWAPs in the circuit
    SwapTrailMismatch, ///< replayed SWAPs do not reach the final map
    EspMismatch,      ///< reported ESP does not recompute (stale score)
    EspUndefined,     ///< ESP recomputation hit an uncoupled gate
    MeasureOffLayout, ///< measure reads a qubit outside the final map
    MeasureRemapMismatch, ///< measure table != logical through final map
    QubitOutsideRegion, ///< placement/gate/measure leaves the view
    JournalHeaderInvalid, ///< journal magic/version/header unreadable
    JournalCorruptRecord, ///< mid-stream record failed its checksum
    JournalFingerprintMismatch, ///< journal was written by another run
};

/** Stable kebab-case name for one CheckErrorKind. */
const char *checkErrorKindName(CheckErrorKind kind);

/**
 * A verifier pass rejected an artifact. Carries the pass name, a
 * structured violation kind, the offending gate index (-1 when the
 * violation is not tied to one gate), and the physical qubits
 * involved; pass, gate, and qubits also appear in what().
 */
class CheckError : public Error
{
  public:
    CheckError(std::string pass, const std::string &message,
               int gate_index = -1, std::vector<int> qubits = {});

    CheckError(std::string pass, CheckErrorKind kind,
               const std::string &message, int gate_index = -1,
               std::vector<int> qubits = {});

    /** Name of the pass that rejected ("circuit", "mapping", "esp"). */
    const std::string &pass() const { return pass_; }

    /** Structured violation class (Unspecified for the legacy ctor). */
    CheckErrorKind kind() const { return kind_; }

    /** Offending gate index in the physical circuit, or -1. */
    int gateIndex() const { return gateIndex_; }

    /** Physical qubits involved in the violation (may be empty). */
    const std::vector<int> &qubits() const { return qubits_; }

  private:
    std::string pass_;
    CheckErrorKind kind_;
    int gateIndex_;
    std::vector<int> qubits_;
};

/**
 * Non-owning view of one compiled program plus the device it targets.
 * Mirrors transpile::CompiledProgram without depending on it, so the
 * transpiler can link against the checkers (and not vice versa).
 */
struct ProgramView
{
    /** Physical circuit over the full device register. */
    const circuit::Circuit *physical = nullptr;
    /** Initial logical-to-physical placement (logical index -> phys). */
    const std::vector<int> *initialMap = nullptr;
    /** Logical-to-physical map after all inserted SWAPs. */
    const std::vector<int> *finalMap = nullptr;
    /** Number of SWAP gates the router reported inserting. */
    int swapCount = 0;
    /** Compile-time ESP the score pass reported. */
    double esp = 0.0;
    /** Device the program was compiled for. */
    const hw::Device *device = nullptr;
    /**
     * Logical source circuit, when available. Optional: enables the
     * strong measurement-remap check (physical measures == logical
     * measures through the final map).
     */
    const circuit::Circuit *logical = nullptr;
    /**
     * Region the program was compiled under, when available.
     * Optional: when set and not full, MappingChecker rejects any
     * layout entry, gate operand (including SWAPs), or measurement
     * that touches a physical qubit outside the allowed mask.
     */
    const hw::DeviceView *region = nullptr;
};

/** One static verifier pass over a compiled program. */
class CheckerPass
{
  public:
    virtual ~CheckerPass() = default;

    /** Stable pass name used in diagnostics. */
    virtual const char *name() const = 0;

    /** Validate @p view; throws CheckError on the first violation. */
    virtual void run(const ProgramView &view) const = 0;
};

/**
 * The standard pass list in execution order: circuit, mapping,
 * measure, esp. The instances are immutable singletons; safe to share
 * across threads.
 */
const std::vector<const CheckerPass *> &standardPasses();

/**
 * Run every standard pass over @p view. Throws CheckError on the
 * first violation; returns the number of passes run otherwise.
 */
std::size_t verifyProgram(const ProgramView &view);

namespace detail {

/** Render "p3,p9" style physical-qubit lists for diagnostics. */
std::string formatQubits(const std::vector<int> &qubits);

} // namespace detail
} // namespace qedm::check
