#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qedm::sim {

namespace {

constexpr Complex kZero(0.0);
constexpr Complex kOne(1.0);

/** Classification of a 2x2 matrix into kernel shapes. */
enum class Mat2Shape
{
    General,
    Diagonal,     ///< m[1] == m[2] == 0 (Z/S/T/Rz/phase, damping K0)
    AntiDiagonal, ///< m[0] == m[3] == 0 (X/Y, damping K1)
};

Mat2Shape
classify1q(const std::array<Complex, 4> &m)
{
    if (m[1] == kZero && m[2] == kZero)
        return Mat2Shape::Diagonal;
    if (m[0] == kZero && m[3] == kZero)
        return Mat2Shape::AntiDiagonal;
    return Mat2Shape::General;
}

/**
 * Monomial (one nonzero per row, distinct columns) decomposition of a
 * 4x4 matrix: covers CX, CZ, SWAP, diagonal phases, and Pauli tensor
 * products. @returns false for matrices with any denser row.
 */
bool
decomposeMonomial4(const std::array<Complex, 16> &m, int col[4],
                   Complex coeff[4])
{
    int used = 0;
    for (int r = 0; r < 4; ++r) {
        int nz = -1;
        for (int c = 0; c < 4; ++c) {
            if (m[r * 4 + c] != kZero) {
                if (nz >= 0)
                    return false;
                nz = c;
            }
        }
        if (nz < 0 || (used & (1 << nz)))
            return false;
        used |= 1 << nz;
        col[r] = nz;
        coeff[r] = m[r * 4 + nz];
    }
    return true;
}

/**
 * Squared magnitude of (K psi) restricted to the butterfly pair
 * (a, b) = (amps[i], amps[i | mask]), accumulated over all pairs in
 * ascending base-index order — the same summation chain as the
 * reference implementation, so the result is the identical double.
 */
double
krausProbability(const std::vector<Complex> &amps,
                 const std::array<Complex, 4> &m, std::size_t mask)
{
    double p = 0.0;
    switch (classify1q(m)) {
      case Mat2Shape::Diagonal:
        for (std::size_t base = 0; base < amps.size(); base += mask << 1) {
            const Complex *lo = amps.data() + base;
            const Complex *hi = lo + mask;
            for (std::size_t off = 0; off < mask; ++off) {
                p += std::norm(m[0] * lo[off]);
                p += std::norm(m[3] * hi[off]);
            }
        }
        break;
      case Mat2Shape::AntiDiagonal:
        for (std::size_t base = 0; base < amps.size(); base += mask << 1) {
            const Complex *lo = amps.data() + base;
            const Complex *hi = lo + mask;
            for (std::size_t off = 0; off < mask; ++off) {
                p += std::norm(m[1] * hi[off]);
                p += std::norm(m[2] * lo[off]);
            }
        }
        break;
      case Mat2Shape::General:
        for (std::size_t base = 0; base < amps.size(); base += mask << 1) {
            const Complex *lo = amps.data() + base;
            const Complex *hi = lo + mask;
            for (std::size_t off = 0; off < mask; ++off) {
                const Complex a = lo[off];
                const Complex b = hi[off];
                p += std::norm(m[0] * a + m[1] * b);
                p += std::norm(m[2] * a + m[3] * b);
            }
        }
        break;
    }
    return p;
}

} // namespace

StateVector::StateVector(int num_qubits) : numQubits_(num_qubits)
{
    QEDM_REQUIRE(num_qubits >= 1 && num_qubits <= 24,
                 "state vector qubit count must be in [1, 24]");
    amps_.assign(std::size_t(1) << num_qubits, kZero);
    amps_[0] = kOne;
}

Complex
StateVector::amplitude(std::size_t basis) const
{
    QEDM_REQUIRE(basis < amps_.size(), "basis index out of range");
    return amps_[basis];
}

void
StateVector::reset()
{
    std::fill(amps_.begin(), amps_.end(), kZero);
    amps_[0] = kOne;
    cachedNorm_ = 1.0;
    normCacheValid_ = true;
}

void
StateVector::apply1q(const std::array<Complex, 4> &m, int q)
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    const std::size_t mask = std::size_t(1) << q;
    switch (classify1q(m)) {
      case Mat2Shape::Diagonal:
        applyDiag1q(m[0], m[3], q);
        return;
      case Mat2Shape::AntiDiagonal:
        for (std::size_t base = 0; base < amps_.size();
             base += mask << 1) {
            Complex *lo = amps_.data() + base;
            Complex *hi = lo + mask;
            for (std::size_t off = 0; off < mask; ++off) {
                const Complex a = lo[off];
                lo[off] = m[1] * hi[off];
                hi[off] = m[2] * a;
            }
        }
        break;
      case Mat2Shape::General:
        for (std::size_t base = 0; base < amps_.size();
             base += mask << 1) {
            Complex *lo = amps_.data() + base;
            Complex *hi = lo + mask;
            for (std::size_t off = 0; off < mask; ++off) {
                const Complex a = lo[off];
                const Complex b = hi[off];
                lo[off] = m[0] * a + m[1] * b;
                hi[off] = m[2] * a + m[3] * b;
            }
        }
        break;
    }
    normCacheValid_ = false;
}

void
StateVector::applyDiag1q(Complex d0, Complex d1, int q)
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    if (d0 == kOne && d1 == kOne)
        return; // identity: amplitudes (and the norm cache) unchanged
    const std::size_t mask = std::size_t(1) << q;
    if (d0 == kOne) {
        // Pure phase (Z/S/T/controlled-phase): touch only the upper
        // half of each butterfly.
        for (std::size_t base = 0; base < amps_.size();
             base += mask << 1) {
            Complex *hi = amps_.data() + base + mask;
            for (std::size_t off = 0; off < mask; ++off)
                hi[off] *= d1;
        }
    } else {
        for (std::size_t base = 0; base < amps_.size();
             base += mask << 1) {
            Complex *lo = amps_.data() + base;
            Complex *hi = lo + mask;
            for (std::size_t off = 0; off < mask; ++off) {
                lo[off] *= d0;
                hi[off] *= d1;
            }
        }
    }
    normCacheValid_ = false;
}

void
StateVector::apply2q(const std::array<Complex, 16> &m, int q0, int q1)
{
    QEDM_REQUIRE(q0 >= 0 && q0 < numQubits_ && q1 >= 0 &&
                     q1 < numQubits_ && q0 != q1,
                 "invalid two-qubit operands");
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    // Bit-interleaved group construction: expand a dense group counter
    // g over 2^(n-2) values into the base index with zeros at both
    // operand bits, visiting groups in ascending base order.
    const std::size_t groups = amps_.size() >> 2;
    const std::size_t mlo = (m0 < m1 ? m0 : m1) - 1;
    const std::size_t mhi = (m0 < m1 ? m1 : m0) - 1;
    const auto groupBase = [mlo, mhi](std::size_t g) {
        const std::size_t x = ((g & ~mlo) << 1) | (g & mlo);
        return ((x & ~mhi) << 1) | (x & mhi);
    };

    int col[4];
    Complex coeff[4];
    if (decomposeMonomial4(m, col, coeff)) {
        const bool identity_012 =
            col[0] == 0 && col[1] == 1 && col[2] == 2 &&
            coeff[0] == kOne && coeff[1] == kOne && coeff[2] == kOne;
        if (identity_012 && col[3] == 3) {
            // Controlled phase (CZ family): only |11> amplitudes move.
            if (coeff[3] == kOne)
                return; // identity
            for (std::size_t g = 0; g < groups; ++g)
                amps_[groupBase(g) | m0 | m1] *= coeff[3];
            normCacheValid_ = false;
            return;
        }
        bool permutation = true;
        for (int r = 0; r < 4; ++r)
            permutation = permutation && coeff[r] == kOne;
        if (permutation) {
            // Transpositions (CX, SWAP): swap two amplitudes/group.
            int a = -1, b = -1;
            int moved = 0;
            for (int r = 0; r < 4; ++r) {
                if (col[r] != r) {
                    ++moved;
                    if (a < 0)
                        a = r;
                    else
                        b = r;
                }
            }
            if (moved == 0)
                return; // identity permutation
            if (moved == 2 && col[a] == b && col[b] == a) {
                const std::size_t off_a =
                    (a & 2 ? m0 : 0) | (a & 1 ? m1 : 0);
                const std::size_t off_b =
                    (b & 2 ? m0 : 0) | (b & 1 ? m1 : 0);
                for (std::size_t g = 0; g < groups; ++g) {
                    const std::size_t base = groupBase(g);
                    std::swap(amps_[base | off_a], amps_[base | off_b]);
                }
                normCacheValid_ = false;
                return;
            }
        }
        // General monomial: one gathered product per row.
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t base = groupBase(g);
            const std::size_t idx[4] = {base, base | m1, base | m0,
                                        base | m0 | m1};
            const Complex v[4] = {amps_[idx[0]], amps_[idx[1]],
                                  amps_[idx[2]], amps_[idx[3]]};
            for (int r = 0; r < 4; ++r)
                amps_[idx[r]] = coeff[r] * v[col[r]];
        }
        normCacheValid_ = false;
        return;
    }

    // Dense 4x4: keep the reference accumulation order so results are
    // bit-identical to the pre-optimization engine.
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = groupBase(g);
        const std::size_t idx[4] = {base, base | m1, base | m0,
                                    base | m0 | m1};
        Complex v[4];
        for (int k = 0; k < 4; ++k)
            v[k] = amps_[idx[k]];
        for (int r = 0; r < 4; ++r) {
            Complex acc(0.0);
            for (int c = 0; c < 4; ++c)
                acc += m[r * 4 + c] * v[c];
            amps_[idx[r]] = acc;
        }
    }
    normCacheValid_ = false;
}

void
StateVector::applyGate(circuit::OpKind kind, const std::vector<int> &qubits,
                       const std::vector<double> &params)
{
    using circuit::OpKind;
    QEDM_REQUIRE(circuit::opIsUnitary(kind) && kind != OpKind::Barrier,
                 "applyGate expects a unitary gate");
    const int arity = circuit::opArity(kind);
    QEDM_REQUIRE(static_cast<int>(qubits.size()) == arity,
                 "wrong operand count");
    if (arity == 1) {
        apply1q(circuit::gateMatrix1q(kind, params), qubits[0]);
    } else if (arity == 2) {
        apply2q(circuit::gateMatrix2q(kind), qubits[0], qubits[1]);
    } else {
        throw UserError("applyGate: decompose 3-qubit gates first");
    }
}

std::size_t
StateVector::applyKraus1q(
    const std::vector<std::array<Complex, 4>> &kraus, int q, Rng &rng)
{
    QEDM_REQUIRE(!kraus.empty(), "empty Kraus set");
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    // Incremental Born sampling: p_k = || K_k |psi> ||^2 and the p_k
    // sum to the state norm (completeness), so draw r once and stop at
    // the first operator whose cumulative probability exceeds it. The
    // dominant no-event operator usually wins after one sweep. norm()
    // is served from the tracked-norm cache when the previous
    // operation was a renormalization.
    const std::size_t mask = std::size_t(1) << q;
    const double r = rng.uniform() * norm();
    double acc = 0.0;
    std::size_t pick = kraus.size() - 1;
    for (std::size_t k = 0; k + 1 < kraus.size(); ++k) {
        acc += krausProbability(amps_, kraus[k], mask);
        if (r < acc) {
            pick = k;
            break;
        }
    }
    apply1q(kraus[pick], q);
    normalize();
    return pick;
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> p(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i)
        p[i] = std::norm(amps_[i]);
    return p;
}

std::vector<double>
StateVector::cumulativeProbabilities() const
{
    std::vector<double> cum(amps_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        acc += std::norm(amps_[i]);
        cum[i] = acc;
    }
    return cum;
}

double
StateVector::probability(std::size_t basis) const
{
    QEDM_REQUIRE(basis < amps_.size(), "basis index out of range");
    return std::norm(amps_[basis]);
}

std::size_t
StateVector::sampleMeasurement(Rng &rng) const
{
    const double r = rng.uniform() * norm();
    double acc = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        acc += std::norm(amps_[i]);
        if (r < acc)
            return i;
    }
    return amps_.size() - 1;
}

double
StateVector::norm() const
{
    if (normCacheValid_)
        return cachedNorm_;
    return computeNorm();
}

double
StateVector::computeNorm() const
{
    double n = 0.0;
    for (const Complex &a : amps_)
        n += std::norm(a);
    cachedNorm_ = n;
    normCacheValid_ = true;
    return n;
}

void
StateVector::normalize()
{
    const double n = norm();
    QEDM_REQUIRE(n > 0.0, "cannot normalize a zero state");
    const double inv = 1.0 / std::sqrt(n);
    // Fuse the scaling sweep with the accumulation of the post-scale
    // norm, in linear order, so the cache holds exactly the value a
    // fresh sweep would produce.
    double post = 0.0;
    for (Complex &a : amps_) {
        a *= inv;
        post += std::norm(a);
    }
    cachedNorm_ = post;
    normCacheValid_ = true;
}

} // namespace qedm::sim
