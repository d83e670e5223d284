#include "sim/density_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/error.hpp"

namespace qedm::sim {

namespace {

using Superop1q = DensityMatrix::Superop1q;

/** Row-major 16x16 superoperator over a vectorized 4x4 block, split
 *  into real and imaginary planes: index 4 * row + col, where
 *  row/col = 2 * bit(q0) + bit(q1). */
struct Superop2q
{
    std::array<double, 256> re{};
    std::array<double, 256> im{};
};

/**
 * a * b as std::complex computes it for finite operands, (ac - bd,
 * ad + bc), without its NaN-recovery branch, so loops over it stay
 * straight (every operand here is finite). No FMA: the build turns FP
 * contraction off and this TU's SLP vectorizer with it
 * (src/sim/CMakeLists.txt).
 */
inline Complex
mul(Complex a, Complex b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/**
 * Nonzero entries of an N x N superoperator, split into real and
 * imaginary parts for the inner loop. Zero entries would only add
 * exact zeros, so dropping them keeps the result while sparse
 * factors (CX-like permutations, diagonal phases, damping) cost a
 * fraction of a dense product.
 */
template <std::size_t N>
struct Terms
{
    // Only the first n entries are read (all N * N when dense).
    std::array<std::uint8_t, N * N> out;
    std::array<std::uint8_t, N * N> in;
    std::array<double, N * N> re;
    std::array<double, N * N> im;
    std::size_t n = 0;

    /** From row-major real and imaginary planes @p mr, @p mi. */
    Terms(const double *mr, const double *mi)
    {
        // Column order: consecutive terms update different outputs,
        // so their accumulations do not chain through one slot.
        for (std::size_t i = 0; i < N; ++i) {
            for (std::size_t o = 0; o < N; ++o) {
                const double vr = mr[o * N + i];
                const double vi = mi[o * N + i];
                if (vr == 0.0 && vi == 0.0)
                    continue;
                out[n] = static_cast<std::uint8_t>(o);
                in[n] = static_cast<std::uint8_t>(i);
                re[n] = vr;
                im[n] = vi;
                ++n;
            }
        }
    }

    /** w = M v over split re/im vectors of N entries. */
    void apply(const double *vr, const double *vi, double *wr,
               double *wi) const
    {
        std::fill(wr, wr + N, 0.0);
        std::fill(wi, wi + N, 0.0);
        if (n == N * N) {
            // Dense: term t is (in t / N, out t % N), so the same
            // terms reach each output in the same order through
            // contiguous rows the compiler vectorizes across outputs
            // — the indexed loop's result, bit for bit. That holds
            // only with no multiply-add fused (mul() above), which
            // would round differently.
            for (std::size_t i = 0; i < N; ++i) {
                const double xr = vr[i];
                const double xi = vi[i];
                const double *ar = &re[i * N];
                const double *ai = &im[i * N];
                for (std::size_t o = 0; o < N; ++o) {
                    wr[o] += ar[o] * xr - ai[o] * xi;
                    wi[o] += ar[o] * xi + ai[o] * xr;
                }
            }
            return;
        }
        for (std::size_t t = 0; t < n; ++t) {
            const double xr = vr[in[t]];
            const double xi = vi[in[t]];
            wr[out[t]] += re[t] * xr - im[t] * xi;
            wi[out[t]] += re[t] * xi + im[t] * xr;
        }
    }
};

/**
 * The block sweeps carry most of a law's cost, and their dense kernel
 * runs twice as wide on AVX2. GCC builds a baseline and an AVX2 clone
 * and picks one at load time; both do the same IEEE multiplies and
 * adds per output (AVX2 has no FMA, and FP contraction is off), so the
 * bits do not depend on the host.
 */
#if defined(__x86_64__) && defined(__GNUC__)
#define QEDM_SWEEP_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define QEDM_SWEEP_CLONES
#endif

/** Next subset of @p mask after @p s (a subset of it), in increasing
 *  order; wraps to 0 after @p mask. */
inline std::size_t
nextSubset(std::size_t s, std::size_t mask)
{
    return ((s | ~mask) + 1) & mask;
}

Superop1q
identity1q()
{
    Superop1q s{};
    for (int k = 0; k < 4; ++k)
        s[k * 4 + k] = 1.0;
    return s;
}

// The superoperator builders below skip products with an exact zero
// factor where that saves work. Such a product is ±0 in both parts,
// and each sum it would join starts at +0.0 and is never -0.0 (x + y
// rounds an exact zero to +0.0), so adding it changes no bit.
// unitary2q's entries are assignments, not sums; a skipped one stays
// +0.0 where the product may have been -0.0, and every reader of them
// (Terms, withLocalFirst) drops ±0 alike.

inline bool
isZero(Complex v)
{
    return v == Complex(0.0);
}

/** Superoperator of rho -> sum_k K rho K^dagger (one K for a unitary):
 *  S[(2a+b), (2c+d)] = sum_k K[a][c] conj(K[b][d]). Each call adds
 *  one term to each entry, so the loop order is free. */
void
accumulateKraus(Superop1q &s, const std::array<Complex, 4> &k)
{
    for (int a = 0; a < 2; ++a)
        for (int c = 0; c < 2; ++c) {
            const Complex kac = k[2 * a + c];
            if (isZero(kac))
                continue;
            for (int b = 0; b < 2; ++b)
                for (int d = 0; d < 2; ++d) {
                    const Complex kbd = k[2 * b + d];
                    if (!isZero(kbd))
                        s[(2 * a + b) * 4 + (2 * c + d)] +=
                            mul(kac, std::conj(kbd));
                }
        }
}

/** a * b for 4x4 row-major superoperators (b applied first). */
Superop1q
compose(const Superop1q &a, const Superop1q &b)
{
    Superop1q c{};
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 4; ++k) {
            const Complex aik = a[i * 4 + k];
            if (isZero(aik))
                continue;
            for (int j = 0; j < 4; ++j)
                c[i * 4 + j] += mul(aik, b[k * 4 + j]);
        }
    return c;
}

/** U (x) conj(U) over a 4x4 block. */
Superop2q
unitary2q(const std::array<Complex, 16> &u)
{
    Superop2q g;
    for (int x = 0; x < 4; ++x)
        for (int xi = 0; xi < 4; ++xi) {
            const Complex ux = u[x * 4 + xi];
            if (isZero(ux))
                continue;
            for (int y = 0; y < 4; ++y)
                for (int yi = 0; yi < 4; ++yi) {
                    if (isZero(u[y * 4 + yi]))
                        continue;
                    const Complex v = mul(ux, std::conj(u[y * 4 + yi]));
                    g.re[(4 * x + y) * 16 + (4 * xi + yi)] = v.real();
                    g.im[(4 * x + y) * 16 + (4 * xi + yi)] = v.imag();
                }
        }
    return g;
}

/**
 * g * lift for lift = p0 on the q0 bit, p1 on the q1 bit, over a 4x4
 * block. Row k of lift is built once and spread over every output row
 * i with g[i][k] != 0 in one straight loop over the row, so each
 * output still sums its terms in increasing k.
 */
Superop2q
withLocalFirst(const Superop2q &g, const Superop1q &p0,
               const Superop1q &p1)
{
    Superop2q out;
    for (int k = 0; k < 16; ++k) {
        const int x = k >> 2, y = k & 3;
        const Complex *r0 = &p0[(2 * (x >> 1) + (y >> 1)) * 4];
        const Complex *r1 = &p1[(2 * (x & 1) + (y & 1)) * 4];
        double lr[16], li[16];
        for (int j = 0; j < 16; ++j) {
            const int xi = j >> 2, yi = j & 3;
            const Complex v = mul(r0[2 * (xi >> 1) + (yi >> 1)],
                                  r1[2 * (xi & 1) + (yi & 1)]);
            lr[j] = v.real();
            li[j] = v.imag();
        }
        for (int i = 0; i < 16; ++i) {
            const double gr = g.re[i * 16 + k];
            const double gi = g.im[i * 16 + k];
            if (gr == 0.0 && gi == 0.0)
                continue;
            double *orr = &out.re[i * 16];
            double *ori = &out.im[i * 16];
            for (int j = 0; j < 16; ++j) {
                orr[j] += gr * lr[j] - gi * li[j];
                ori[j] += gr * li[j] + gi * lr[j];
            }
        }
    }
    return out;
}

/**
 * One in-place pass of @p terms over every live n x n block pair of
 * rho, n = 2^k for k operand qubits; @p off holds each block
 * row/column's offset from the block base. A block base has zero
 * operand bits and zero fresh bits; its @p coherent bits range
 * freely, and its @p classical bits must agree between row and
 * column. Each block is gathered, mapped, optionally mixed toward its
 * normalized partial trace (rho -> keep * rho + mix * Tr(block) * I,
 * the closed form of depolarizing on the operands), and stored back.
 * rho stays Hermitian, so only pairs with row base <= column base are
 * computed; their adjoints are mirrored. Returns the pairs computed.
 */
template <std::size_t N>
QEDM_SWEEP_CLONES std::uint64_t
sweepBlocks(std::vector<Complex> &rho, std::size_t dim,
            std::size_t coherent, std::size_t classical,
            const std::array<std::size_t, N> &off,
            const Terms<N * N> &terms, double keep, double mix)
{
    Complex *m = rho.data();
    const std::size_t span = coherent | classical;
    std::uint64_t pairs = 0;
    for (std::size_t r = 0;; r = nextSubset(r, span)) {
        // Columns share r's classical bits; their coherent bits run
        // upward from r's, so c >= r.
        for (std::size_t s = r & coherent;; s = nextSubset(s, coherent)) {
            const std::size_t c = (r & classical) | s;
            double vr[N * N], vi[N * N], wr[N * N], wi[N * N];
            for (std::size_t x = 0; x < N; ++x) {
                for (std::size_t y = 0; y < N; ++y) {
                    const Complex e = m[(r | off[x]) * dim + (c | off[y])];
                    vr[N * x + y] = e.real();
                    vi[N * x + y] = e.imag();
                }
            }
            terms.apply(vr, vi, wr, wi);
            if (mix != 0.0) {
                double tr_re = 0.0, tr_im = 0.0;
                for (std::size_t x = 0; x < N; ++x) {
                    tr_re += wr[(N + 1) * x];
                    tr_im += wi[(N + 1) * x];
                }
                for (std::size_t k = 0; k < N * N; ++k) {
                    wr[k] *= keep;
                    wi[k] *= keep;
                }
                for (std::size_t x = 0; x < N; ++x) {
                    wr[(N + 1) * x] += mix * tr_re;
                    wi[(N + 1) * x] += mix * tr_im;
                }
            }
            for (std::size_t x = 0; x < N; ++x) {
                for (std::size_t y = 0; y < N; ++y) {
                    m[(r | off[x]) * dim + (c | off[y])] =
                        Complex(wr[N * x + y], wi[N * x + y]);
                    if (c != r)
                        m[(c | off[y]) * dim + (r | off[x])] =
                            Complex(wr[N * x + y], -wi[N * x + y]);
                }
            }
            ++pairs;
            if (s == coherent)
                break;
        }
        if (r == span)
            break;
    }
    return pairs;
}

/** Does @p s map populations (index 0, 3) to coherences (1, 2) or
 *  back? Phase-covariant channels — diagonal unitaries, damping,
 *  dephasing — do not. */
bool
couplesPopulationsAndCoherences(const Superop1q &s)
{
    for (int o = 0; o < 4; ++o) {
        for (int i = 0; i < 4; ++i) {
            const bool pop_out = o == 0 || o == 3;
            const bool pop_in = i == 0 || i == 3;
            if (pop_out != pop_in && s[o * 4 + i] != Complex(0.0))
                return true;
        }
    }
    return false;
}

/**
 * The calling thread's spare matrix buffer, zero in every entry. A
 * DensityMatrix takes it when it is large enough and hands its own
 * buffer back, refilled with +0.0, when it dies, so a thread evolving
 * law after law allocates one matrix, not one per law. The refill
 * covers all dim^2 entries: a pass also writes signed zeros (a
 * mirrored +0.0 imaginary part becomes -0.0) to entries that are dead
 * afterwards, and a later matrix must find +0.0 wherever it reads an
 * entry it never wrote. Buffers above 8 qubits (1 MB) are freed
 * instead of kept.
 */
thread_local std::vector<Complex> t_spare;
constexpr std::size_t kMaxSpareEntries = std::size_t(1) << 16;

/** A buffer of at least @p entries zeros, the spare if it fits. */
std::vector<Complex>
acquireZeroed(std::size_t entries)
{
    std::vector<Complex> buf;
    if (t_spare.size() >= entries)
        buf.swap(t_spare);
    else
        buf.assign(entries, Complex(0.0));
    return buf;
}

} // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits), dim_(std::size_t(1) << num_qubits)
{
    QEDM_REQUIRE(num_qubits >= 1 && num_qubits <= 10,
                 "density matrices are limited to 10 qubits");
    rho_ = acquireZeroed(dim_ * dim_);
    rho_[0] = Complex(1.0);
    pending_.assign(static_cast<std::size_t>(num_qubits), identity1q());
    hasPending_.assign(static_cast<std::size_t>(num_qubits), 0);
    fresh_ = dim_ - 1;
}

DensityMatrix::DensityMatrix(const DensityMatrix &other)
    : numQubits_(other.numQubits_), dim_(other.dim_),
      pending_(other.pending_), hasPending_(other.hasPending_),
      fresh_(other.fresh_), classical_(other.classical_),
      blockPairsSwept_(other.blockPairsSwept_)
{
    if (other.rho_.empty())
        return; // moved-from
    rho_ = acquireZeroed(dim_ * dim_);
    std::copy_n(other.rho_.begin(), dim_ * dim_, rho_.begin());
}

DensityMatrix &
DensityMatrix::operator=(DensityMatrix other) noexcept
{
    std::swap(numQubits_, other.numQubits_);
    std::swap(dim_, other.dim_);
    rho_.swap(other.rho_);
    pending_.swap(other.pending_);
    hasPending_.swap(other.hasPending_);
    std::swap(fresh_, other.fresh_);
    std::swap(classical_, other.classical_);
    std::swap(blockPairsSwept_, other.blockPairsSwept_);
    return *this;
}

DensityMatrix::~DensityMatrix()
{
    if (rho_.size() <= t_spare.size() || rho_.size() > kMaxSpareEntries)
        return;
    std::fill_n(rho_.begin(), dim_ * dim_, Complex(0.0));
    t_spare.swap(rho_);
}

Complex
DensityMatrix::at(std::size_t row, std::size_t col) const
{
    QEDM_REQUIRE(row < dim_ && col < dim_, "index out of range");
    flushAll();
    return rho_[row * dim_ + col];
}

void
DensityMatrix::queue(const Superop1q &s, int q)
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    QEDM_REQUIRE(!((classical_ >> q) & 1) ||
                     !couplesPopulationsAndCoherences(s),
                 "a factor that mixes populations and coherences on a "
                 "dephased qubit");
    const auto qi = static_cast<std::size_t>(q);
    pending_[qi] = hasPending_[qi] ? compose(s, pending_[qi]) : s;
    hasPending_[qi] = 1;
}

void
DensityMatrix::apply1q(const std::array<Complex, 4> &m, int q)
{
    Superop1q s{};
    accumulateKraus(s, m);
    queue(s, q);
}

void
DensityMatrix::applyKraus1q(const Kraus1q &kraus, int q)
{
    QEDM_REQUIRE(!kraus.empty(), "empty Kraus set");
    Superop1q s{};
    for (const auto &k : kraus)
        accumulateKraus(s, k);
    queue(s, q);
}

void
DensityMatrix::apply2q(const std::array<Complex, 16> &m, int q0, int q1,
                       double depol)
{
    QEDM_REQUIRE(q0 >= 0 && q0 < numQubits_ && q1 >= 0 &&
                     q1 < numQubits_ && q0 != q1,
                 "invalid two-qubit operands");
    QEDM_REQUIRE(depol >= 0.0 && depol <= 1.0,
                 "probability out of range");
    QEDM_REQUIRE(!((classical_ >> q0) & 1) && !((classical_ >> q1) & 1),
                 "two-qubit pass on a dephased qubit");
    const auto i0 = static_cast<std::size_t>(q0);
    const auto i1 = static_cast<std::size_t>(q1);
    Superop2q g = unitary2q(m);
    if (hasPending_[i0] || hasPending_[i1]) {
        g = withLocalFirst(g, pending_[i0], pending_[i1]);
        pending_[i0] = identity1q();
        pending_[i1] = identity1q();
        hasPending_[i0] = 0;
        hasPending_[i1] = 0;
    }
    // Depolarizing in closed form: (1 - 16p/15) rho +
    // (4p/15) Tr_ab(rho) (x) I_ab.
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    fresh_ &= ~(m0 | m1);
    blockPairsSwept_ += sweepBlocks<4>(
        rho_, dim_, (dim_ - 1) & ~(fresh_ | classical_ | m0 | m1),
        classical_, {0, m1, m0, m0 | m1},
        Terms<16>(g.re.data(), g.im.data()), 1.0 - 16.0 * depol / 15.0,
        4.0 * depol / 15.0);
}

void
DensityMatrix::applyGate(circuit::OpKind kind,
                         const std::vector<int> &qubits,
                         const std::vector<double> &params)
{
    using circuit::OpKind;
    QEDM_REQUIRE(circuit::opIsUnitary(kind) && kind != OpKind::Barrier,
                 "applyGate expects a unitary gate");
    const int arity = circuit::opArity(kind);
    if (arity == 1) {
        apply1q(circuit::gateMatrix1q(kind, params), qubits[0]);
    } else if (arity == 2) {
        apply2q(circuit::gateMatrix2q(kind), qubits[0], qubits[1]);
    } else {
        throw UserError("applyGate: decompose 3-qubit gates first");
    }
}

void
DensityMatrix::applyDepolarizing2q(double p, int q0, int q1)
{
    QEDM_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    std::array<Complex, 16> id{};
    for (int k = 0; k < 4; ++k)
        id[k * 5] = 1.0;
    apply2q(id, q0, q1, p);
}

void
DensityMatrix::dephase(int q)
{
    QEDM_REQUIRE(q >= 0 && q < numQubits_, "qubit index out of range");
    const std::size_t bit = std::size_t(1) << q;
    if (classical_ & bit)
        return;
    // A fresh qubit with nothing queued is |0><0|: no coherence to drop.
    if (!(fresh_ & bit) || hasPending_[static_cast<std::size_t>(q)]) {
        // Keep only the population rows of the pending factor, so the
        // flush writes exact zeros to q's coherences.
        Superop1q keep_populations{};
        keep_populations[0] = 1.0;
        keep_populations[15] = 1.0;
        queue(keep_populations, q);
        flush(q);
    }
    classical_ |= bit;
}

void
DensityMatrix::flush(int q) const
{
    const auto qi = static_cast<std::size_t>(q);
    if (!hasPending_[qi])
        return;
    const std::size_t bit = std::size_t(1) << q;
    fresh_ &= ~bit;
    // On a classical q the block's coherences are dead: they read 0
    // and, the factor being phase-covariant (queue() checks), map to 0.
    double pr[16], pi[16];
    for (int t = 0; t < 16; ++t) {
        pr[t] = pending_[qi][t].real();
        pi[t] = pending_[qi][t].imag();
    }
    blockPairsSwept_ += sweepBlocks<2>(
        rho_, dim_, (dim_ - 1) & ~(fresh_ | classical_ | bit),
        classical_ & ~bit, {0, bit}, Terms<4>(pr, pi), 1.0, 0.0);
    pending_[qi] = identity1q();
    hasPending_[qi] = 0;
}

void
DensityMatrix::flushAll() const
{
    for (int q = 0; q < numQubits_; ++q)
        flush(q);
}

std::vector<double>
DensityMatrix::probabilities() const
{
    flushAll();
    std::vector<double> p(dim_);
    for (std::size_t i = 0; i < dim_; ++i)
        p[i] = std::max(rho_[i * dim_ + i].real(), 0.0);
    return p;
}

double
DensityMatrix::trace() const
{
    flushAll();
    double t = 0.0;
    for (std::size_t i = 0; i < dim_; ++i)
        t += rho_[i * dim_ + i].real();
    return t;
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_ij rho_ij * rho_ji = sum_ij |rho_ij|^2 for
    // Hermitian rho.
    flushAll();
    double p = 0.0;
    for (std::size_t i = 0; i < dim_ * dim_; ++i)
        p += std::norm(rho_[i]);
    return p;
}

} // namespace qedm::sim
