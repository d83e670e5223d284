#include "sim/density_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace qedm::sim {

namespace {

using Superop1q = DensityMatrix::Superop1q;

/** Row-major 16x16 superoperator over a vectorized 4x4 block:
 *  index 4 * row + col, where row/col = 2 * bit(q0) + bit(q1). */
using Superop2q = std::array<Complex, 256>;

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
    std::array<std::uint8_t, N * N> out{};
    std::array<std::uint8_t, N * N> in{};
    std::array<double, N * N> re{};
    std::array<double, N * N> im{};
    std::size_t n = 0;

    explicit Terms(const std::array<Complex, N * N> &m)
    {
        // Column order: consecutive terms update different outputs,
        // so their accumulations do not chain through one slot.
        for (std::size_t i = 0; i < N; ++i) {
            for (std::size_t o = 0; o < N; ++o) {
                const Complex v = m[o * N + i];
                if (v == Complex(0.0))
                    continue;
                out[n] = static_cast<std::uint8_t>(o);
                in[n] = static_cast<std::uint8_t>(i);
                re[n] = v.real();
                im[n] = v.imag();
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
        for (std::size_t t = 0; t < n; ++t) {
            const double xr = vr[in[t]];
            const double xi = vi[in[t]];
            wr[out[t]] += re[t] * xr - im[t] * xi;
            wi[out[t]] += re[t] * xi + im[t] * xr;
        }
    }
};

/** Insert a zero bit at position @p bit of @p i. */
inline std::size_t
insertZero(std::size_t i, int bit)
{
    const std::size_t low = i & ((std::size_t(1) << bit) - 1);
    return ((i ^ low) << 1) | low;
}

Superop1q
identity1q()
{
    Superop1q s{};
    for (int k = 0; k < 4; ++k)
        s[k * 4 + k] = 1.0;
    return s;
}

/** Superoperator of rho -> sum_k K rho K^dagger (one K for a unitary):
 *  S[(2a+b), (2c+d)] = sum_k K[a][c] conj(K[b][d]). */
void
accumulateKraus(Superop1q &s, const std::array<Complex, 4> &k)
{
    for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b)
            for (int c = 0; c < 2; ++c)
                for (int d = 0; d < 2; ++d)
                    s[(2 * a + b) * 4 + (2 * c + d)] +=
                        k[2 * a + c] * std::conj(k[2 * b + d]);
}

/** a * b for 4x4 row-major superoperators (b applied first). */
Superop1q
compose(const Superop1q &a, const Superop1q &b)
{
    Superop1q c{};
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 4; ++k)
            for (int j = 0; j < 4; ++j)
                c[i * 4 + j] += a[i * 4 + k] * b[k * 4 + j];
    return c;
}

/** U (x) conj(U) over a 4x4 block. */
Superop2q
unitary2q(const std::array<Complex, 16> &u)
{
    Superop2q g{};
    for (int x = 0; x < 4; ++x)
        for (int y = 0; y < 4; ++y)
            for (int xi = 0; xi < 4; ++xi)
                for (int yi = 0; yi < 4; ++yi)
                    g[(4 * x + y) * 16 + (4 * xi + yi)] =
                        u[x * 4 + xi] * std::conj(u[y * 4 + yi]);
    return g;
}

/** g * (p0 on the q0 bit, p1 on the q1 bit) over a 4x4 block. */
Superop2q
withLocalFirst(const Superop2q &g, const Superop1q &p0,
               const Superop1q &p1)
{
    Superop2q lift{};
    for (int x = 0; x < 4; ++x)
        for (int y = 0; y < 4; ++y)
            for (int xi = 0; xi < 4; ++xi)
                for (int yi = 0; yi < 4; ++yi) {
                    const int o0 = 2 * (x >> 1) + (y >> 1);
                    const int o1 = 2 * (x & 1) + (y & 1);
                    const int i0 = 2 * (xi >> 1) + (yi >> 1);
                    const int i1 = 2 * (xi & 1) + (yi & 1);
                    lift[(4 * x + y) * 16 + (4 * xi + yi)] =
                        p0[o0 * 4 + i0] * p1[o1 * 4 + i1];
                }
    Superop2q out{};
    for (int i = 0; i < 16; ++i)
        for (int k = 0; k < 16; ++k) {
            const Complex gik = g[i * 16 + k];
            if (gik == Complex(0.0))
                continue;
            for (int j = 0; j < 16; ++j)
                out[i * 16 + j] += gik * lift[k * 16 + j];
        }
    return out;
}

/**
 * One in-place pass of @p terms over every n x n block of rho, where
 * n = 2^k for the k operand qubits at ascending bit positions @p bits
 * and @p off holds each block row/column's offset from the block base.
 * Each block is gathered, mapped, optionally mixed toward its
 * normalized partial trace (rho -> keep * rho + mix * Tr(block) * I,
 * the closed form of depolarizing on the operands), and stored back.
 * rho stays Hermitian, so only blocks on and above the block diagonal
 * are computed; their adjoints are mirrored below it.
 */
template <std::size_t N, std::size_t K>
void
sweepBlocks(std::vector<Complex> &rho, std::size_t dim,
            const std::array<int, K> &bits,
            const std::array<std::size_t, N> &off,
            const Terms<N * N> &terms, double keep, double mix)
{
    const auto base = [&](std::size_t i) {
        for (const int b : bits)
            i = insertZero(i, b);
        return i;
    };
    Complex *m = rho.data();
    const std::size_t blocks = dim / N;
    for (std::size_t i = 0; i < blocks; ++i) {
        const std::size_t r = base(i);
        for (std::size_t j = i; j < blocks; ++j) {
            const std::size_t c = base(j);
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
                    if (j != i)
                        m[(c | off[y]) * dim + (r | off[x])] =
                            Complex(wr[N * x + y], -wi[N * x + y]);
                }
            }
        }
    }
}

} // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits), dim_(std::size_t(1) << num_qubits)
{
    QEDM_REQUIRE(num_qubits >= 1 && num_qubits <= 10,
                 "density matrices are limited to 10 qubits");
    rho_.assign(dim_ * dim_, Complex(0.0));
    rho_[0] = Complex(1.0);
    pending_.assign(static_cast<std::size_t>(num_qubits), identity1q());
    hasPending_.assign(static_cast<std::size_t>(num_qubits), 0);
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
    sweepBlocks<4, 2>(rho_, dim_, {std::min(q0, q1), std::max(q0, q1)},
                      {0, m1, m0, m0 | m1}, Terms<16>(g),
                      1.0 - 16.0 * depol / 15.0, 4.0 * depol / 15.0);
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
DensityMatrix::flushAll() const
{
    for (int q = 0; q < numQubits_; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        if (!hasPending_[qi])
            continue;
        sweepBlocks<2, 1>(rho_, dim_, {q}, {0, std::size_t(1) << q},
                          Terms<4>(pending_[qi]), 1.0, 0.0);
        pending_[qi] = identity1q();
        hasPending_[qi] = 0;
    }
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
    for (const Complex &v : rho_)
        p += std::norm(v);
    return p;
}

} // namespace qedm::sim
