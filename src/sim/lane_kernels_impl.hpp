/**
 * @file
 * Single source for both lane-kernel builds (see lane_kernels.hpp).
 *
 * Included exactly twice, by lane_kernels_scalar.cpp (baseline ISA)
 * and lane_kernels_avx2.cpp (compiled with -mavx2; the whole build has
 * -ffp-contract=off);
 * the includer defines QEDM_LANE_NS to give each build its own
 * namespace. When __AVX2__ is defined the hot loops run explicit
 * 4-lane intrinsics with a plain remainder loop; otherwise the plain
 * loop covers every lane. The two builds are bit-identical: every
 * operation is an elementwise IEEE mul/add/sub on independent lanes
 * (no reassociation, no FMA), and the plain expressions below spell
 * out the exact same operand order the intrinsics use.
 *
 * Complex arithmetic is expanded over the split re/im planes using
 * the same formulas libstdc++'s std::complex lowers to for finite
 * values: (x*y).re = xr*yr - xi*yi, (x*y).im = xr*yi + xi*yr, and
 * std::norm(z) = zr*zr + zi*zi added as one addend.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "sim/lane_kernels.hpp"

#ifndef QEDM_LANE_NS
#error "define QEDM_LANE_NS before including lane_kernels_impl.hpp"
#endif

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace qedm::sim {
namespace QEDM_LANE_NS {
namespace {

/*
 * Coefficient kinds for the specialized fast paths. Gate matrices and
 * Kraus operators in this codebase are overwhelmingly real (H, X, Ry,
 * CX, damping diag(1, sqrt(1-g))), and the generic complex product
 * spends most of its multiplies on `0 * x` terms. Dropping those terms
 * can only flip the sign of a zero — `a - 0*b` differs from `a` at
 * most in zero sign — which squares (Born addends, norms) erase
 * entirely and which is inside the amplitude zero-sign license of
 * DESIGN.md §17 (amplitudes are assumed finite throughout). Both
 * builds take the same branch, so they remain mutually bit-identical.
 */
enum : int {
    kCoefOne = 0,
    kCoefReal = 1,
    kCoefComplex = 2,
    kCoefImag = 3,
};

inline int
coefKind(double cr, double ci)
{
    if (ci != 0.0)
        return kCoefComplex;
    return cr == 1.0 ? kCoefOne : kCoefReal;
}

/** Kind for a multiplication coefficient: purely-imaginary entries
 *  (RX-style over-rotations, Y) get their own two-multiply path. A
 *  zero coefficient classifies as Real — its products are zeros of
 *  some sign either way. */
inline int
mulKind(double cr, double ci)
{
    if (ci == 0.0)
        return kCoefReal;
    return cr == 0.0 ? kCoefImag : kCoefComplex;
}

/** Two coefficients sharing one fast path: mixed kinds fall back to
 *  the generic complex product. */
inline int
combineKind(int a, int b)
{
    return a == b ? a : kCoefComplex;
}

/** |c * a|^2 as the scalar chain computes it for this coefficient
 *  kind (one addend: t*t + u*u). */
template <int KIND>
inline double
normAddend(double ar, double ai, double cr, double ci)
{
    if constexpr (KIND == kCoefOne) {
        return ar * ar + ai * ai;
    } else if constexpr (KIND == kCoefReal) {
        const double t = cr * ar;
        const double u = cr * ai;
        return t * t + u * u;
    } else {
        const double t = cr * ar - ci * ai;
        const double u = cr * ai + ci * ar;
        return t * t + u * u;
    }
}

/** (c * a).re for this coefficient kind (cr*ar - ci*ai, minus the
 *  `ci*ai` term when the coefficient is real — zero-sign only). */
template <int KIND>
inline double
smulRe(double cr, double ci, double ar, double ai)
{
    if constexpr (KIND == kCoefComplex)
        return cr * ar - ci * ai;
    else if constexpr (KIND == kCoefImag)
        return -(ci * ai); // 0*ar - ci*ai, zero-sign only
    else
        return cr * ar;
}

/** (c * a).im for this coefficient kind. */
template <int KIND>
inline double
smulIm(double cr, double ci, double ar, double ai)
{
    if constexpr (KIND == kCoefComplex)
        return cr * ai + ci * ar;
    else if constexpr (KIND == kCoefImag)
        return ci * ar; // cr*ai + ci*ar with cr == 0
    else
        return cr * ai;
}

#ifdef __AVX2__

/** (a * b).re for split-complex vectors: ar*br - ai*bi. */
inline __m256d
cmulRe(__m256d ar, __m256d ai, __m256d br, __m256d bi)
{
    return _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
}

/** (a * b).im for split-complex vectors: ar*bi + ai*br. */
inline __m256d
cmulIm(__m256d ar, __m256d ai, __m256d br, __m256d bi)
{
    return _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
}

/** zr*zr + zi*zi as one addend (matches std::norm). */
inline __m256d
cnorm(__m256d zr, __m256d zi)
{
    return _mm256_add_pd(_mm256_mul_pd(zr, zr), _mm256_mul_pd(zi, zi));
}

/** Vector form of normAddend<KIND>. */
template <int KIND>
inline __m256d
vnormAddend(__m256d ar, __m256d ai, __m256d cr, __m256d ci)
{
    if constexpr (KIND == kCoefOne) {
        return cnorm(ar, ai);
    } else if constexpr (KIND == kCoefReal) {
        return cnorm(_mm256_mul_pd(cr, ar), _mm256_mul_pd(cr, ai));
    } else {
        return cnorm(cmulRe(cr, ci, ar, ai), cmulIm(cr, ci, ar, ai));
    }
}

/** Vector form of smulRe<KIND> (sign-bit xor is exact negation). */
template <int KIND>
inline __m256d
vmulRe(__m256d cr, __m256d ci, __m256d ar, __m256d ai)
{
    if constexpr (KIND == kCoefComplex)
        return cmulRe(cr, ci, ar, ai);
    else if constexpr (KIND == kCoefImag)
        return _mm256_xor_pd(_mm256_mul_pd(ci, ai),
                             _mm256_set1_pd(-0.0));
    else
        return _mm256_mul_pd(cr, ar);
}

/** Vector form of smulIm<KIND>. */
template <int KIND>
inline __m256d
vmulIm(__m256d cr, __m256d ci, __m256d ar, __m256d ai)
{
    if constexpr (KIND == kCoefComplex)
        return cmulIm(cr, ci, ar, ai);
    else if constexpr (KIND == kCoefImag)
        return _mm256_mul_pd(ci, ar);
    else
        return _mm256_mul_pd(cr, ai);
}

#endif // __AVX2__

/** Dense 2x2 sweep with separate coefficient kinds for the diagonal
 *  (m0, m3 — KD) and off-diagonal (m1, m2 — KO) entries, so e.g. an
 *  RX-style matrix (real diagonal, imaginary off-diagonal) runs on
 *  two multiplies per product instead of the full complex four. */
template <int KD, int KO>
inline void
apply1qGeneralImpl(double *re, double *im, std::size_t dim,
                   std::size_t lanes, std::size_t mask, double m0r,
                   double m0i, double m1r, double m1i, double m2r,
                   double m2i, double m3r, double m3i)
{
#ifdef __AVX2__
    const __m256d v0r = _mm256_set1_pd(m0r), v0i = _mm256_set1_pd(m0i);
    const __m256d v1r = _mm256_set1_pd(m1r), v1i = _mm256_set1_pd(m1i);
    const __m256d v2r = _mm256_set1_pd(m2r), v2i = _mm256_set1_pd(m2i);
    const __m256d v3r = _mm256_set1_pd(m3r), v3i = _mm256_set1_pd(m3i);
#endif
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            double *lor = re + (base + off) * lanes;
            double *loi = im + (base + off) * lanes;
            double *hir = re + (base + mask + off) * lanes;
            double *hii = im + (base + mask + off) * lanes;
            std::size_t l = 0;
#ifdef __AVX2__
            for (; l + 4 <= lanes; l += 4) {
                const __m256d ar = _mm256_loadu_pd(lor + l);
                const __m256d ai = _mm256_loadu_pd(loi + l);
                const __m256d br = _mm256_loadu_pd(hir + l);
                const __m256d bi = _mm256_loadu_pd(hii + l);
                _mm256_storeu_pd(
                    lor + l,
                    _mm256_add_pd(vmulRe<KD>(v0r, v0i, ar, ai),
                                  vmulRe<KO>(v1r, v1i, br, bi)));
                _mm256_storeu_pd(
                    loi + l,
                    _mm256_add_pd(vmulIm<KD>(v0r, v0i, ar, ai),
                                  vmulIm<KO>(v1r, v1i, br, bi)));
                _mm256_storeu_pd(
                    hir + l,
                    _mm256_add_pd(vmulRe<KO>(v2r, v2i, ar, ai),
                                  vmulRe<KD>(v3r, v3i, br, bi)));
                _mm256_storeu_pd(
                    hii + l,
                    _mm256_add_pd(vmulIm<KO>(v2r, v2i, ar, ai),
                                  vmulIm<KD>(v3r, v3i, br, bi)));
            }
#endif
            for (; l < lanes; ++l) {
                const double ar = lor[l], ai = loi[l];
                const double br = hir[l], bi = hii[l];
                lor[l] = smulRe<KD>(m0r, m0i, ar, ai) +
                         smulRe<KO>(m1r, m1i, br, bi);
                loi[l] = smulIm<KD>(m0r, m0i, ar, ai) +
                         smulIm<KO>(m1r, m1i, br, bi);
                hir[l] = smulRe<KO>(m2r, m2i, ar, ai) +
                         smulRe<KD>(m3r, m3i, br, bi);
                hii[l] = smulIm<KO>(m2r, m2i, ar, ai) +
                         smulIm<KD>(m3r, m3i, br, bi);
            }
        }
    }
}

void
apply1qGeneral(double *re, double *im, std::size_t dim,
               std::size_t lanes, std::size_t mask,
               const std::array<Complex, 4> &m)
{
    const double m0r = m[0].real(), m0i = m[0].imag();
    const double m1r = m[1].real(), m1i = m[1].imag();
    const double m2r = m[2].real(), m2i = m[2].imag();
    const double m3r = m[3].real(), m3i = m[3].imag();
    const int kd = combineKind(mulKind(m0r, m0i), mulKind(m3r, m3i));
    const int ko = combineKind(mulKind(m1r, m1i), mulKind(m2r, m2i));
    if (kd == kCoefReal && ko == kCoefReal) {
        apply1qGeneralImpl<kCoefReal, kCoefReal>(re, im, dim, lanes,
                                                 mask, m0r, m0i, m1r,
                                                 m1i, m2r, m2i, m3r,
                                                 m3i);
    } else if (kd == kCoefReal && ko == kCoefImag) {
        apply1qGeneralImpl<kCoefReal, kCoefImag>(re, im, dim, lanes,
                                                 mask, m0r, m0i, m1r,
                                                 m1i, m2r, m2i, m3r,
                                                 m3i);
    } else {
        apply1qGeneralImpl<kCoefComplex, kCoefComplex>(
            re, im, dim, lanes, mask, m0r, m0i, m1r, m1i, m2r, m2i,
            m3r, m3i);
    }
}

template <int KIND>
inline void
apply1qAntiDiagImpl(double *re, double *im, std::size_t dim,
                    std::size_t lanes, std::size_t mask, double m1r,
                    double m1i, double m2r, double m2i)
{
#ifdef __AVX2__
    const __m256d v1r = _mm256_set1_pd(m1r), v1i = _mm256_set1_pd(m1i);
    const __m256d v2r = _mm256_set1_pd(m2r), v2i = _mm256_set1_pd(m2i);
#endif
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            double *lor = re + (base + off) * lanes;
            double *loi = im + (base + off) * lanes;
            double *hir = re + (base + mask + off) * lanes;
            double *hii = im + (base + mask + off) * lanes;
            std::size_t l = 0;
#ifdef __AVX2__
            for (; l + 4 <= lanes; l += 4) {
                const __m256d ar = _mm256_loadu_pd(lor + l);
                const __m256d ai = _mm256_loadu_pd(loi + l);
                const __m256d br = _mm256_loadu_pd(hir + l);
                const __m256d bi = _mm256_loadu_pd(hii + l);
                _mm256_storeu_pd(lor + l,
                                 vmulRe<KIND>(v1r, v1i, br, bi));
                _mm256_storeu_pd(loi + l,
                                 vmulIm<KIND>(v1r, v1i, br, bi));
                _mm256_storeu_pd(hir + l,
                                 vmulRe<KIND>(v2r, v2i, ar, ai));
                _mm256_storeu_pd(hii + l,
                                 vmulIm<KIND>(v2r, v2i, ar, ai));
            }
#endif
            for (; l < lanes; ++l) {
                const double ar = lor[l], ai = loi[l];
                const double br = hir[l], bi = hii[l];
                lor[l] = smulRe<KIND>(m1r, m1i, br, bi);
                loi[l] = smulIm<KIND>(m1r, m1i, br, bi);
                hir[l] = smulRe<KIND>(m2r, m2i, ar, ai);
                hii[l] = smulIm<KIND>(m2r, m2i, ar, ai);
            }
        }
    }
}

void
apply1qAntiDiag(double *re, double *im, std::size_t dim,
                std::size_t lanes, std::size_t mask, Complex m1,
                Complex m2)
{
    const double m1r = m1.real(), m1i = m1.imag();
    const double m2r = m2.real(), m2i = m2.imag();
    if (m1i == 0.0 && m2i == 0.0) {
        apply1qAntiDiagImpl<kCoefReal>(re, im, dim, lanes, mask, m1r,
                                       m1i, m2r, m2i);
    } else {
        apply1qAntiDiagImpl<kCoefComplex>(re, im, dim, lanes, mask,
                                          m1r, m1i, m2r, m2i);
    }
}

void
applyDiagBoth(double *re, double *im, std::size_t dim,
              std::size_t lanes, std::size_t mask, Complex d0,
              Complex d1)
{
    const double d0r = d0.real(), d0i = d0.imag();
    const double d1r = d1.real(), d1i = d1.imag();
#ifdef __AVX2__
    const __m256d v0r = _mm256_set1_pd(d0r), v0i = _mm256_set1_pd(d0i);
    const __m256d v1r = _mm256_set1_pd(d1r), v1i = _mm256_set1_pd(d1i);
#endif
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            double *lor = re + (base + off) * lanes;
            double *loi = im + (base + off) * lanes;
            double *hir = re + (base + mask + off) * lanes;
            double *hii = im + (base + mask + off) * lanes;
            std::size_t l = 0;
#ifdef __AVX2__
            for (; l + 4 <= lanes; l += 4) {
                const __m256d ar = _mm256_loadu_pd(lor + l);
                const __m256d ai = _mm256_loadu_pd(loi + l);
                const __m256d br = _mm256_loadu_pd(hir + l);
                const __m256d bi = _mm256_loadu_pd(hii + l);
                _mm256_storeu_pd(lor + l, cmulRe(ar, ai, v0r, v0i));
                _mm256_storeu_pd(loi + l, cmulIm(ar, ai, v0r, v0i));
                _mm256_storeu_pd(hir + l, cmulRe(br, bi, v1r, v1i));
                _mm256_storeu_pd(hii + l, cmulIm(br, bi, v1r, v1i));
            }
#endif
            for (; l < lanes; ++l) {
                const double ar = lor[l], ai = loi[l];
                const double br = hir[l], bi = hii[l];
                lor[l] = ar * d0r - ai * d0i;
                loi[l] = ar * d0i + ai * d0r;
                hir[l] = br * d1r - bi * d1i;
                hii[l] = br * d1i + bi * d1r;
            }
        }
    }
}

void
applyDiagPhase(double *re, double *im, std::size_t dim,
               std::size_t lanes, std::size_t mask, Complex d1)
{
    const double d1r = d1.real(), d1i = d1.imag();
#ifdef __AVX2__
    const __m256d v1r = _mm256_set1_pd(d1r), v1i = _mm256_set1_pd(d1i);
#endif
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            double *hir = re + (base + mask + off) * lanes;
            double *hii = im + (base + mask + off) * lanes;
            std::size_t l = 0;
#ifdef __AVX2__
            for (; l + 4 <= lanes; l += 4) {
                const __m256d br = _mm256_loadu_pd(hir + l);
                const __m256d bi = _mm256_loadu_pd(hii + l);
                _mm256_storeu_pd(hir + l, cmulRe(br, bi, v1r, v1i));
                _mm256_storeu_pd(hii + l, cmulIm(br, bi, v1r, v1i));
            }
#endif
            for (; l < lanes; ++l) {
                const double br = hir[l], bi = hii[l];
                hir[l] = br * d1r - bi * d1i;
                hii[l] = br * d1i + bi * d1r;
            }
        }
    }
}

void
apply1qPerLane(double *re, double *im, std::size_t dim,
               std::size_t lanes, std::size_t mask, const LaneMat2 &m)
{
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            double *lor = re + (base + off) * lanes;
            double *loi = im + (base + off) * lanes;
            double *hir = re + (base + mask + off) * lanes;
            double *hii = im + (base + mask + off) * lanes;
            std::size_t l = 0;
#ifdef __AVX2__
            for (; l + 4 <= lanes; l += 4) {
                const __m256d ar = _mm256_loadu_pd(lor + l);
                const __m256d ai = _mm256_loadu_pd(loi + l);
                const __m256d br = _mm256_loadu_pd(hir + l);
                const __m256d bi = _mm256_loadu_pd(hii + l);
                const __m256d v0r = _mm256_loadu_pd(m.re[0] + l);
                const __m256d v0i = _mm256_loadu_pd(m.im[0] + l);
                const __m256d v1r = _mm256_loadu_pd(m.re[1] + l);
                const __m256d v1i = _mm256_loadu_pd(m.im[1] + l);
                const __m256d v2r = _mm256_loadu_pd(m.re[2] + l);
                const __m256d v2i = _mm256_loadu_pd(m.im[2] + l);
                const __m256d v3r = _mm256_loadu_pd(m.re[3] + l);
                const __m256d v3i = _mm256_loadu_pd(m.im[3] + l);
                _mm256_storeu_pd(
                    lor + l, _mm256_add_pd(cmulRe(v0r, v0i, ar, ai),
                                           cmulRe(v1r, v1i, br, bi)));
                _mm256_storeu_pd(
                    loi + l, _mm256_add_pd(cmulIm(v0r, v0i, ar, ai),
                                           cmulIm(v1r, v1i, br, bi)));
                _mm256_storeu_pd(
                    hir + l, _mm256_add_pd(cmulRe(v2r, v2i, ar, ai),
                                           cmulRe(v3r, v3i, br, bi)));
                _mm256_storeu_pd(
                    hii + l, _mm256_add_pd(cmulIm(v2r, v2i, ar, ai),
                                           cmulIm(v3r, v3i, br, bi)));
            }
#endif
            for (; l < lanes; ++l) {
                const double ar = lor[l], ai = loi[l];
                const double br = hir[l], bi = hii[l];
                const double m0r = m.re[0][l], m0i = m.im[0][l];
                const double m1r = m.re[1][l], m1i = m.im[1][l];
                const double m2r = m.re[2][l], m2i = m.im[2][l];
                const double m3r = m.re[3][l], m3i = m.im[3][l];
                lor[l] = (m0r * ar - m0i * ai) + (m1r * br - m1i * bi);
                loi[l] = (m0r * ai + m0i * ar) + (m1r * bi + m1i * br);
                hir[l] = (m2r * ar - m2i * ai) + (m3r * br - m3i * bi);
                hii[l] = (m2r * ai + m2i * ar) + (m3r * bi + m3i * br);
            }
        }
    }
}

/*
 * The accumulating kernels below (Born probabilities and norms) carry
 * one serial add chain per lane — the scalar summation order is part
 * of the bit-identity contract, so the chain cannot be reassociated.
 * What CAN move is scheduling: the AVX2 builds hold the accumulators
 * in registers across the whole row loop and interleave several
 * independent lane-vector chains per tile (NV vectors = NV * 4 lanes),
 * hiding the add latency without changing any lane's addend order.
 */

#ifdef __AVX2__

template <int NV, int K0, int K3>
inline void
krausProbDiagTile(const double *re, const double *im, std::size_t dim,
                  std::size_t lanes, std::size_t mask, __m256d v0r,
                  __m256d v0i, __m256d v3r, __m256d v3i, double *out)
{
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_setzero_pd();
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            const double *lor = re + (base + off) * lanes;
            const double *loi = im + (base + off) * lanes;
            const double *hir = re + (base + mask + off) * lanes;
            const double *hii = im + (base + mask + off) * lanes;
            for (int v = 0; v < NV; ++v) {
                const __m256d ar = _mm256_loadu_pd(lor + 4 * v);
                const __m256d ai = _mm256_loadu_pd(loi + 4 * v);
                acc[v] = _mm256_add_pd(
                    acc[v], vnormAddend<K0>(ar, ai, v0r, v0i));
            }
            for (int v = 0; v < NV; ++v) {
                const __m256d br = _mm256_loadu_pd(hir + 4 * v);
                const __m256d bi = _mm256_loadu_pd(hii + 4 * v);
                acc[v] = _mm256_add_pd(
                    acc[v], vnormAddend<K3>(br, bi, v3r, v3i));
            }
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(out + 4 * v, acc[v]);
}

#endif // __AVX2__

template <int K0, int K3>
inline void
krausProbDiagImpl(const double *re, const double *im, std::size_t dim,
                  std::size_t lanes, std::size_t mask, double m0r,
                  double m0i, double m3r, double m3i, double *out)
{
    std::size_t l = 0;
#ifdef __AVX2__
    const __m256d v0r = _mm256_set1_pd(m0r), v0i = _mm256_set1_pd(m0i);
    const __m256d v3r = _mm256_set1_pd(m3r), v3i = _mm256_set1_pd(m3i);
    for (; l + 16 <= lanes; l += 16)
        krausProbDiagTile<4, K0, K3>(re + l, im + l, dim, lanes, mask,
                                     v0r, v0i, v3r, v3i, out + l);
    for (; l + 4 <= lanes; l += 4)
        krausProbDiagTile<1, K0, K3>(re + l, im + l, dim, lanes, mask,
                                     v0r, v0i, v3r, v3i, out + l);
#endif
    for (; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t off = 0; off < mask; ++off) {
                acc += normAddend<K0>(re[(base + off) * lanes + l],
                                      im[(base + off) * lanes + l],
                                      m0r, m0i);
                acc += normAddend<K3>(
                    re[(base + mask + off) * lanes + l],
                    im[(base + mask + off) * lanes + l], m3r, m3i);
            }
        }
        out[l] = acc;
    }
}

void
krausProbDiag(const double *re, const double *im, std::size_t dim,
              std::size_t lanes, std::size_t mask, Complex m0,
              Complex m3, double *out)
{
    const double m0r = m0.real(), m0i = m0.imag();
    const double m3r = m3.real(), m3i = m3.imag();
    const int k0 = coefKind(m0r, m0i);
    const int k3 = coefKind(m3r, m3i);
    if (k0 == kCoefOne && k3 != kCoefComplex) {
        krausProbDiagImpl<kCoefOne, kCoefReal>(re, im, dim, lanes,
                                               mask, m0r, m0i, m3r,
                                               m3i, out);
    } else if (k0 != kCoefComplex && k3 != kCoefComplex) {
        krausProbDiagImpl<kCoefReal, kCoefReal>(re, im, dim, lanes,
                                                mask, m0r, m0i, m3r,
                                                m3i, out);
    } else {
        krausProbDiagImpl<kCoefComplex, kCoefComplex>(
            re, im, dim, lanes, mask, m0r, m0i, m3r, m3i, out);
    }
}

#ifdef __AVX2__

template <int NV, int K1, int K2>
inline void
krausProbAntiDiagTile(const double *re, const double *im,
                      std::size_t dim, std::size_t lanes,
                      std::size_t mask, __m256d v1r, __m256d v1i,
                      __m256d v2r, __m256d v2i, double *out)
{
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_setzero_pd();
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            const double *lor = re + (base + off) * lanes;
            const double *loi = im + (base + off) * lanes;
            const double *hir = re + (base + mask + off) * lanes;
            const double *hii = im + (base + mask + off) * lanes;
            for (int v = 0; v < NV; ++v) {
                const __m256d br = _mm256_loadu_pd(hir + 4 * v);
                const __m256d bi = _mm256_loadu_pd(hii + 4 * v);
                acc[v] = _mm256_add_pd(
                    acc[v], vnormAddend<K1>(br, bi, v1r, v1i));
            }
            for (int v = 0; v < NV; ++v) {
                const __m256d ar = _mm256_loadu_pd(lor + 4 * v);
                const __m256d ai = _mm256_loadu_pd(loi + 4 * v);
                acc[v] = _mm256_add_pd(
                    acc[v], vnormAddend<K2>(ar, ai, v2r, v2i));
            }
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(out + 4 * v, acc[v]);
}

#endif // __AVX2__

template <int K1, int K2>
inline void
krausProbAntiDiagImpl(const double *re, const double *im,
                      std::size_t dim, std::size_t lanes,
                      std::size_t mask, double m1r, double m1i,
                      double m2r, double m2i, double *out)
{
    std::size_t l = 0;
#ifdef __AVX2__
    const __m256d v1r = _mm256_set1_pd(m1r), v1i = _mm256_set1_pd(m1i);
    const __m256d v2r = _mm256_set1_pd(m2r), v2i = _mm256_set1_pd(m2i);
    for (; l + 16 <= lanes; l += 16)
        krausProbAntiDiagTile<4, K1, K2>(re + l, im + l, dim, lanes,
                                         mask, v1r, v1i, v2r, v2i,
                                         out + l);
    for (; l + 4 <= lanes; l += 4)
        krausProbAntiDiagTile<1, K1, K2>(re + l, im + l, dim, lanes,
                                         mask, v1r, v1i, v2r, v2i,
                                         out + l);
#endif
    for (; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t off = 0; off < mask; ++off) {
                acc += normAddend<K1>(
                    re[(base + mask + off) * lanes + l],
                    im[(base + mask + off) * lanes + l], m1r, m1i);
                acc += normAddend<K2>(re[(base + off) * lanes + l],
                                      im[(base + off) * lanes + l],
                                      m2r, m2i);
            }
        }
        out[l] = acc;
    }
}

void
krausProbAntiDiag(const double *re, const double *im, std::size_t dim,
                  std::size_t lanes, std::size_t mask, Complex m1,
                  Complex m2, double *out)
{
    const double m1r = m1.real(), m1i = m1.imag();
    const double m2r = m2.real(), m2i = m2.imag();
    if (m1i == 0.0 && m2i == 0.0) {
        krausProbAntiDiagImpl<kCoefReal, kCoefReal>(
            re, im, dim, lanes, mask, m1r, m1i, m2r, m2i, out);
    } else {
        krausProbAntiDiagImpl<kCoefComplex, kCoefComplex>(
            re, im, dim, lanes, mask, m1r, m1i, m2r, m2i, out);
    }
}

#ifdef __AVX2__

template <int NV>
inline void
krausProbGeneralTile(const double *re, const double *im,
                     std::size_t dim, std::size_t lanes,
                     std::size_t mask, const __m256d *vm, double *out)
{
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_setzero_pd();
    for (std::size_t base = 0; base < dim; base += mask << 1) {
        for (std::size_t off = 0; off < mask; ++off) {
            const double *lor = re + (base + off) * lanes;
            const double *loi = im + (base + off) * lanes;
            const double *hir = re + (base + mask + off) * lanes;
            const double *hii = im + (base + mask + off) * lanes;
            for (int v = 0; v < NV; ++v) {
                const __m256d ar = _mm256_loadu_pd(lor + 4 * v);
                const __m256d ai = _mm256_loadu_pd(loi + 4 * v);
                const __m256d br = _mm256_loadu_pd(hir + 4 * v);
                const __m256d bi = _mm256_loadu_pd(hii + 4 * v);
                const __m256d sr =
                    _mm256_add_pd(cmulRe(vm[0], vm[1], ar, ai),
                                  cmulRe(vm[2], vm[3], br, bi));
                const __m256d si =
                    _mm256_add_pd(cmulIm(vm[0], vm[1], ar, ai),
                                  cmulIm(vm[2], vm[3], br, bi));
                acc[v] = _mm256_add_pd(acc[v], cnorm(sr, si));
                const __m256d tr =
                    _mm256_add_pd(cmulRe(vm[4], vm[5], ar, ai),
                                  cmulRe(vm[6], vm[7], br, bi));
                const __m256d ti =
                    _mm256_add_pd(cmulIm(vm[4], vm[5], ar, ai),
                                  cmulIm(vm[6], vm[7], br, bi));
                acc[v] = _mm256_add_pd(acc[v], cnorm(tr, ti));
            }
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(out + 4 * v, acc[v]);
}

#endif // __AVX2__

void
krausProbGeneral(const double *re, const double *im, std::size_t dim,
                 std::size_t lanes, std::size_t mask,
                 const std::array<Complex, 4> &m, double *out)
{
    const double m0r = m[0].real(), m0i = m[0].imag();
    const double m1r = m[1].real(), m1i = m[1].imag();
    const double m2r = m[2].real(), m2i = m[2].imag();
    const double m3r = m[3].real(), m3i = m[3].imag();
    std::size_t l = 0;
#ifdef __AVX2__
    const __m256d vm[8] = {
        _mm256_set1_pd(m0r), _mm256_set1_pd(m0i), _mm256_set1_pd(m1r),
        _mm256_set1_pd(m1i), _mm256_set1_pd(m2r), _mm256_set1_pd(m2i),
        _mm256_set1_pd(m3r), _mm256_set1_pd(m3i)};
    for (; l + 8 <= lanes; l += 8)
        krausProbGeneralTile<2>(re + l, im + l, dim, lanes, mask, vm,
                                out + l);
    for (; l + 4 <= lanes; l += 4)
        krausProbGeneralTile<1>(re + l, im + l, dim, lanes, mask, vm,
                                out + l);
#endif
    for (; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t base = 0; base < dim; base += mask << 1) {
            for (std::size_t off = 0; off < mask; ++off) {
                const double ar = re[(base + off) * lanes + l];
                const double ai = im[(base + off) * lanes + l];
                const double br = re[(base + mask + off) * lanes + l];
                const double bi = im[(base + mask + off) * lanes + l];
                const double sr =
                    (m0r * ar - m0i * ai) + (m1r * br - m1i * bi);
                const double si =
                    (m0r * ai + m0i * ar) + (m1r * bi + m1i * br);
                acc += sr * sr + si * si;
                const double tr =
                    (m2r * ar - m2i * ai) + (m3r * br - m3i * bi);
                const double ti =
                    (m2r * ai + m2i * ar) + (m3r * bi + m3i * br);
                acc += tr * tr + ti * ti;
            }
        }
        out[l] = acc;
    }
}

#ifdef __AVX2__

template <int NV>
inline void
computeNormsTile(const double *re, const double *im, std::size_t dim,
                 std::size_t lanes, double *out)
{
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
        const double *r = re + i * lanes;
        const double *m = im + i * lanes;
        for (int v = 0; v < NV; ++v) {
            const __m256d vr = _mm256_loadu_pd(r + 4 * v);
            const __m256d vi = _mm256_loadu_pd(m + 4 * v);
            acc[v] = _mm256_add_pd(acc[v], cnorm(vr, vi));
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(out + 4 * v, acc[v]);
}

#endif // __AVX2__

void
computeNorms(const double *re, const double *im, std::size_t dim,
             std::size_t lanes, double *out)
{
    std::size_t l = 0;
#ifdef __AVX2__
    for (; l + 16 <= lanes; l += 16)
        computeNormsTile<4>(re + l, im + l, dim, lanes, out + l);
    for (; l + 4 <= lanes; l += 4)
        computeNormsTile<1>(re + l, im + l, dim, lanes, out + l);
#endif
    for (; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            const double r = re[i * lanes + l];
            const double m = im[i * lanes + l];
            acc += r * r + m * m;
        }
        out[l] = acc;
    }
}

#ifdef __AVX2__

template <int NV, int AKIND>
inline void
normalizeFusedTile(double *re, double *im, std::size_t dim,
                   std::size_t lanes, const double *inv,
                   std::size_t amask, Complex ad1, double *post)
{
    const __m256d adr = _mm256_set1_pd(ad1.real());
    const __m256d adi = _mm256_set1_pd(ad1.imag());
    __m256d vinv[NV], acc[NV];
    for (int v = 0; v < NV; ++v) {
        vinv[v] = _mm256_loadu_pd(inv + 4 * v);
        acc[v] = _mm256_setzero_pd();
    }
    for (std::size_t i = 0; i < dim; ++i) {
        const bool ap = AKIND != kCoefOne && (i & amask) != 0;
        double *r = re + i * lanes;
        double *m = im + i * lanes;
        for (int v = 0; v < NV; ++v) {
            __m256d ar = _mm256_loadu_pd(r + 4 * v);
            __m256d ai = _mm256_loadu_pd(m + 4 * v);
            if (ap) {
                // Deferred pick: rounds exactly as the separate apply
                // sweep would have stored before the scale.
                const __m256d tr = vmulRe<AKIND>(adr, adi, ar, ai);
                const __m256d ti = vmulIm<AKIND>(adr, adi, ar, ai);
                ar = tr;
                ai = ti;
            }
            const __m256d vr = _mm256_mul_pd(ar, vinv[v]);
            const __m256d vi = _mm256_mul_pd(ai, vinv[v]);
            _mm256_storeu_pd(r + 4 * v, vr);
            _mm256_storeu_pd(m + 4 * v, vi);
            acc[v] = _mm256_add_pd(acc[v], cnorm(vr, vi));
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(post + 4 * v, acc[v]);
}

#endif // __AVX2__

template <int AKIND>
inline void
normalizeFusedImpl(double *re, double *im, std::size_t dim,
                   std::size_t lanes, const double *inv,
                   std::size_t amask, Complex ad1, double *post)
{
    std::size_t l = 0;
#ifdef __AVX2__
    for (; l + 16 <= lanes; l += 16)
        normalizeFusedTile<4, AKIND>(re + l, im + l, dim, lanes,
                                     inv + l, amask, ad1, post + l);
    for (; l + 4 <= lanes; l += 4)
        normalizeFusedTile<1, AKIND>(re + l, im + l, dim, lanes,
                                     inv + l, amask, ad1, post + l);
#endif
    const double adr = ad1.real();
    const double adi = ad1.imag();
    for (; l < lanes; ++l) {
        const double s = inv[l];
        double acc = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            double &r = re[i * lanes + l];
            double &m = im[i * lanes + l];
            double ar = r;
            double ai = m;
            if (AKIND != kCoefOne && (i & amask) != 0) {
                const double tr = smulRe<AKIND>(adr, adi, ar, ai);
                const double ti = smulIm<AKIND>(adr, adi, ar, ai);
                ar = tr;
                ai = ti;
            }
            r = ar * s;
            m = ai * s;
            acc += r * r + m * m;
        }
        post[l] = acc;
    }
}

void
normalizeFused(double *re, double *im, std::size_t dim,
               std::size_t lanes, const double *inv,
               std::size_t applyMask, Complex applyD1, double *post)
{
    const int ak = applyMask == 0 ? kCoefOne
                                  : coefKind(applyD1.real(),
                                             applyD1.imag());
    switch (ak) {
    case kCoefOne:
        // Multiplying by exactly 1.0 is identity bitwise, so skipping
        // the factor is exact (not merely zero-sign licensed).
        normalizeFusedImpl<kCoefOne>(re, im, dim, lanes, inv,
                                     applyMask, applyD1, post);
        break;
    case kCoefReal:
        normalizeFusedImpl<kCoefReal>(re, im, dim, lanes, inv,
                                      applyMask, applyD1, post);
        break;
    default:
        normalizeFusedImpl<kCoefComplex>(re, im, dim, lanes, inv,
                                         applyMask, applyD1, post);
        break;
    }
}

#ifdef __AVX2__

template <int NV, int KIND>
inline void
applyDiagPhaseNormTile(double *re, double *im, std::size_t dim,
                       std::size_t lanes, std::size_t mask,
                       __m256d v1r, __m256d v1i, double *out)
{
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
        double *r = re + i * lanes;
        double *m = im + i * lanes;
        if (i & mask) {
            for (int v = 0; v < NV; ++v) {
                const __m256d br = _mm256_loadu_pd(r + 4 * v);
                const __m256d bi = _mm256_loadu_pd(m + 4 * v);
                const __m256d nr = vmulRe<KIND>(v1r, v1i, br, bi);
                const __m256d ni = vmulIm<KIND>(v1r, v1i, br, bi);
                _mm256_storeu_pd(r + 4 * v, nr);
                _mm256_storeu_pd(m + 4 * v, ni);
                acc[v] = _mm256_add_pd(acc[v], cnorm(nr, ni));
            }
        } else {
            for (int v = 0; v < NV; ++v) {
                const __m256d vr = _mm256_loadu_pd(r + 4 * v);
                const __m256d vi = _mm256_loadu_pd(m + 4 * v);
                acc[v] = _mm256_add_pd(acc[v], cnorm(vr, vi));
            }
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(out + 4 * v, acc[v]);
}

#endif // __AVX2__

template <int KIND>
inline void
applyDiagPhaseNormImpl(double *re, double *im, std::size_t dim,
                       std::size_t lanes, std::size_t mask, double d1r,
                       double d1i, double *out)
{
    std::size_t l = 0;
#ifdef __AVX2__
    const __m256d v1r = _mm256_set1_pd(d1r), v1i = _mm256_set1_pd(d1i);
    for (; l + 16 <= lanes; l += 16)
        applyDiagPhaseNormTile<4, KIND>(re + l, im + l, dim, lanes,
                                        mask, v1r, v1i, out + l);
    for (; l + 4 <= lanes; l += 4)
        applyDiagPhaseNormTile<1, KIND>(re + l, im + l, dim, lanes,
                                        mask, v1r, v1i, out + l);
#endif
    for (; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            double &r = re[i * lanes + l];
            double &m = im[i * lanes + l];
            if (i & mask) {
                const double br = r, bi = m;
                r = smulRe<KIND>(d1r, d1i, br, bi);
                m = smulIm<KIND>(d1r, d1i, br, bi);
            }
            acc += r * r + m * m;
        }
        out[l] = acc;
    }
}

void
applyDiagPhaseNorm(double *re, double *im, std::size_t dim,
                   std::size_t lanes, std::size_t mask, Complex d1,
                   double *out)
{
    const double d1r = d1.real(), d1i = d1.imag();
    if (d1i == 0.0) {
        applyDiagPhaseNormImpl<kCoefReal>(re, im, dim, lanes, mask,
                                          d1r, d1i, out);
    } else {
        applyDiagPhaseNormImpl<kCoefComplex>(re, im, dim, lanes, mask,
                                             d1r, d1i, out);
    }
}

#ifdef __AVX2__

template <int NV, int KIND>
inline void
applyDiagBothNormTile(double *re, double *im, std::size_t dim,
                      std::size_t lanes, std::size_t mask, __m256d v0r,
                      __m256d v0i, __m256d v1r, __m256d v1i,
                      double *out)
{
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
        double *r = re + i * lanes;
        double *m = im + i * lanes;
        const __m256d dr = (i & mask) ? v1r : v0r;
        const __m256d di = (i & mask) ? v1i : v0i;
        for (int v = 0; v < NV; ++v) {
            const __m256d ar = _mm256_loadu_pd(r + 4 * v);
            const __m256d ai = _mm256_loadu_pd(m + 4 * v);
            const __m256d nr = vmulRe<KIND>(dr, di, ar, ai);
            const __m256d ni = vmulIm<KIND>(dr, di, ar, ai);
            _mm256_storeu_pd(r + 4 * v, nr);
            _mm256_storeu_pd(m + 4 * v, ni);
            acc[v] = _mm256_add_pd(acc[v], cnorm(nr, ni));
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_pd(out + 4 * v, acc[v]);
}

#endif // __AVX2__

template <int KIND>
inline void
applyDiagBothNormImpl(double *re, double *im, std::size_t dim,
                      std::size_t lanes, std::size_t mask, double d0r,
                      double d0i, double d1r, double d1i, double *out)
{
    std::size_t l = 0;
#ifdef __AVX2__
    const __m256d v0r = _mm256_set1_pd(d0r), v0i = _mm256_set1_pd(d0i);
    const __m256d v1r = _mm256_set1_pd(d1r), v1i = _mm256_set1_pd(d1i);
    for (; l + 16 <= lanes; l += 16)
        applyDiagBothNormTile<4, KIND>(re + l, im + l, dim, lanes,
                                       mask, v0r, v0i, v1r, v1i,
                                       out + l);
    for (; l + 4 <= lanes; l += 4)
        applyDiagBothNormTile<1, KIND>(re + l, im + l, dim, lanes,
                                       mask, v0r, v0i, v1r, v1i,
                                       out + l);
#endif
    for (; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            double &r = re[i * lanes + l];
            double &m = im[i * lanes + l];
            const double sr = (i & mask) ? d1r : d0r;
            const double si = (i & mask) ? d1i : d0i;
            const double ar = r, ai = m;
            r = smulRe<KIND>(sr, si, ar, ai);
            m = smulIm<KIND>(sr, si, ar, ai);
            acc += r * r + m * m;
        }
        out[l] = acc;
    }
}

void
applyDiagBothNorm(double *re, double *im, std::size_t dim,
                  std::size_t lanes, std::size_t mask, Complex d0,
                  Complex d1, double *out)
{
    const double d0r = d0.real(), d0i = d0.imag();
    const double d1r = d1.real(), d1i = d1.imag();
    if (d0i == 0.0 && d1i == 0.0) {
        applyDiagBothNormImpl<kCoefReal>(re, im, dim, lanes, mask, d0r,
                                         d0i, d1r, d1i, out);
    } else {
        applyDiagBothNormImpl<kCoefComplex>(re, im, dim, lanes, mask,
                                            d0r, d0i, d1r, d1i, out);
    }
}

/*
 * Fused norm + Born-probability sweeps. Both kernels iterate rows
 * LINEARLY (the norm/post chain order) while reconstructing the
 * probability chain's pair order — lo(0), hi(0), lo(1), hi(1), ... per
 * 2*mask block — by parking each lo-row addend in lobuf[off][lane]
 * until the matching hi row arrives. Within a block the lo rows all
 * precede the hi rows in linear order, so every buffered addend is
 * written before it is read, and blocks reuse the same buffer slots.
 * The lo probability addend for a diag(1, d1) operator is |amp|^2 —
 * the exact double the norm chain adds — so it is computed once and
 * shared (for a complex-dispatch krausProbDiag the lo addend differs
 * only in signs of zeros before squaring, which the square erases).
 *
 * Both kernels also emit n1: the linear-order norm of the state
 * diag(1, d1) WOULD leave behind. Its addends are the probability
 * chain's addends (lo rows untouched by the operator contribute
 * their plain |amp|^2; hi rows contribute |d1 * amp|^2, computed
 * once and fed to both accumulators), but summed in computeNorms row
 * order — exactly the norm the scalar path reads back after storing
 * the applied amplitudes. When the site then picks that operator,
 * renormalization can start from n1 without any fresh sweep.
 */

#ifdef __AVX2__

template <int NV, int KIND>
inline void
normsProbDiagTile(const double *re, const double *im, std::size_t dim,
                  std::size_t lanes, std::size_t mask, __m256d dr,
                  __m256d di, double *norms, double *prob, double *n1,
                  double *lobuf)
{
    __m256d nacc[NV], pacc[NV], sacc[NV];
    for (int v = 0; v < NV; ++v) {
        nacc[v] = _mm256_setzero_pd();
        pacc[v] = _mm256_setzero_pd();
        sacc[v] = _mm256_setzero_pd();
    }
    for (std::size_t i = 0; i < dim; ++i) {
        const double *r = re + i * lanes;
        const double *m = im + i * lanes;
        double *buf = lobuf + (i & (mask - 1)) * lanes;
        if (i & mask) {
            for (int v = 0; v < NV; ++v) {
                const __m256d ar = _mm256_loadu_pd(r + 4 * v);
                const __m256d ai = _mm256_loadu_pd(m + 4 * v);
                const __m256d h = vnormAddend<KIND>(ar, ai, dr, di);
                nacc[v] = _mm256_add_pd(nacc[v], cnorm(ar, ai));
                sacc[v] = _mm256_add_pd(sacc[v], h);
                pacc[v] = _mm256_add_pd(pacc[v],
                                        _mm256_loadu_pd(buf + 4 * v));
                pacc[v] = _mm256_add_pd(pacc[v], h);
            }
        } else {
            for (int v = 0; v < NV; ++v) {
                const __m256d ar = _mm256_loadu_pd(r + 4 * v);
                const __m256d ai = _mm256_loadu_pd(m + 4 * v);
                const __m256d t = cnorm(ar, ai);
                nacc[v] = _mm256_add_pd(nacc[v], t);
                sacc[v] = _mm256_add_pd(sacc[v], t);
                _mm256_storeu_pd(buf + 4 * v, t);
            }
        }
    }
    for (int v = 0; v < NV; ++v) {
        _mm256_storeu_pd(norms + 4 * v, nacc[v]);
        _mm256_storeu_pd(prob + 4 * v, pacc[v]);
        _mm256_storeu_pd(n1 + 4 * v, sacc[v]);
    }
}

#endif // __AVX2__

template <int KIND>
inline void
normsProbDiagImpl(const double *re, const double *im, std::size_t dim,
                  std::size_t lanes, std::size_t mask, double d1r,
                  double d1i, double *norms, double *prob, double *n1,
                  double *lobuf)
{
    std::size_t l = 0;
#ifdef __AVX2__
    // Three accumulator arrays per vector slot: NV=2 keeps them all
    // in registers (NV=4 spills and costs more than it saves).
    const __m256d dr = _mm256_set1_pd(d1r), di = _mm256_set1_pd(d1i);
    for (; l + 8 <= lanes; l += 8)
        normsProbDiagTile<2, KIND>(re + l, im + l, dim, lanes, mask,
                                   dr, di, norms + l, prob + l, n1 + l,
                                   lobuf + l);
    for (; l + 4 <= lanes; l += 4)
        normsProbDiagTile<1, KIND>(re + l, im + l, dim, lanes, mask,
                                   dr, di, norms + l, prob + l, n1 + l,
                                   lobuf + l);
#endif
    for (; l < lanes; ++l) {
        double nacc = 0.0, pacc = 0.0, sacc = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            const double r = re[i * lanes + l];
            const double m = im[i * lanes + l];
            const double t = r * r + m * m;
            nacc += t;
            double &buf = lobuf[(i & (mask - 1)) * lanes + l];
            if (i & mask) {
                const double h = normAddend<KIND>(r, m, d1r, d1i);
                sacc += h;
                pacc += buf;
                pacc += h;
            } else {
                sacc += t;
                buf = t;
            }
        }
        norms[l] = nacc;
        prob[l] = pacc;
        n1[l] = sacc;
    }
}

void
normsProbDiag(const double *re, const double *im, std::size_t dim,
              std::size_t lanes, std::size_t mask, Complex d1,
              double *norms, double *prob, double *n1, double *lobuf)
{
    const double d1r = d1.real(), d1i = d1.imag();
    if (d1i == 0.0) {
        normsProbDiagImpl<kCoefReal>(re, im, dim, lanes, mask, d1r,
                                     d1i, norms, prob, n1, lobuf);
    } else {
        normsProbDiagImpl<kCoefComplex>(re, im, dim, lanes, mask, d1r,
                                        d1i, norms, prob, n1, lobuf);
    }
}

#ifdef __AVX2__

template <int NV, int AKIND, int KIND>
inline void
normalizeProbDiagTile(double *re, double *im, std::size_t dim,
                      std::size_t lanes, const double *inv,
                      std::size_t amask, __m256d adr, __m256d adi,
                      std::size_t mask, __m256d dr, __m256d di,
                      double *post, double *prob, double *n1,
                      double *lobuf)
{
    __m256d vinv[NV], nacc[NV], pacc[NV], sacc[NV];
    for (int v = 0; v < NV; ++v) {
        vinv[v] = _mm256_loadu_pd(inv + 4 * v);
        nacc[v] = _mm256_setzero_pd();
        pacc[v] = _mm256_setzero_pd();
        sacc[v] = _mm256_setzero_pd();
    }
    for (std::size_t i = 0; i < dim; ++i) {
        double *r = re + i * lanes;
        double *m = im + i * lanes;
        double *buf = lobuf + (i & (mask - 1)) * lanes;
        const bool ap = AKIND != kCoefOne && (i & amask) != 0;
        for (int v = 0; v < NV; ++v) {
            __m256d ar = _mm256_loadu_pd(r + 4 * v);
            __m256d ai = _mm256_loadu_pd(m + 4 * v);
            if (ap) {
                // Deferred pick: a*applyD1 rounds here exactly as the
                // separate apply sweep would have stored it.
                const __m256d tr = vmulRe<AKIND>(adr, adi, ar, ai);
                const __m256d ti = vmulIm<AKIND>(adr, adi, ar, ai);
                ar = tr;
                ai = ti;
            }
            const __m256d vr = _mm256_mul_pd(ar, vinv[v]);
            const __m256d vi = _mm256_mul_pd(ai, vinv[v]);
            _mm256_storeu_pd(r + 4 * v, vr);
            _mm256_storeu_pd(m + 4 * v, vi);
            const __m256d t = cnorm(vr, vi);
            nacc[v] = _mm256_add_pd(nacc[v], t);
            if (i & mask) {
                const __m256d h = vnormAddend<KIND>(vr, vi, dr, di);
                sacc[v] = _mm256_add_pd(sacc[v], h);
                pacc[v] = _mm256_add_pd(pacc[v],
                                        _mm256_loadu_pd(buf + 4 * v));
                pacc[v] = _mm256_add_pd(pacc[v], h);
            } else {
                sacc[v] = _mm256_add_pd(sacc[v], t);
                _mm256_storeu_pd(buf + 4 * v, t);
            }
        }
    }
    for (int v = 0; v < NV; ++v) {
        _mm256_storeu_pd(post + 4 * v, nacc[v]);
        _mm256_storeu_pd(prob + 4 * v, pacc[v]);
        _mm256_storeu_pd(n1 + 4 * v, sacc[v]);
    }
}

#endif // __AVX2__

template <int AKIND, int KIND>
inline void
normalizeProbDiagImpl(double *re, double *im, std::size_t dim,
                      std::size_t lanes, const double *inv,
                      std::size_t amask, double ad1r, double ad1i,
                      std::size_t mask, double d1r, double d1i,
                      double *post, double *prob, double *n1,
                      double *lobuf)
{
    std::size_t l = 0;
#ifdef __AVX2__
    // Four live vector arrays (inv + three accumulators): NV=2 is the
    // widest tile that stays within the 16 YMM registers.
    const __m256d adr = _mm256_set1_pd(ad1r);
    const __m256d adi = _mm256_set1_pd(ad1i);
    const __m256d dr = _mm256_set1_pd(d1r), di = _mm256_set1_pd(d1i);
    for (; l + 8 <= lanes; l += 8)
        normalizeProbDiagTile<2, AKIND, KIND>(
            re + l, im + l, dim, lanes, inv + l, amask, adr, adi, mask,
            dr, di, post + l, prob + l, n1 + l, lobuf + l);
    for (; l + 4 <= lanes; l += 4)
        normalizeProbDiagTile<1, AKIND, KIND>(
            re + l, im + l, dim, lanes, inv + l, amask, adr, adi, mask,
            dr, di, post + l, prob + l, n1 + l, lobuf + l);
#endif
    for (; l < lanes; ++l) {
        const double s = inv[l];
        double nacc = 0.0, pacc = 0.0, sacc = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            double &r = re[i * lanes + l];
            double &m = im[i * lanes + l];
            double ar = r, ai = m;
            if (AKIND != kCoefOne && (i & amask) != 0) {
                const double tr = smulRe<AKIND>(ad1r, ad1i, ar, ai);
                const double ti = smulIm<AKIND>(ad1r, ad1i, ar, ai);
                ar = tr;
                ai = ti;
            }
            r = ar * s;
            m = ai * s;
            const double t = r * r + m * m;
            nacc += t;
            double &buf = lobuf[(i & (mask - 1)) * lanes + l];
            if (i & mask) {
                const double h = normAddend<KIND>(r, m, d1r, d1i);
                sacc += h;
                pacc += buf;
                pacc += h;
            } else {
                sacc += t;
                buf = t;
            }
        }
        post[l] = nacc;
        prob[l] = pacc;
        n1[l] = sacc;
    }
}

template <int AKIND>
inline void
normalizeProbDiagDispatch(double *re, double *im, std::size_t dim,
                          std::size_t lanes, const double *inv,
                          std::size_t amask, double ad1r, double ad1i,
                          std::size_t mask, double d1r, double d1i,
                          double *post, double *prob, double *n1,
                          double *lobuf)
{
    if (d1i == 0.0) {
        normalizeProbDiagImpl<AKIND, kCoefReal>(
            re, im, dim, lanes, inv, amask, ad1r, ad1i, mask, d1r, d1i,
            post, prob, n1, lobuf);
    } else {
        normalizeProbDiagImpl<AKIND, kCoefComplex>(
            re, im, dim, lanes, inv, amask, ad1r, ad1i, mask, d1r, d1i,
            post, prob, n1, lobuf);
    }
}

void
normalizeProbDiag(double *re, double *im, std::size_t dim,
                  std::size_t lanes, const double *inv,
                  std::size_t applyMask, Complex applyD1,
                  std::size_t mask, Complex d1, double *post,
                  double *prob, double *n1, double *lobuf)
{
    const double ad1r = applyD1.real(), ad1i = applyD1.imag();
    const double d1r = d1.real(), d1i = d1.imag();
    const int ak = applyMask == 0 ? kCoefOne : coefKind(ad1r, ad1i);
    switch (ak) {
      case kCoefOne:
        // Multiplying by exactly 1.0 is the identity bitwise, so the
        // kCoefOne instantiation skipping it is exact, not licensed.
        normalizeProbDiagDispatch<kCoefOne>(re, im, dim, lanes, inv,
                                            applyMask, ad1r, ad1i,
                                            mask, d1r, d1i, post, prob,
                                            n1, lobuf);
        break;
      case kCoefReal:
        normalizeProbDiagDispatch<kCoefReal>(re, im, dim, lanes, inv,
                                             applyMask, ad1r, ad1i,
                                             mask, d1r, d1i, post,
                                             prob, n1, lobuf);
        break;
      default:
        normalizeProbDiagDispatch<kCoefComplex>(re, im, dim, lanes,
                                                inv, applyMask, ad1r,
                                                ad1i, mask, d1r, d1i,
                                                post, prob, n1, lobuf);
        break;
    }
}

void
invSqrt(const double *n, std::size_t lanes, double *inv)
{
    std::size_t l = 0;
#ifdef __AVX2__
    const __m256d vone = _mm256_set1_pd(1.0);
    for (; l + 4 <= lanes; l += 4)
        _mm256_storeu_pd(
            inv + l,
            _mm256_div_pd(vone,
                          _mm256_sqrt_pd(_mm256_loadu_pd(n + l))));
#endif
    for (; l < lanes; ++l)
        inv[l] = 1.0 / std::sqrt(n[l]);
}

constexpr LaneKernels kTable = {
    &apply1qGeneral,    &apply1qAntiDiag,  &applyDiagBoth,
    &applyDiagPhase,    &apply1qPerLane,   &krausProbDiag,
    &krausProbAntiDiag, &krausProbGeneral, &computeNorms,
    &normalizeFused,    &applyDiagPhaseNorm, &applyDiagBothNorm,
    &invSqrt,           &normsProbDiag,    &normalizeProbDiag,
};

} // namespace

const LaneKernels &
table()
{
    return kTable;
}

} // namespace QEDM_LANE_NS
} // namespace qedm::sim
