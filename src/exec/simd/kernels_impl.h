/**
 * @file
 * F16C Half->float conversion helpers shared by the x86 kernel-table
 * translation units (kernels_avx2.cc, kernels_avx512.cc). Included ONLY
 * by those TUs, which compile with -mf16c; everything here has internal
 * linkage, so no symbol compiled under one ISA's flags can be
 * linker-folded into another TU. The width-generic fold and dequant
 * kernels live in kernels_generic.h.
 *
 * Both helpers are exact: vcvtph2ps widens every non-NaN half pattern
 * exactly as the scalar LUT does, and the transpose is pure data
 * movement, so any order works.
 */
#ifndef BITDEC_EXEC_SIMD_KERNELS_IMPL_H
#define BITDEC_EXEC_SIMD_KERNELS_IMPL_H

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/half.h"

namespace bitdec::exec::simd {

namespace impl {

/** Bulk Half->float via F16C; tail through the exact LUT. vcvtph2ps is
 *  exact for every non-NaN pattern and preserves NaN payloads, so the
 *  bytes match toFloat() — test_properties sweeps all 65536 patterns. */
static void
convertRowsF16c(const Half* src, std::size_t n, float* dst)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + i));
        _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    }
    const float* lut = halfToFloatLut();
    for (; i < n; i++)
        dst[i] = lut[src[i].bits()];
}

/** In-register 8x8 float transpose: rows r0..r7 become columns 0..7. */
static void
transpose8x8(__m256 r[8], __m256 out[8])
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    out[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    out[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    out[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    out[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    out[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    out[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    out[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    out[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/** Converts a token-major [tokens x d] Half tile into a channel-major
 *  float scratch (kT[c * t_stride + t]): 8x8 convert+transpose blocks,
 *  scalar LUT tails. Pure data movement + exact conversion. */
static void
convertTransposeF16c(const Half* src, int tokens, int d, float* kT,
                     int t_stride)
{
    const float* lut = halfToFloatLut();
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::size_t ts = static_cast<std::size_t>(t_stride);
    int t = 0;
    for (; t + 8 <= tokens; t += 8) {
        int c = 0;
        for (; c + 8 <= d; c += 8) {
            __m256 rows[8];
            for (int i = 0; i < 8; i++) {
                const __m128i h = _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(
                        src + static_cast<std::size_t>(t + i) * dd +
                        static_cast<std::size_t>(c)));
                rows[i] = _mm256_cvtph_ps(h);
            }
            __m256 cols[8];
            transpose8x8(rows, cols);
            for (int j = 0; j < 8; j++)
                _mm256_storeu_ps(kT + static_cast<std::size_t>(c + j) * ts +
                                     static_cast<std::size_t>(t),
                                 cols[j]);
        }
        for (; c < d; c++)
            for (int i = 0; i < 8; i++)
                kT[static_cast<std::size_t>(c) * ts +
                   static_cast<std::size_t>(t + i)] =
                    lut[src[static_cast<std::size_t>(t + i) * dd +
                            static_cast<std::size_t>(c)]
                            .bits()];
    }
    for (; t < tokens; t++)
        for (int c = 0; c < d; c++)
            kT[static_cast<std::size_t>(c) * ts +
               static_cast<std::size_t>(t)] =
                lut[src[static_cast<std::size_t>(t) * dd +
                        static_cast<std::size_t>(c)]
                        .bits()];
}

} // namespace impl

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNELS_IMPL_H
