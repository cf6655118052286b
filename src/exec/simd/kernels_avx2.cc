/**
 * @file
 * AVX2 (+F16C) kernel table. Compiled with -mavx2 -mf16c
 * -ffp-contract=off (CMake per-source flags); on targets or compilers
 * without those flags the TU degrades to a null table and runtime
 * dispatch reports the level unsupported.
 */
#include "exec/simd/kernel_table.h"

#if defined(__AVX2__) && defined(__F16C__)

#include "exec/simd/kernels_generic.h"
#include "exec/simd/kernels_impl.h"

namespace bitdec::exec::simd {

namespace {

struct VecAvx2
{
    static constexpr int W = 8;
    // 16 ymm registers: 4 rows x 2 vectors of accumulators, plus the
    // shared K/V loads and the broadcasts.
    static constexpr int kFoldRows = 4;
    static constexpr int kAccRegs = 8;
    using F = __m256;
    using I = __m256i;

    static F zero() { return _mm256_setzero_ps(); }
    static F broadcast(float x) { return _mm256_set1_ps(x); }
    static F load(const float* p) { return _mm256_loadu_ps(p); }
    static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
    static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
    static F add(F a, F b) { return _mm256_add_ps(a, b); }
    static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
    static F div(F a, F b) { return _mm256_div_ps(a, b); }
    static F min(F a, F b) { return _mm256_min_ps(a, b); }
    static F max(F a, F b) { return _mm256_max_ps(a, b); }
    static F absF(F a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.f), a); }
    static F neg(F a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.f)); }
    static F
    trunc(F a)
    {
        return _mm256_round_ps(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    }
    static F
    blendGe(F a, F b, F x, F y)
    {
        return _mm256_blendv_ps(y, x, _mm256_cmp_ps(a, b, _CMP_GE_OQ));
    }

    static I loadI(const std::uint32_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static I broadcastI(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<int>(x));
    }
    static I andI(I a, I b) { return _mm256_and_si256(a, b); }
    static I srlv(I a, I count) { return _mm256_srlv_epi32(a, count); }
    static F cvtI(I a) { return _mm256_cvtepi32_ps(a); }
    static F gatherF(const float* base, I idx)
    {
        return _mm256_i32gather_ps(base, idx, 4);
    }
    static I loadParams(const Half2* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    /** Lanes hold values below 2^16, so the unsigned-saturating pack is
     *  exact; the qword permute joins the two 128-bit halves. */
    static F
    widenHalf(I a)
    {
        return _mm256_cvtph_ps(_mm256_castsi256_si128(
            _mm256_permute4x64_epi64(_mm256_packus_epi32(a, a), 0x08)));
    }
    /** One permute per 8-word part of the window, then index bits 3, 4
     *  and 5 pick the part through a blend tree (blendv_ps selects on
     *  bit 31, so each deciding bit is shifted there). */
    static I
    permute64(const std::uint32_t* window, I idx)
    {
        const auto part = [&](int j) {
            return _mm256_castsi256_ps(
                _mm256_permutevar8x32_epi32(loadI(window + 8 * j), idx));
        };
        const auto pick = [&](int bit) {
            return _mm256_castsi256_ps(_mm256_slli_epi32(idx, 31 - bit));
        };
        const __m256 b3 = pick(3), b4 = pick(4), b5 = pick(5);
        const __m256 lo =
            _mm256_blendv_ps(_mm256_blendv_ps(part(0), part(1), b3),
                             _mm256_blendv_ps(part(2), part(3), b3), b4);
        const __m256 hi =
            _mm256_blendv_ps(_mm256_blendv_ps(part(4), part(5), b3),
                             _mm256_blendv_ps(part(6), part(7), b3), b4);
        return _mm256_castps_si256(_mm256_blendv_ps(lo, hi, b5));
    }

    static F
    narrowWiden(F a)
    {
        return _mm256_cvtph_ps(
            _mm256_cvtps_ph(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }

    static constexpr auto widenRows = impl::convertRowsF16c;
    static constexpr auto widenTranspose = impl::convertTransposeF16c;
};

const KernelTable kTable = {
    impl::convertRowsF16c,
    impl::convertTransposeF16c,
    impl::foldTileImpl<VecAvx2>,
    impl::dequantLinearImpl<VecAvx2>,
    impl::quantizePackImpl<VecAvx2>,
};

} // namespace

const KernelTable*
avx2Kernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd

#else // !(__AVX2__ && __F16C__)

namespace bitdec::exec::simd {

const KernelTable*
avx2Kernels()
{
    return nullptr;
}

} // namespace bitdec::exec::simd

#endif
