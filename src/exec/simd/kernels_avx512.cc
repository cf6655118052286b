/**
 * @file
 * AVX-512 (F/BW/DQ/VL) kernel table: the 16-lane instantiation of the
 * shared kernel templates. Compiled with -mavx512f -mavx512bw -mavx512dq
 * -mavx512vl -mf16c -ffp-contract=off; degrades to a null table when the
 * compiler lacks the flags. The conversion kernels stay 8-wide (they are
 * load/store bound and VL makes the ymm forms available here); the
 * compute kernels run 16 lanes.
 */
#include "exec/simd/kernel_table.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__F16C__)

#include "exec/simd/kernels_generic.h"
#include "exec/simd/kernels_impl.h"

namespace bitdec::exec::simd {

namespace {

struct VecAvx512
{
    static constexpr int W = 16;
    // 32 zmm registers: 4 rows x 4 vectors of accumulators, plus the
    // shared K/V loads and the broadcasts.
    static constexpr int kFoldRows = 4;
    static constexpr int kAccRegs = 16;
    using F = __m512;
    using I = __m512i;

    // Ops whose plain form merges into _mm512_undefined_*() (which gcc 12
    // reports -Wmaybe-uninitialized once inlined) use the zero-masked or
    // zero-source form with every lane enabled: same instruction, same
    // result.
    static constexpr __mmask16 kAll = 0xFFFF;

    static F zero() { return _mm512_setzero_ps(); }
    static F broadcast(float x) { return _mm512_set1_ps(x); }
    static F load(const float* p) { return _mm512_loadu_ps(p); }
    static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
    static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
    static F add(F a, F b) { return _mm512_add_ps(a, b); }
    static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
    static F div(F a, F b) { return _mm512_div_ps(a, b); }
    static F min(F a, F b) { return _mm512_maskz_min_ps(kAll, a, b); }
    static F max(F a, F b) { return _mm512_maskz_max_ps(kAll, a, b); }
    static F absF(F a) { return _mm512_abs_ps(a); }
    static F neg(F a) { return _mm512_xor_ps(a, _mm512_set1_ps(-0.f)); }
    static F
    trunc(F a)
    {
        return _mm512_maskz_roundscale_ps(
            kAll, a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    }
    static F
    blendGe(F a, F b, F x, F y)
    {
        return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, b, _CMP_GE_OQ), y,
                                    x);
    }

    static I loadI(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
    static I broadcastI(std::uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<int>(x));
    }
    static I andI(I a, I b) { return _mm512_and_si512(a, b); }
    static I
    srlv(I a, I count)
    {
        return _mm512_maskz_srlv_epi32(kAll, a, count);
    }
    static F cvtI(I a) { return _mm512_maskz_cvtepi32_ps(kAll, a); }
    static F gatherF(const float* base, I idx)
    {
        return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), kAll, idx, base,
                                        4);
    }
    static I loadParams(const Half2* p) { return _mm512_loadu_si512(p); }
    static F
    widenHalf(I a)
    {
        return _mm512_maskz_cvtph_ps(kAll,
                                     _mm512_maskz_cvtepi32_epi16(kAll, a));
    }
    /** Two two-source permutes over the window's halves, then bit 5 of
     *  the index picks the half. */
    static I
    permute64(const std::uint32_t* window, I idx)
    {
        const I lo = _mm512_permutex2var_epi32(_mm512_loadu_si512(window),
                                               idx,
                                               _mm512_loadu_si512(window + 16));
        const I hi = _mm512_permutex2var_epi32(
            _mm512_loadu_si512(window + 32), idx,
            _mm512_loadu_si512(window + 48));
        return _mm512_mask_blend_epi32(
            _mm512_test_epi32_mask(idx, _mm512_set1_epi32(32)), lo, hi);
    }

    static F
    narrowWiden(F a)
    {
        return _mm512_maskz_cvtph_ps(
            kAll, _mm512_maskz_cvtps_ph(kAll, a,
                                        _MM_FROUND_TO_NEAREST_INT |
                                            _MM_FROUND_NO_EXC));
    }

    static constexpr auto widenRows = impl::convertRowsF16c;
    static constexpr auto widenTranspose = impl::convertTransposeF16c;
};

const KernelTable kTable = {
    impl::convertRowsF16c,
    impl::convertTransposeF16c,
    impl::foldTileImpl<VecAvx512>,
    impl::dequantLinearImpl<VecAvx512>,
    impl::quantizePackImpl<VecAvx512>,
};

} // namespace

const KernelTable*
avx512Kernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd

#else // missing AVX-512 F/BW/DQ/VL or F16C

namespace bitdec::exec::simd {

const KernelTable*
avx512Kernels()
{
    return nullptr;
}

} // namespace bitdec::exec::simd

#endif
