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
    static I orI(I a, I b) { return _mm256_or_si256(a, b); }
    static I srlv(I a, I count) { return _mm256_srlv_epi32(a, count); }
    static I gatherI(const std::uint32_t* base, I idx)
    {
        return _mm256_i32gather_epi32(reinterpret_cast<const int*>(base),
                                      idx, 4);
    }
    static F gatherF(const float* base, I idx)
    {
        return _mm256_i32gather_ps(base, idx, 4);
    }

    static void
    narrowWiden(float* f, Half* h)
    {
        const __m128i hv = _mm256_cvtps_ph(
            _mm256_loadu_ps(f), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(h), hv);
        _mm256_storeu_ps(f, _mm256_cvtph_ps(hv));
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
