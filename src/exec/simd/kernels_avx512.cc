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
    using F = __m512;
    using I = __m512i;

    static F zero() { return _mm512_setzero_ps(); }
    static F broadcast(float x) { return _mm512_set1_ps(x); }
    static F load(const float* p) { return _mm512_loadu_ps(p); }
    static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
    static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
    static F add(F a, F b) { return _mm512_add_ps(a, b); }

    static I loadI(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
    static I broadcastI(std::uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<int>(x));
    }
    static I andI(I a, I b) { return _mm512_and_si512(a, b); }
    static I orI(I a, I b) { return _mm512_or_si512(a, b); }
    static I srlv(I a, I count) { return _mm512_srlv_epi32(a, count); }
    static I gatherI(const std::uint32_t* base, I idx)
    {
        return _mm512_i32gather_epi32(idx, base, 4);
    }
    static F gatherF(const float* base, I idx)
    {
        return _mm512_i32gather_ps(idx, base, 4);
    }
};

const KernelTable kTable = {
    impl::convertRowsF16c,
    impl::convertTransposeF16c,
    impl::foldTileImpl<VecAvx512>,
    impl::dequantLinearImpl<VecAvx512>,
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
