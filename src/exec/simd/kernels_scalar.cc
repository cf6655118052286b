/**
 * @file
 * Portable kernel table (Level::Scalar): the shared kernel templates
 * instantiated over the 1-lane traits (impl::Lane1), with the Half LUT
 * for both conversions and software round-to-nearest-even narrowing.
 * Compiled with -ffp-contract=off like the ISA TUs, so no compiler or
 * target can contract the separate mul+add into an FMA. It
 * builds on every target, which is what makes scalar a table level like
 * any other rather than a second copy of every driver.
 */
#include <algorithm>

#include "exec/simd/kernel_table.h"
#include "exec/simd/kernels_generic.h"

namespace bitdec::exec::simd {

namespace {

/** Lane1 plus the LUT conversions; the scalar table's traits. */
struct VecScalar : impl::Lane1
{
    static void
    widenRows(const Half* src, std::size_t n, float* dst)
    {
        toFloat(src, dst, n);
    }

    /** Token-major Half tile -> channel-major float scratch via the LUT,
     *  in 8-token strips so each channel's writes form one contiguous
     *  run instead of a d-way scatter per token. */
    static void
    widenTranspose(const Half* src, int tokens, int d, float* kT,
                   int t_stride)
    {
        const float* lut = halfToFloatLut();
        const std::size_t dd = static_cast<std::size_t>(d);
        for (int t0 = 0; t0 < tokens; t0 += 8) {
            const int n = std::min(8, tokens - t0);
            const Half* strip = src + static_cast<std::size_t>(t0) * dd;
            for (int c = 0; c < d; c++) {
                float* out = kT +
                             static_cast<std::size_t>(c) *
                                 static_cast<std::size_t>(t_stride) +
                             static_cast<std::size_t>(t0);
                for (int i = 0; i < n; i++)
                    out[i] = lut[strip[static_cast<std::size_t>(i) * dd +
                                       static_cast<std::size_t>(c)]
                                     .bits()];
            }
        }
    }
};

const KernelTable kTable = {
    VecScalar::widenRows,
    VecScalar::widenTranspose,
    impl::foldTileImpl<VecScalar>,
    impl::dequantLinearImpl<VecScalar>,
    impl::quantizePackImpl<VecScalar>,
};

} // namespace

const KernelTable*
scalarKernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd
