/**
 * @file
 * Per-level kernel tables of the fused hot path.
 *
 * Every Level has one KernelTable of plain function pointers, exported
 * by one translation unit: kernels_scalar.cc (portable, 1 lane),
 * kernels_avx2.cc and kernels_avx512.cc (each compiled with its own -m
 * flags). dispatch.cc maps a runtime Level to its table, and each fused
 * driver (exec::fusedPagedAttention, exec::fusedFp16Attention,
 * core::fusedPackedAttention) runs its per-tile loops through the table
 * of the level it is given. The table is deliberately POD-only — raw
 * pointers and sizes, no std containers — so the ISA TUs never
 * instantiate common template code that the linker could fold across
 * differently-flagged TUs (the classic way an AVX-512-encoded
 * std::vector helper ends up running on an AVX2 machine).
 *
 * A packed cache's LinearDequantPlan (dequant_linear.h) routes codes in
 * both directions: quantize_pack writes each code at the (unit, shift)
 * the plan names, and dequant_linear reads it back from there.
 *
 * Determinism contract (what makes every level digest-identical): all
 * tables instantiate the same width-generic kernels (kernels_generic.h),
 * which replicate exec::foldTile's arithmetic order per output element.
 * QK vectorizes across tokens (one lane per token, channels accumulated
 * sequentially, separate mul+add — never FMA; every table TU compiles
 * with -ffp-contract=off), PV vectorizes across channels (tokens
 * accumulated sequentially per channel), max/exp/half-rounding stay
 * scalar per token, and dequant/conversion are integer-exact table
 * lookups. The quantize-pack entry is elementwise IEEE arithmetic
 * (division, exact round-half-away-from-zero, RNE narrowing) plus
 * per-lane min/max chains in the scalar reduction order, so it writes
 * the same bytes at every level too. See docs/BACKENDS.md.
 */
#ifndef BITDEC_EXEC_SIMD_KERNEL_TABLE_H
#define BITDEC_EXEC_SIMD_KERNEL_TABLE_H

#include <cstddef>
#include <cstdint>

#include "common/half.h"

namespace bitdec::exec::simd {

/** The hot loops, the Half->float conversions they feed on, and the
 *  block quantize-pack that fills the packed cache. */
struct KernelTable
{
    /** Bulk Half->float, bit-identical to toFloat()'s LUT widening. */
    void (*convert_rows)(const Half* src, std::size_t n, float* dst);

    /**
     * Half->float conversion of a token-major [tokens x d] tile into a
     * channel-major float scratch: kT[c * t_stride + t]. Feeds the
     * vectorized QK loop with contiguous per-channel token runs.
     */
    void (*convert_transpose)(const Half* src, int tokens, int d, float* kT,
                              int t_stride);

    /**
     * One K/V tile folded into a split-softmax partial state —
     * exec::foldTile over a channel-major K, bit-identical to it.
     *
     * @param kT  channel-major float keys, [d x t_stride]
     * @param vf  token-major float values, [tokens x d]
     * @param m,l,acc  the partial state's arrays (SoftmaxPartial fields)
     * @param s   caller scratch, >= tokens floats
     */
    void (*fold_tile)(const float* qf, int gq, int d, const float* kT,
                      int t_stride, const float* vf, int tokens, float scale,
                      float* m, float* l, float* acc, float* s, bool round_p);

    /**
     * Dequantizes one packed block through a LinearDequantPlan's SoA
     * arrays (unit/shift/param, n elements) and a float value LUT.
     * Bit-identical to exec::dequantBlock over the same routing.
     */
    void (*dequant_linear)(const std::uint32_t* units,
                           const std::uint32_t* unit_of,
                           const std::uint32_t* shift_of,
                           const std::uint32_t* param_of, std::size_t n,
                           int bits, const float* flut, float* out);

    /**
     * Quantizes one token-major [tokens x d] Half block and packs it in
     * one pass: per-group min/max, (scale, zero) through
     * quant::computeParams, each code written into the word and shift a
     * LinearDequantPlan reads it from (the exact inverse of
     * dequant_linear), and the block's dequant LUTs. Bit-identical to
     * quant::quantizeMatrix + layout::packInduced + the magic-FMA LUT
     * (quant::dequantMagicValue) on every level.
     *
     * @param group_tokens  true: a group is group_size tokens of one
     *                      channel, params [tokens/gs x d] (KC keys);
     *                      false: group_size channels of one token,
     *                      params [tokens x d/gs] (KT keys, values)
     * @param unit_of,shift_of,param_of  the plan's SoA arrays, tokens*d
     * @param plan_channel_major  the plan's destinations index a
     *                      channel-major [d x tokens] tile (keys)
     * @param units    out: tokens*d*bits/32 packed words
     * @param params   out: one (scale, zero) per group
     * @param lut      out: (group << bits | code) -> dequantized Half
     * @param lut_f32  out: lut widened
     * @param scratch  caller scratch, >= quantizePackScratch() floats
     */
    void (*quantize_pack)(const Half* src, int tokens, int d, int bits,
                          int group_size, bool group_tokens,
                          const std::uint32_t* unit_of,
                          const std::uint32_t* shift_of,
                          const std::uint32_t* param_of,
                          bool plan_channel_major, std::uint32_t* units,
                          Half2* params, Half* lut, float* lut_f32,
                          float* scratch);
};

/** Scratch floats quantize_pack needs for one [tokens x d] block: both
 *  widened layouts plus four per-group arrays. */
constexpr std::size_t
quantizePackScratch(int tokens, int d, int group_size)
{
    const std::size_t n =
        static_cast<std::size_t>(tokens) * static_cast<std::size_t>(d);
    return 2 * n + 4 * (n / static_cast<std::size_t>(group_size));
}

/** The portable table; always present. */
const KernelTable* scalarKernels();

/** The AVX2 (+F16C) table; null when not compiled for this target. */
const KernelTable* avx2Kernels();

/** The AVX-512 (F/BW/DQ/VL) table; null when not compiled in. */
const KernelTable* avx512Kernels();

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNEL_TABLE_H
