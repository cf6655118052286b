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
 * both directions: quantize_pack writes each code at the word and shift
 * the plan names, and dequant_linear reads it back from there. A block
 * stores only its packed words and its Half2 (scale, zero) per group;
 * dequant_linear turns codes into values in registers with the magic-FMA
 * arithmetic of quant::dequantMagicValue, so no per-block value table
 * exists anywhere.
 *
 * Determinism contract (what makes every level digest-identical): all
 * tables instantiate the same width-generic kernels (kernels_generic.h),
 * which replicate exec::foldTile's arithmetic order per output element.
 * fold_tile blocks the query rows (up to the level's row count share
 * every K/V load) but keeps each output element's sequence: QK
 * vectorizes across tokens (one lane per token, channels accumulated
 * sequentially, separate mul+add — never FMA; every table TU compiles
 * with -ffp-contract=off), PV vectorizes across channels (tokens
 * accumulated sequentially per channel), max, exp and the l sum stay
 * scalar per token in token order, and P's half rounding is RNE
 * narrowing at every level. Dequant is one mul, one add and an RNE
 * narrowing per element from the group's (s, nb), exactly
 * quant::dequantMagicValue; code extraction is integer-exact. The
 * quantize-pack entry is elementwise IEEE arithmetic (division, exact
 * round-half-away-from-zero) plus per-lane min/max chains in the scalar
 * reduction order, so it writes the same bytes at every level too. See
 * docs/BACKENDS.md.
 */
#ifndef BITDEC_EXEC_SIMD_KERNEL_TABLE_H
#define BITDEC_EXEC_SIMD_KERNEL_TABLE_H

#include <cstddef>
#include <cstdint>

#include "common/half.h"

namespace bitdec::exec::simd {

/**
 * POD view of a LinearDequantPlan (dequant_linear.h): the destination-
 * ordered routing both packed-block entries walk. Destinations come in
 * runs of kPlanRun; every word a run reads lies in one window of
 * kPlanWindow words starting at the run's window base, which lets a
 * vector level fetch a run's words with in-register permutes.
 */
struct PlanView
{
    const std::uint32_t* code;   //!< per destination: window-local word
                                 //!< (bits 0-5) | in-word shift << 8
    const std::uint32_t* param;  //!< per destination: group << bits
    const std::uint32_t* window; //!< per run: first word of its window
    const std::uint32_t* group;  //!< per run: its group, when uniform
    std::size_t n;               //!< destinations (tile elements)
    int bits;                    //!< code width (2 or 4)
    bool uniform;                //!< every run lies in one group
};

/** Destinations per PlanView run (the widest level's lane count). */
constexpr std::size_t kPlanRun = 16;

/** Words per PlanView window. */
constexpr std::uint32_t kPlanWindow = 64;

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
     * exec::foldTile over a channel-major K, bit-identical to it. Query
     * rows go in blocks that share every K vector and V row load, and
     * each block's PV accumulators stay in registers across the tile.
     *
     * @param kT  channel-major float keys, [d x t_stride]
     * @param vf  token-major float values, [tokens x d]
     * @param m,l,acc  the partial state's arrays (SoftmaxPartial fields)
     * @param s   caller scratch, >= gq * tokens floats
     */
    void (*fold_tile)(const float* qf, int gq, int d, const float* kT,
                      int t_stride, const float* vf, int tokens, float scale,
                      float* m, float* l, float* acc, float* s, bool round_p);

    /**
     * Dequantizes one packed block into plan.n floats in the plan's
     * destination order: each value is
     * narrow((1024 + code) * s + nb) with s and nb = Half(-(1024 + z) * s)
     * from the code's group's (scale, zero), widened once per block.
     * Bit-identical to exec::dequantBlock over the same routing.
     *
     * @param units    the block's packed words
     * @param params   the block's (scale, zero) per group
     * @param groups   number of params
     * @param scratch  caller scratch, >= dequantScratch(groups, bits)
     */
    void (*dequant_linear)(const std::uint32_t* units, const Half2* params,
                           std::size_t groups, const PlanView& plan,
                           float* out, float* scratch);

    /**
     * Quantizes one token-major [tokens x d] Half block and packs it in
     * one pass: per-group min/max, (scale, zero) through
     * quant::computeParams, and each code written into the word and shift
     * a LinearDequantPlan reads it from (the exact inverse of
     * dequant_linear). Bit-identical to quant::quantizeMatrix +
     * layout::packInduced on every level.
     *
     * @param group_tokens  true: a group is group_size tokens of one
     *                      channel, params [tokens/gs x d] (KC keys);
     *                      false: group_size channels of one token,
     *                      params [tokens x d/gs] (KT keys, values)
     * @param plan     the plan's view, tokens*d destinations
     * @param plan_channel_major  the plan's destinations index a
     *                      channel-major [d x tokens] tile (keys)
     * @param units    out: tokens*d*bits/32 packed words
     * @param params   out: one (scale, zero) per group
     * @param scratch  caller scratch, >= quantizePackScratch() floats
     */
    void (*quantize_pack)(const Half* src, int tokens, int d, int bits,
                          int group_size, bool group_tokens,
                          const PlanView& plan, bool plan_channel_major,
                          std::uint32_t* units, Half2* params,
                          float* scratch);
};

/** Scratch floats dequant_linear needs for a block of @p groups
 *  (scale, zero) pairs: s and nb per group, plus the portable level's
 *  2^bits-entry value row per group. */
constexpr std::size_t
dequantScratch(std::size_t groups, int bits)
{
    return (2 + (std::size_t{1} << bits)) * groups;
}

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
