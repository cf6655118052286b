/**
 * @file
 * Destination-ordered ("linear") dequantization plans for the fused
 * packed path.
 *
 * The reference dequant (exec::dequantBlock) walks a packed block in
 * unit-slot order and scatters codes to their scratch destinations
 * through a CodeRoute table (exec/dequant_plan.h). That order is
 * scatter-shaped: consecutive codes land at unrelated scratch offsets,
 * which defeats vector stores. A LinearDequantPlan is the same routing
 * inverted: for every scratch destination, in destination order, it
 * records which packed word the code lives in, the in-word bit shift
 * that extracts it, and its parameter group. The kernel tables' dequant
 * then walks the scratch contiguously and produces bit-identical bytes
 * to dequantBlock, since code extraction is integer-exact under any
 * order and the value arithmetic is the same per element.
 *
 * Words are addressed through windows. Destinations go in runs of 16
 * (simd::kPlanRun, the widest level's lane count), and every word a run
 * reads lies in one aligned 64-word window (simd::kPlanWindow); the plan
 * stores each run's window base and each destination's index inside
 * it. A vector level then loads the window and picks each lane's word
 * with in-register permutes instead of a gather. A uniform plan (each
 * run in one parameter group) also keeps each run's group, so a vector
 * reads it with one small load instead of a cache line of param. Construction asserts
 * the window property (the induced layouts keep a run's words within
 * one 32- or 64-word (k-tile, n-group) block) and clamps a window's
 * base so it never reads past the block's words.
 *
 * The plan is used for packing as well as dequant: the quantize-pack
 * kernel (KernelTable::quantize_pack) writes each code at the word and
 * shift the plan reads it from, so packing is the exact inverse of the
 * linear dequant by construction.
 *
 * A destination remap hook lets the key plan target a channel-major
 * [d x Nr] scratch (what the vectorized QK loop wants) while reusing the
 * token-major routes the cache already builds; the remap is pure index
 * arithmetic, so K needs no separate route table.
 */
#ifndef BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H
#define BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/dequant_plan.h"
#include "exec/simd/kernel_table.h"

namespace bitdec::exec::simd {

/**
 * SoA routing of one packed block, ordered by scratch destination:
 * element i of the dequantized tile is code
 * `(units[unitOf(i)] >> shiftOf(i)) & ((1 << bits) - 1)` of its block,
 * in parameter group `param[i] >> bits`. Shared by every block of a
 * cache, like the CodeRoute table it is derived from.
 */
struct LinearDequantPlan
{
    int bits = 0;                      //!< code width (2 or 4)
    bool uniform = false;              //!< each run lies in one group
    std::vector<std::uint32_t> code;   //!< window-local word | shift << 8
    std::vector<std::uint32_t> param;  //!< parameter group << bits
    std::vector<std::uint32_t> window; //!< per run: window base word
    std::vector<std::uint32_t> group;  //!< per run: its first group

    std::size_t size() const { return code.size(); }

    /** Packed word holding destination @p i's code. */
    std::uint32_t
    unitOf(std::size_t i) const
    {
        return window[i / kPlanRun] + (code[i] & (kPlanWindow - 1));
    }

    /** In-word shift of destination @p i's code. */
    std::uint32_t shiftOf(std::size_t i) const { return code[i] >> 8; }

    /** The kernel tables' view of the plan. */
    PlanView
    view() const
    {
        return {code.data(), param.data(), window.data(), group.data(),
                code.size(), bits,         uniform};
    }

    /** Heap bytes the plan owns. */
    std::size_t hostBytes() const;
};

/**
 * Inverts a unit-slot-ordered CodeRoute table into a destination-ordered
 * plan. Every destination in [0, n_elems) must be routed exactly once,
 * and every run's words must share one aligned window (fatal otherwise
 * — a hole would read uninitialized scratch, a stray word the wrong
 * code).
 *
 * @param routes     table from buildDequantRoutes (slot-major)
 * @param bits       code width; pair j of a word holds logical codes 2j
 *                   (shift bits*j) and 2j+1 (shift bits*j + 16)
 * @param n_elems    scratch tile element count
 * @param remap_dest optional destination remap (e.g. token-major ->
 *                   channel-major); identity when null
 */
LinearDequantPlan buildLinearDequantPlan(
    const std::vector<CodeRoute>& routes, int bits, std::size_t n_elems,
    const std::function<std::uint32_t(std::uint32_t)>& remap_dest = nullptr);

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H
