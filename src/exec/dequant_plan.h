/**
 * @file
 * Precomputed dequantization routing for packed KV blocks.
 *
 * The fused CPU hot path dequantizes one packed block at a time into a
 * reusable scratch tile. The induced layout scatters a block's codes across
 * 32-bit units by (k-tile, n-group, lane, register-pair); recomputing that
 * mapping per element per step is what made the functional kernels crawl.
 * Every block of a cache shares one layout, so the mapping is computed once
 * per cache and reused for every block on every decode step:
 *
 *  - a DequantPlan stores, for each unit slot and logical code index, the
 *    scratch destination offset and the quantization-parameter group the
 *    code belongs to (CodeRoute);
 *  - each PackedBlock carries only its packed words and one Half2
 *    (scale, zero) per parameter group; a code dequantizes with the
 *    magic-FMA arithmetic (quant::dequantMagicValue) the lop3 fast path
 *    produces, so the fused path is bit-identical to the reference
 *    dequantization.
 */
#ifndef BITDEC_EXEC_DEQUANT_PLAN_H
#define BITDEC_EXEC_DEQUANT_PLAN_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/half.h"
#include "common/tensor.h"
#include "layout/induced_layout.h"

namespace bitdec::exec {

/** Routing of one packed code: scratch slot and parameter-group index. */
struct CodeRoute
{
    std::uint32_t dest;  //!< offset into the dequantized scratch tile
    std::uint32_t param; //!< flat quant-parameter group index
};

/**
 * Unit-slot-ordered routing table for one induced layout: entry
 * [slot * codesPerUnit + i] routes logical code i of unit @p slot.
 *
 * @param lay      the block's induced layout
 * @param dest_of  (row, col) -> scratch offset (caller fixes orientation)
 * @param param_of (row, col) -> flat parameter-group index
 */
std::vector<CodeRoute> buildDequantRoutes(
    const layout::InducedLayout& lay,
    const std::function<std::uint32_t(int, int)>& dest_of,
    const std::function<std::uint32_t(int, int)>& param_of);

/**
 * Dequantizes one packed block into @p out using a routing table and the
 * block's parameters: each code becomes quant::dequantMagicValue of its
 * group's (scale, zero). The code extraction mirrors the lop3 pair walk:
 * pair j of a word yields logical codes 2j (low 16-bit lane) and 2j+1
 * (high lane). The token-major reference of the kernel tables'
 * dequant_linear.
 *
 * @param units  the block's packed words, in unit-slot order
 * @param routes table from buildDequantRoutes for the same layout
 * @param params the block's (scale, zero) per flat group index
 * @param bits   code width (2 or 4)
 * @param out    scratch tile; written at routes[].dest
 */
void dequantBlock(const std::vector<std::uint32_t>& units,
                  const std::vector<CodeRoute>& routes,
                  const Tensor<Half2>& params, int bits, float* out);

} // namespace bitdec::exec

#endif // BITDEC_EXEC_DEQUANT_PLAN_H
