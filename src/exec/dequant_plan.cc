#include "exec/dequant_plan.h"

#include "common/logging.h"
#include "gpusim/fragment.h"
#include "quant/fast_dequant.h"

namespace bitdec::exec {

std::vector<CodeRoute>
buildDequantRoutes(const layout::InducedLayout& lay,
                   const std::function<std::uint32_t(int, int)>& dest_of,
                   const std::function<std::uint32_t(int, int)>& param_of)
{
    const int cpu = lay.codesPerUnit();
    std::vector<CodeRoute> routes(lay.numUnits() *
                                  static_cast<std::size_t>(cpu));
    for (int kt = 0; kt < lay.numKTiles(); kt++) {
        for (int ng = 0; ng < lay.numNGroups(); ng++) {
            for (int lane = 0; lane < sim::kWarpSize; lane++) {
                for (int pr = 0; pr < lay.pairsPerLane(); pr++) {
                    const layout::UnitId id{kt, ng, lane, pr};
                    const std::size_t base =
                        lay.unitSlot(id) * static_cast<std::size_t>(cpu);
                    for (int i = 0; i < cpu; i++) {
                        const layout::CodeCoord c = lay.codeCoord(id, i);
                        routes[base + static_cast<std::size_t>(i)] = {
                            dest_of(c.row, c.col), param_of(c.row, c.col)};
                    }
                }
            }
        }
    }
    return routes;
}

void
dequantBlock(const std::vector<std::uint32_t>& units,
             const std::vector<CodeRoute>& routes,
             const Tensor<Half2>& params, int bits, float* out)
{
    const int cpu = 32 / bits;
    const std::uint32_t mask = (1u << bits) - 1u;
    BITDEC_ASSERT(routes.size() ==
                      units.size() * static_cast<std::size_t>(cpu),
                  "routing table does not match the unit buffer");
    const auto value = [&](const CodeRoute& r, std::uint32_t code) {
        BITDEC_ASSERT(r.param < params.numel(), "route group out of range");
        return quant::dequantMagicValue(
            static_cast<std::uint8_t>(code),
            quant::QuantParams::fromHalf2(params[r.param]));
    };
    const CodeRoute* r = routes.data();
    for (std::size_t u = 0; u < units.size(); u++, r += cpu) {
        const std::uint32_t w = units[u];
        for (int j = 0; j < cpu / 2; j++) {
            out[r[2 * j].dest] = value(r[2 * j], (w >> (bits * j)) & mask);
            out[r[2 * j + 1].dest] =
                value(r[2 * j + 1], (w >> (bits * j + 16)) & mask);
        }
    }
}

} // namespace bitdec::exec
