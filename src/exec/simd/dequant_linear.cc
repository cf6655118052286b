#include "exec/simd/dequant_linear.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace bitdec::exec::simd {

std::size_t
LinearDequantPlan::hostBytes() const
{
    return (code.capacity() + param.capacity() + window.capacity() +
            group.capacity()) *
           sizeof(std::uint32_t);
}

LinearDequantPlan
buildLinearDequantPlan(
    const std::vector<CodeRoute>& routes, int bits, std::size_t n_elems,
    const std::function<std::uint32_t(std::uint32_t)>& remap_dest)
{
    BITDEC_ASSERT(bits == 2 || bits == 4, "unsupported code width");
    const int cpu = 32 / bits;
    BITDEC_ASSERT(routes.size() == n_elems,
                  "route table does not cover the scratch tile");
    const std::uint32_t n_units =
        static_cast<std::uint32_t>(n_elems / static_cast<std::size_t>(cpu));
    BITDEC_ASSERT(n_units >= kPlanWindow, "a block of ", n_units,
                  " words is smaller than one ", kPlanWindow,
                  "-word window");

    // Destination order first: the word, shift and group of each.
    constexpr std::uint32_t kUnrouted =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> unit(n_elems, kUnrouted), shift(n_elems);
    LinearDequantPlan plan;
    plan.bits = bits;
    plan.param.resize(n_elems);
    for (std::size_t idx = 0; idx < routes.size(); idx++) {
        const std::uint32_t slot = static_cast<std::uint32_t>(idx) /
                                   static_cast<std::uint32_t>(cpu);
        const int i = static_cast<int>(idx % static_cast<std::size_t>(cpu));
        std::uint32_t dest = routes[idx].dest;
        if (remap_dest)
            dest = remap_dest(dest);
        BITDEC_ASSERT(dest < n_elems, "route destination out of range");
        BITDEC_ASSERT(unit[dest] == kUnrouted,
                      "two codes route to one scratch destination");
        unit[dest] = slot;
        // Pair j of a packed word holds logical codes 2j (low 16-bit
        // lane) and 2j+1 (high lane) — the lop3 pair walk of
        // dequantBlock.
        shift[dest] = static_cast<std::uint32_t>(bits * (i / 2) +
                                                 (i % 2) * 16);
        plan.param[dest] = routes[idx].param
                           << static_cast<std::uint32_t>(bits);
    }

    // Then per run of kPlanRun destinations: its aligned window, clamped
    // to end at the last word, and each destination's index inside it.
    plan.code.resize(n_elems);
    plan.uniform = true;
    for (std::size_t r0 = 0; r0 < n_elems; r0 += kPlanRun) {
        const std::size_t r1 = std::min(n_elems, r0 + kPlanRun);
        for (std::size_t i = r0; i < r1; i++)
            BITDEC_ASSERT(unit[i] != kUnrouted,
                          "scratch destination never routed");
        const std::uint32_t aligned = unit[r0] / kPlanWindow * kPlanWindow;
        const std::uint32_t base = std::min(aligned, n_units - kPlanWindow);
        plan.window.push_back(base);
        plan.group.push_back(plan.param[r0] >> bits);
        for (std::size_t i = r0; i < r1; i++) {
            BITDEC_ASSERT(unit[i] / kPlanWindow * kPlanWindow == aligned,
                          "destinations ", r0, "..", r1 - 1,
                          " read words outside one ", kPlanWindow,
                          "-word window");
            plan.code[i] = (unit[i] - base) | shift[i] << 8;
            plan.uniform = plan.uniform && plan.param[i] == plan.param[r0];
        }
    }
    return plan;
}

} // namespace bitdec::exec::simd
