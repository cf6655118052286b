/**
 * @file
 * Width-generic implementation of the hot-path kernels, parameterized on
 * a vector-traits struct: 1 lane (kernels_scalar.cc), 8 lanes
 * (kernels_avx2.cc), 16 lanes (kernels_avx512.cc). Included ONLY by the
 * kernel-table translation units, and free of ISA intrinsics so the
 * portable scalar TU can include it too. Everything here has internal
 * linkage (static templates instantiated over TU-local traits), so no
 * symbol compiled under one ISA's flags can be linker-folded into
 * another TU.
 *
 * Bit-exactness rules (the whole point of this file):
 *  - QK: one lane per token; channels accumulate sequentially c = 0..d-1
 *    with separate mul and add per step, replicating the
 *    `dot += q[c] * k[c]` rounding sequence of exec::foldTile exactly.
 *    The tail tokens run that scalar loop verbatim.
 *  - row max, exp and the packed path's half-rounding of P stay scalar
 *    per token, in token order.
 *  - PV: one lane per channel; tokens accumulate sequentially, so each
 *    acc[c] sees the identical addition order as exec::foldTile.
 *  - dequant is exact (code extraction and LUT indexing are integer
 *    ops), so any order works.
 *
 * Traits interface (W lanes): F/I vector types, zero, broadcast, load,
 * store, mul, add over floats; loadI, broadcastI, andI, orI, srlv,
 * gatherI, gatherF over 32-bit lanes.
 */
#ifndef BITDEC_EXEC_SIMD_KERNELS_GENERIC_H
#define BITDEC_EXEC_SIMD_KERNELS_GENERIC_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/half.h"

namespace bitdec::exec::simd {

namespace impl {

/**
 * The fold kernel: exec::foldTile over a channel-major K scratch,
 * V lanes at a time. V is the traits struct of the TU instantiating this.
 */
template <class V>
static void
foldTileImpl(const float* qf, int gq, int d, const float* kT, int t_stride,
             const float* vf, int tokens, float scale, float* m, float* l,
             float* acc_all, float* s, bool round_p)
{
    const float neg_inf = -__builtin_inff();
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::size_t ts = static_cast<std::size_t>(t_stride);
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        const float* qrow = qf + rr * dd;
        // QK: lane-per-token; channels accumulate in scalar order with
        // separate mul+add, so each lane rounds exactly like the scalar
        // dot loop.
        int t = 0;
        const auto vscale = V::broadcast(scale);
        // 4 token-vectors per pass: four independent add chains hide the
        // add latency, one q broadcast feeds all four. Each lane still
        // accumulates c = 0..d-1 sequentially, so rounding is unchanged.
        for (; t + 4 * V::W <= tokens; t += 4 * V::W) {
            auto d0 = V::zero(), d1 = V::zero(), d2 = V::zero(),
                 d3 = V::zero();
            for (int c = 0; c < d; c++) {
                const float* krow =
                    kT + static_cast<std::size_t>(c) * ts +
                    static_cast<std::size_t>(t);
                const auto q = V::broadcast(qrow[c]);
                d0 = V::add(d0, V::mul(q, V::load(krow)));
                d1 = V::add(d1, V::mul(q, V::load(krow + V::W)));
                d2 = V::add(d2, V::mul(q, V::load(krow + 2 * V::W)));
                d3 = V::add(d3, V::mul(q, V::load(krow + 3 * V::W)));
            }
            V::store(s + t, V::mul(d0, vscale));
            V::store(s + t + V::W, V::mul(d1, vscale));
            V::store(s + t + 2 * V::W, V::mul(d2, vscale));
            V::store(s + t + 3 * V::W, V::mul(d3, vscale));
        }
        for (; t + V::W <= tokens; t += V::W) {
            auto dot = V::zero();
            for (int c = 0; c < d; c++)
                dot = V::add(dot,
                             V::mul(V::broadcast(qrow[c]),
                                    V::load(kT + static_cast<std::size_t>(c) *
                                                     ts +
                                            static_cast<std::size_t>(t))));
            V::store(s + t, V::mul(dot, vscale));
        }
        for (; t < tokens; t++) {
            float dot = 0.f;
            for (int c = 0; c < d; c++)
                dot += qrow[c] * kT[static_cast<std::size_t>(c) * ts +
                                    static_cast<std::size_t>(t)];
            s[t] = dot * scale;
        }
        // Row max scalar, in token order (same semantics as foldTile's
        // interleaved std::max chain).
        float bm = m[rr];
        for (int i = 0; i < tokens; i++)
            bm = bm < s[i] ? s[i] : bm;
        const float rescale = m[rr] == neg_inf ? 0.f : std::exp(m[rr] - bm);
        float* acc = acc_all + rr * dd;
        l[rr] *= rescale;
        {
            const auto vr = V::broadcast(rescale);
            int c = 0;
            for (; c + V::W <= d; c += V::W)
                V::store(acc + c, V::mul(V::load(acc + c), vr));
            for (; c < d; c++)
                acc[c] *= rescale;
        }
        // PV: exp/rounding scalar per token; lane-per-channel
        // accumulation in token order — each acc[c] sees the scalar
        // addition sequence.
        for (int tt = 0; tt < tokens; tt++) {
            const float pexp = std::exp(s[tt] - bm);
            const float p = round_p ? roundToHalf(pexp) : pexp;
            l[rr] += p;
            const float* vrow = vf + static_cast<std::size_t>(tt) * dd;
            const auto vp = V::broadcast(p);
            int c = 0;
            for (; c + V::W <= d; c += V::W)
                V::store(acc + c,
                         V::add(V::load(acc + c), V::mul(vp, V::load(vrow +
                                                                     c))));
            for (; c < d; c++)
                acc[c] += p * vrow[c];
        }
        m[rr] = bm;
    }
}

/** Destination-ordered block dequant: gather words, variable-shift/mask
 *  the codes, gather values from the float LUT, contiguous store. */
template <class V>
static void
dequantLinearImpl(const std::uint32_t* units, const std::uint32_t* unit_of,
                  const std::uint32_t* shift_of, const std::uint32_t* param_of,
                  std::size_t n, int bits, const float* flut, float* out)
{
    const std::uint32_t maskv = (1u << bits) - 1u;
    const auto vmask = V::broadcastI(maskv);
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W) {
        const auto words = V::gatherI(units, V::loadI(unit_of + i));
        const auto codes =
            V::andI(V::srlv(words, V::loadI(shift_of + i)), vmask);
        const auto li = V::orI(V::loadI(param_of + i), codes);
        V::store(out + i, V::gatherF(flut, li));
    }
    for (; i < n; i++)
        out[i] = flut[param_of[i] |
                      ((units[unit_of[i]] >> shift_of[i]) & maskv)];
}

} // namespace impl

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNELS_GENERIC_H
