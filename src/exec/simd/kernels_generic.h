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
 *  - quantize-pack: group min/max run one lane per group with the
 *    group's elements visited in scalar order, `min(x, acc)` /
 *    `max(x, acc)` — the NaN and signed-zero semantics of
 *    std::min(acc, x) / std::max(acc, x). Codes are elementwise: a real
 *    division, exact round-half-away-from-zero, the zero point added,
 *    a NaN-to-0 clamp. LUT values are one mul + one add narrowed
 *    round-to-nearest-even.
 *
 * Traits interface (W lanes): F/I vector types, zero, broadcast, load,
 * store, mul, add, sub, div, min, max, absF, trunc, blendGe over floats;
 * loadI, broadcastI, andI, orI, srlv, gatherI, gatherF over 32-bit
 * lanes; narrowWiden (RNE Half narrowing of W floats, widened back in
 * place); widenRows / widenTranspose (the level's convert_rows /
 * convert_transpose).
 */
#ifndef BITDEC_EXEC_SIMD_KERNELS_GENERIC_H
#define BITDEC_EXEC_SIMD_KERNELS_GENERIC_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/half.h"
#include "quant/int_quant.h"

namespace bitdec::exec::simd {

namespace impl {

// Unnamed: a traits struct with inline members must not get external
// linkage, or one ISA's copy of a member could be linker-folded into
// another TU.
namespace {

/** The 1-lane traits: the portable level, and every wider level's
 *  tails. Each op has its x86 counterpart's semantics, NaN included. */
struct Lane1
{
    static constexpr int W = 1;
    using F = float;
    using I = std::uint32_t;

    static F zero() { return 0.f; }
    static F broadcast(float x) { return x; }
    static F load(const float* p) { return *p; }
    static void store(float* p, F v) { *p = v; }
    static F mul(F a, F b) { return a * b; }
    static F add(F a, F b) { return a + b; }
    static F sub(F a, F b) { return a - b; }
    static F div(F a, F b) { return a / b; }
    // minps/maxps: the second operand whenever the compare is false.
    static F min(F a, F b) { return a < b ? a : b; }
    static F max(F a, F b) { return a > b ? a : b; }
    static F absF(F a) { return __builtin_fabsf(a); }
    /** Round toward zero; |a| >= 2^23, inf and NaN are already
     *  integral or pass through. */
    static F
    trunc(F a)
    {
        return absF(a) < 8388608.f
                   ? static_cast<float>(static_cast<std::int32_t>(a))
                   : a;
    }
    /** a >= b ? x : y, false on NaN. */
    static F blendGe(F a, F b, F x, F y) { return a >= b ? x : y; }

    static I loadI(const std::uint32_t* p) { return *p; }
    static I broadcastI(std::uint32_t x) { return x; }
    static I andI(I a, I b) { return a & b; }
    static I orI(I a, I b) { return a | b; }
    static I srlv(I a, I count) { return a >> count; }
    static I gatherI(const std::uint32_t* base, I idx) { return base[idx]; }
    static F gatherF(const float* base, I idx) { return base[idx]; }

    static void
    narrowWiden(float* f, Half* h)
    {
        const std::uint16_t b = floatToHalfBits(*f);
        *h = Half::fromBits(b);
        *f = halfBitsToFloat(b);
    }
};

} // namespace

/** 1024 + q for every code q of a 2- or 4-bit block (the widths a
 *  LinearDequantPlan packs): the magic-biased code values. */
static constexpr float kMagic[16] = {1024.f, 1025.f, 1026.f, 1027.f,
                                     1028.f, 1029.f, 1030.f, 1031.f,
                                     1032.f, 1033.f, 1034.f, 1035.f,
                                     1036.f, 1037.f, 1038.f, 1039.f};

/** Runs fn(V{}, i) on every V::W-aligned lane run of [0, n) and
 *  fn(Lane1{}, i) on the tail. */
template <class V, class Fn>
static void
forLanes(std::size_t n, Fn&& fn)
{
    std::size_t i = 0;
    for (; i + V::W <= n; i += V::W)
        fn(V{}, i);
    for (; i < n; i++)
        fn(Lane1{}, i);
}

/** Min/max of `steps` rows of `lanes` floats each (row s at
 *  base + s * stride), one lane per column, rows folded in order. */
template <class V>
static void
minMaxColumns(const float* base, std::size_t lanes, int steps,
              std::size_t stride, float* lo, float* hi)
{
    forLanes<V>(lanes, [&](auto v, std::size_t l) {
        using T = decltype(v);
        auto mn = T::load(base + l);
        auto mx = mn;
        for (int s = 1; s < steps; s++) {
            const auto x =
                T::load(base + static_cast<std::size_t>(s) * stride + l);
            mn = T::min(x, mn);
            mx = T::max(x, mx);
        }
        T::store(lo + l, mn);
        T::store(hi + l, mx);
    });
}

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

/** KernelTable::quantize_pack; see kernel_table.h for the contract. */
template <class V>
static void
quantizePackImpl(const Half* src, int tokens, int d, int bits,
                 int group_size, bool group_tokens,
                 const std::uint32_t* unit_of, const std::uint32_t* shift_of,
                 const std::uint32_t* param_of, bool plan_channel_major,
                 std::uint32_t* units, Half2* params, Half* lut,
                 float* lut_f32, float* scratch)
{
    const std::size_t nt = static_cast<std::size_t>(tokens);
    const std::size_t nd = static_cast<std::size_t>(d);
    const std::size_t gs = static_cast<std::size_t>(group_size);
    const std::size_t n = nt * nd;
    const std::size_t groups = n / gs;
    float* rows = scratch;     // token-major [tokens x d]
    float* cols = rows + n;    // channel-major [d x tokens]
    float* lo = cols + n;      // group min, in reduction order
    float* hi = lo + groups;   // group max, in reduction order
    float* sf = hi + groups;   // scale per group, params order
    float* zf = sf + groups;   // zero point per group, params order
    V::widenRows(src, n, rows);
    V::widenTranspose(src, tokens, d, cols, tokens);

    // Min/max with one lane per group: channels of a token-major row
    // for token groups, tokens of a channel-major row for channel
    // groups. Either way each group's elements fold in scalar order.
    if (group_tokens) {
        for (std::size_t tg = 0; tg < nt / gs; tg++)
            minMaxColumns<V>(rows + tg * gs * nd, nd, group_size, nd,
                             lo + tg * nd, hi + tg * nd);
    } else {
        for (std::size_t cg = 0; cg < nd / gs; cg++)
            minMaxColumns<V>(cols + cg * gs * nt, nt, group_size, nt,
                             lo + cg * nt, hi + cg * nt);
    }

    // Params scalar per group. r walks lo/hi in reduction order, g is
    // the group's params index. Then the group's LUT row:
    // (1024 + q) * s + Half(-(1024 + z) * s), the magic-FMA arithmetic
    // of quant::dequantMagicValue, narrowed to Half and widened back.
    const std::size_t levels = std::size_t{1} << bits;
    const std::size_t outer = group_tokens ? nt / gs : nd / gs;
    const std::size_t inner = group_tokens ? nd : nt;
    for (std::size_t a = 0; a < outer; a++) {
        for (std::size_t b = 0; b < inner; b++) {
            const std::size_t r = a * inner + b;
            const std::size_t g = group_tokens ? r : b * outer + a;
            const quant::QuantParams p =
                quant::computeParams(lo[r], hi[r], bits);
            params[g].x = p.scale;
            params[g].y = p.zero;
            const float s = halfBitsToFloat(p.scale.bits());
            const float z = halfBitsToFloat(p.zero.bits());
            sf[g] = s;
            zf[g] = z;
            const float nb =
                halfBitsToFloat(floatToHalfBits(-(1024.0f + z) * s));
            float* row = lut_f32 + g * levels;
            Half* hrow = lut + g * levels;
            forLanes<V>(levels, [&](auto v, std::size_t q) {
                using T = decltype(v);
                T::store(row + q, T::add(T::mul(T::load(kMagic + q),
                                                T::broadcast(s)),
                                         T::broadcast(nb)));
                T::narrowWiden(row + q, hrow + q);
            });
        }
    }

    // Codes in plan order, overwriting the widened input they came from:
    // q = clamp(round(x / s) + z, 0, 2^bits - 1), NaN -> 0.
    float* x = plan_channel_major ? cols : rows;
    forLanes<V>(n, [&](auto v, std::size_t i) {
        using T = decltype(v);
        const auto g = T::srlv(T::loadI(param_of + i),
                               T::broadcastI(static_cast<std::uint32_t>(bits)));
        const auto y = T::div(T::load(x + i), T::gatherF(sf, g));
        const auto t = T::trunc(y);
        // std::round: a fraction of at least one half steps away from 0.
        const auto away = T::blendGe(y, T::zero(), T::broadcast(1.f),
                                     T::broadcast(-1.f));
        const auto q = T::add(
            T::add(t, T::blendGe(T::absF(T::sub(y, t)), T::broadcast(0.5f),
                                 away, T::zero())),
            T::gatherF(zf, g));
        // max first: maxps returns its second operand (0) for a NaN q.
        T::store(x + i,
                 T::min(T::max(q, T::zero()),
                        T::broadcast(static_cast<float>(levels - 1))));
    });
    const std::size_t n_units =
        n * static_cast<std::size_t>(bits) / 32;
    for (std::size_t u = 0; u < n_units; u++)
        units[u] = 0;
    for (std::size_t i = 0; i < n; i++)
        units[unit_of[i]] |= static_cast<std::uint32_t>(x[i]) << shift_of[i];
}

} // namespace impl

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNELS_GENERIC_H
