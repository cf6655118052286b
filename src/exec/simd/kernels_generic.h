/**
 * @file
 * Width-generic implementation of the hot-path kernels, parameterized on
 * a vector-traits struct: 1 lane (kernels_scalar.cc), 8 lanes
 * (kernels_avx2.cc), 16 lanes (kernels_avx512.cc). Included only by the
 * kernel-table translation units (and by tests/test_properties.cc, which
 * checks Lane1's narrowing directly), and free of ISA intrinsics so the
 * portable scalar TU can include it too. Everything here has internal
 * linkage (static templates instantiated over TU-local traits), so no
 * symbol compiled under one ISA's flags can be linker-folded into
 * another TU.
 *
 * Bit-exactness rules (the whole point of this file):
 *  - fold: query rows go in blocks of up to kFoldRows. A block loads
 *    each K vector and each V row once for all its rows, and keeps its
 *    PV accumulators in registers across the whole tile. Every output
 *    element still sees exec::foldTile's rounding sequence:
 *  - QK: one lane per token; channels accumulate sequentially c = 0..d-1
 *    with separate mul and add per step, replicating the
 *    `dot += q[c] * k[c]` rounding sequence of exec::foldTile exactly.
 *    The tail tokens run that loop one lane wide.
 *  - row max, exp and the l sum stay scalar per row, in token order;
 *    P's half rounding is the traits' narrowWiden (RNE), which rounds
 *    every lane like roundToHalf.
 *  - PV: one lane per channel; the rescale multiplies each accumulator
 *    once as it enters registers, then tokens accumulate sequentially,
 *    so each acc[c] sees the identical operation order as
 *    exec::foldTile.
 *  - dequant: code extraction is integer-exact (window permute, shift,
 *    mask); the value is (1024 + code) * s + nb narrowed RNE, with s
 *    and nb = Half(-(1024 + z) * s) from the group's params — the
 *    arithmetic of quant::dequantMagicValue, one mul and one add.
 *  - quantize-pack: group min/max run one lane per group with the
 *    group's elements visited in scalar order, `min(x, acc)` /
 *    `max(x, acc)` — the NaN and signed-zero semantics of
 *    std::min(acc, x) / std::max(acc, x). Codes are elementwise: a real
 *    division, exact round-half-away-from-zero, the zero point added,
 *    a NaN-to-0 clamp.
 *
 * Traits interface (W lanes): F/I vector types; kFoldRows (query rows
 * per fold block) and kAccRegs (accumulator registers a block may
 * hold); zero, broadcast, load, store, mul, add, sub, div, min, max,
 * absF, neg, trunc, blendGe over floats; loadI, broadcastI, andI, srlv,
 * cvtI (int -> float), gatherF over 32-bit lanes; loadParams (W Half2
 * as 32-bit lanes), widenHalf (the low 16 bits of each lane as a Half),
 * permute64 (the words at a 64-word window's local indices);
 * narrowWiden (RNE Half narrowing of W floats, widened back);
 * widenRows / widenTranspose (the level's convert_rows /
 * convert_transpose).
 */
#ifndef BITDEC_EXEC_SIMD_KERNELS_GENERIC_H
#define BITDEC_EXEC_SIMD_KERNELS_GENERIC_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/half.h"
#include "exec/simd/kernel_table.h"
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
    static constexpr int kFoldRows = 4;
    static constexpr int kAccRegs = 8;
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
    /** Sign flip, NaN included (what C++ unary minus compiles to). */
    static F neg(F a) { return -a; }
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
    static I srlv(I a, I count) { return a >> count; }
    static F cvtI(I a) { return static_cast<float>(a); }
    static F gatherF(const float* base, I idx) { return base[idx]; }
    static I loadParams(const Half2* p) { return p->toWord(); }
    static F
    widenHalf(I a)
    {
        return halfBitsToFloat(static_cast<std::uint16_t>(a));
    }
    static I
    permute64(const std::uint32_t* window, I idx)
    {
        return window[idx & (kPlanWindow - 1)];
    }

    /**
     * halfBitsToFloat(floatToHalfBits(a)) without the table walk: RNE to
     * the 2^-24 grid below 2^-14 and to 11 significant bits above, by
     * adding and subtracting a power of two whose ulp is the target
     * step; inf at 65520 and above; NaN quieted with its payload cut to
     * Half's 10 bits. Branch-free, so the portable level's value-row
     * loop vectorizes under plain -O2.
     */
    static F
    narrowWiden(F a)
    {
        const std::uint32_t u = std::bit_cast<std::uint32_t>(a);
        const std::uint32_t sign = u & 0x80000000u;
        // |a| fits a non-negative int32, so plain int compares give the
        // all-ones masks of the selects.
        const std::int32_t mag = static_cast<std::int32_t>(u ^ sign);
        const auto all = [](bool b) {
            return 0u - static_cast<std::uint32_t>(b);
        };
        const std::uint32_t sub = all(mag < 0x38800000);
        const std::uint32_t c =
            (0x3F000000u & sub) | // 0.5: ulp 2^-24, the subnormal step
            (((static_cast<std::uint32_t>(mag) & 0x7F800000u) + (13u << 23)) &
             0x7F800000u & ~sub);
        const float x = std::bit_cast<float>(static_cast<std::uint32_t>(mag));
        std::uint32_t r = std::bit_cast<std::uint32_t>(
            (x + std::bit_cast<float>(c)) - std::bit_cast<float>(c));
        const std::uint32_t inf = all(mag >= 0x477FF000); // >= 65520
        r = (r & ~inf) | (0x7F800000u & inf);
        const std::uint32_t nan = all(mag > 0x7F800000);
        r = (r & ~nan) |
            ((static_cast<std::uint32_t>(mag) | 0x00400000u) & 0x7FFFE000u &
             nan);
        return std::bit_cast<float>(r | sign);
    }
};

/** The operands of one fold block: R query rows and their state. */
struct FoldRows
{
    const float* q;    //!< [R x d] queries
    float* m;          //!< R running maxima
    float* l;          //!< R exp-sums
    float* acc;        //!< [R x d] accumulators
    float* p;          //!< [R x tokens] scores, then P
    float rescale[16]; //!< per row: exp(old max - new max)
};

} // namespace

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

/** Vectors per row a fold block of R rows unrolls: the traits'
 *  accumulator budget shared by the rows, 1 to 4. */
template <class V, int R>
static constexpr int
foldVecs()
{
    constexpr int u = V::kAccRegs / R;
    return u < 1 ? 1 : (u > 4 ? 4 : u);
}

/**
 * QK of R rows over the U * T::W-token runs from @p t on: each K vector
 * is loaded once and feeds all R rows. Returns the first token not
 * covered.
 */
template <class T, int R, int U>
static int
qkRuns(const FoldRows& fr, int d, const float* kT, std::size_t ts,
       int tokens, float scale, int t)
{
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::size_t nt = static_cast<std::size_t>(tokens);
    for (; t + U * T::W <= tokens; t += U * T::W) {
        typename T::F a[R][U];
#pragma GCC unroll 16
        for (int r = 0; r < R; r++)
#pragma GCC unroll 4
            for (int u = 0; u < U; u++)
                a[r][u] = T::zero();
        for (int c = 0; c < d; c++) {
            const float* krow = kT + static_cast<std::size_t>(c) * ts +
                                static_cast<std::size_t>(t);
            typename T::F k[U];
#pragma GCC unroll 4
            for (int u = 0; u < U; u++)
                k[u] = T::load(krow + u * T::W);
#pragma GCC unroll 16
            for (int r = 0; r < R; r++) {
                const auto q = T::broadcast(
                    fr.q[static_cast<std::size_t>(r) * dd +
                         static_cast<std::size_t>(c)]);
#pragma GCC unroll 4
                for (int u = 0; u < U; u++)
                    a[r][u] = T::add(a[r][u], T::mul(q, k[u]));
            }
        }
        const auto vscale = T::broadcast(scale);
#pragma GCC unroll 16
        for (int r = 0; r < R; r++)
#pragma GCC unroll 4
            for (int u = 0; u < U; u++)
                T::store(fr.p + static_cast<std::size_t>(r) * nt +
                             static_cast<std::size_t>(t + u * T::W),
                         T::mul(a[r][u], vscale));
    }
    return t;
}

/**
 * PV of R rows over the P * T::W-channel slices from @p c on: the
 * slice's R x P accumulators enter registers rescaled, take every token
 * of the tile (each V row slice loaded once for all R rows), and leave.
 * Returns the first channel not covered.
 */
template <class T, int R, int P>
static int
pvRuns(const FoldRows& fr, int d, const float* vf, int tokens, int c)
{
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::size_t nt = static_cast<std::size_t>(tokens);
    for (; c + P * T::W <= d; c += P * T::W) {
        typename T::F a[R][P];
#pragma GCC unroll 16
        for (int r = 0; r < R; r++) {
            const auto vr = T::broadcast(fr.rescale[r]);
#pragma GCC unroll 4
            for (int j = 0; j < P; j++)
                a[r][j] = T::mul(
                    T::load(fr.acc + static_cast<std::size_t>(r) * dd +
                            static_cast<std::size_t>(c + j * T::W)),
                    vr);
        }
        for (int t = 0; t < tokens; t++) {
            const float* vrow = vf + static_cast<std::size_t>(t) * dd +
                                static_cast<std::size_t>(c);
            typename T::F v[P];
#pragma GCC unroll 4
            for (int j = 0; j < P; j++)
                v[j] = T::load(vrow + j * T::W);
#pragma GCC unroll 16
            for (int r = 0; r < R; r++) {
                const auto pb = T::broadcast(
                    fr.p[static_cast<std::size_t>(r) * nt +
                         static_cast<std::size_t>(t)]);
#pragma GCC unroll 4
                for (int j = 0; j < P; j++)
                    a[r][j] = T::add(a[r][j], T::mul(pb, v[j]));
            }
        }
#pragma GCC unroll 16
        for (int r = 0; r < R; r++)
#pragma GCC unroll 4
            for (int j = 0; j < P; j++)
                T::store(fr.acc + static_cast<std::size_t>(r) * dd +
                             static_cast<std::size_t>(c + j * T::W),
                         a[r][j]);
    }
    return c;
}

/** One block of R query rows folded over the tile. */
template <class V, int R>
static void
foldRows(FoldRows& fr, int d, const float* kT, std::size_t ts,
         const float* vf, int tokens, float scale, bool round_p)
{
    constexpr int U = foldVecs<V, R>();
    const float neg_inf = -__builtin_inff();
    const std::size_t nt = static_cast<std::size_t>(tokens);

    int t = qkRuns<V, R, U>(fr, d, kT, ts, tokens, scale, 0);
    if constexpr (U > 1)
        t = qkRuns<V, R, 1>(fr, d, kT, ts, tokens, scale, t);
    if constexpr (V::W > 1)
        qkRuns<Lane1, R, 1>(fr, d, kT, ts, tokens, scale, t);

    // Softmax scalar per row, in token order: the max chain, exp, the
    // optional half rounding of P, then l.
    for (int r = 0; r < R; r++) {
        float* p = fr.p + static_cast<std::size_t>(r) * nt;
        float bm = fr.m[r];
        for (std::size_t i = 0; i < nt; i++)
            bm = bm < p[i] ? p[i] : bm;
        fr.rescale[r] = fr.m[r] == neg_inf ? 0.f : std::exp(fr.m[r] - bm);
        for (std::size_t i = 0; i < nt; i++)
            p[i] = std::exp(p[i] - bm);
        if (round_p)
            forLanes<V>(nt, [&](auto v, std::size_t i) {
                using T = decltype(v);
                T::store(p + i, T::narrowWiden(T::load(p + i)));
            });
        float l = fr.l[r] * fr.rescale[r];
        for (std::size_t i = 0; i < nt; i++)
            l += p[i];
        fr.l[r] = l;
        fr.m[r] = bm;
    }

    int c = pvRuns<V, R, U>(fr, d, vf, tokens, 0);
    if constexpr (U > 1)
        c = pvRuns<V, R, 1>(fr, d, vf, tokens, c);
    if constexpr (V::W > 1)
        pvRuns<Lane1, R, 1>(fr, d, vf, tokens, c);
}

/** Folds @p rows query rows from fr on: blocks of R rows while they
 *  last, then the remainder in one smaller block. */
template <class V, int R>
static void
foldBlocks(int rows, FoldRows& fr, int d, const float* kT, std::size_t ts,
           const float* vf, int tokens, float scale, bool round_p)
{
    static_assert(R >= 1 && R <= 16, "fold block rows out of range");
    const std::size_t dd = static_cast<std::size_t>(d);
    for (; rows >= R; rows -= R) {
        foldRows<V, R>(fr, d, kT, ts, vf, tokens, scale, round_p);
        fr.q += R * dd;
        fr.m += R;
        fr.l += R;
        fr.acc += R * dd;
    }
    if constexpr (R > 1)
        if (rows > 0)
            foldBlocks<V, R - 1>(rows, fr, d, kT, ts, vf, tokens, scale,
                                 round_p);
}

/**
 * The fold kernel: exec::foldTile over a channel-major K scratch, in
 * blocks of V::kFoldRows query rows. V is the traits struct of the TU
 * instantiating this.
 */
template <class V>
static void
foldTileImpl(const float* qf, int gq, int d, const float* kT, int t_stride,
             const float* vf, int tokens, float scale, float* m, float* l,
             float* acc, float* s, bool round_p)
{
    FoldRows fr{qf, m, l, acc, s, {}};
    foldBlocks<V, V::kFoldRows>(gq, fr, d, kT,
                                static_cast<std::size_t>(t_stride), vf,
                                tokens, scale, round_p);
}

/** The portable level's value rows: rows[g * L + q] is code q of group
 *  g, narrowWiden((1024 + q) * s + nb). */
template <int L>
static void
valueRows(const float* sf, const float* nbf, std::size_t groups, float* rows)
{
    for (std::size_t g = 0; g < groups; g++) {
        float* row = rows + g * L;
        const float s = sf[g], nb = nbf[g];
#pragma GCC unroll 1
        for (int q = 0; q < L; q++)
            row[q] = Lane1::narrowWiden(Lane1::add(
                Lane1::mul(1024.f + static_cast<float>(q), s), nb));
    }
}

/**
 * Destination-ordered block dequant. Each group's (s, nb) is widened
 * once; each vector of codes comes from one 64-word window by permute,
 * shift and mask; the value is narrowWiden((1024 + code) * s + nb).
 * Runs of a uniform plan broadcast their group's (s, nb); others take
 * them per lane. The portable level instead builds each group's
 * 2^bits-entry value row once and looks codes up in it.
 */
template <class V>
static void
dequantLinearImpl(const std::uint32_t* units, const Half2* params,
                  std::size_t groups, const PlanView& plan_ref, float* out,
                  float* scratch)
{
    // A local copy: the vector stores below may alias anything, which
    // would otherwise reload the plan's pointers every iteration.
    const PlanView plan = plan_ref;
    float* sf = scratch;
    float* nbf = sf + groups;
    // nb = Half(-(1024 + z) * s): quant::dequantMagicValue's folded bias.
    forLanes<V>(groups, [&](auto v, std::size_t g) {
        using T = decltype(v);
        const auto w = T::loadParams(params + g);
        const auto s = T::widenHalf(T::andI(w, T::broadcastI(0xFFFFu)));
        const auto z = T::widenHalf(T::srlv(w, T::broadcastI(16)));
        T::store(sf + g, s);
        T::store(nbf + g, T::narrowWiden(T::mul(
                              T::neg(T::add(T::broadcast(1024.f), z)), s)));
    });

    const std::uint32_t mask = (1u << plan.bits) - 1u;
    if constexpr (V::W == 1) {
        float* rows = nbf + groups; // [groups x 2^bits]
        if (plan.bits == 4)
            valueRows<16>(sf, nbf, groups, rows);
        else
            valueRows<4>(sf, nbf, groups, rows);
        for (std::size_t r0 = 0; r0 < plan.n; r0 += kPlanRun) {
            const std::uint32_t* window = units + plan.window[r0 / kPlanRun];
            const std::size_t r1 = std::min(plan.n, r0 + kPlanRun);
            for (std::size_t i = r0; i < r1; i++) {
                const std::uint32_t idx = plan.code[i];
                out[i] = rows[plan.param[i] |
                              ((Lane1::permute64(window, idx) >> (idx >> 8)) &
                               mask)];
            }
        }
        return;
    } else {
        static_assert(kPlanRun % V::W == 0,
                      "a vector must not straddle two plan runs");
        const auto run = [&](auto v, std::size_t i, auto s, auto nb) {
            using T = decltype(v);
            const auto idx = T::loadI(plan.code + i);
            const auto words =
                T::permute64(units + plan.window[i / kPlanRun], idx);
            const auto codes = T::andI(
                T::srlv(words, T::srlv(idx, T::broadcastI(8))),
                T::broadcastI(mask));
            T::store(out + i,
                     T::narrowWiden(T::add(
                         T::mul(T::add(T::cvtI(codes), T::broadcast(1024.f)),
                                s),
                         nb)));
        };
        if (plan.uniform)
            forLanes<V>(plan.n, [&](auto v, std::size_t i) {
                using T = decltype(v);
                const std::uint32_t g = plan.group[i / kPlanRun];
                run(v, i, T::broadcast(sf[g]), T::broadcast(nbf[g]));
            });
        else
            forLanes<V>(plan.n, [&](auto v, std::size_t i) {
                using T = decltype(v);
                const auto g =
                    T::srlv(T::loadI(plan.param + i),
                            T::broadcastI(static_cast<std::uint32_t>(
                                plan.bits)));
                run(v, i, T::gatherF(sf, g), T::gatherF(nbf, g));
            });
    }
}

/** KernelTable::quantize_pack; see kernel_table.h for the contract. */
template <class V>
static void
quantizePackImpl(const Half* src, int tokens, int d, int bits,
                 int group_size, bool group_tokens, const PlanView& plan,
                 bool plan_channel_major, std::uint32_t* units,
                 Half2* params, float* scratch)
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
    // the group's params index.
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
            sf[g] = halfBitsToFloat(p.scale.bits());
            zf[g] = halfBitsToFloat(p.zero.bits());
        }
    }

    // Codes in plan order, overwriting the widened input they came from:
    // q = clamp(round(x / s) + z, 0, 2^bits - 1), NaN -> 0.
    float* x = plan_channel_major ? cols : rows;
    forLanes<V>(n, [&](auto v, std::size_t i) {
        using T = decltype(v);
        const auto g = T::srlv(T::loadI(plan.param + i),
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
    for (std::size_t i = 0; i < n; i++) {
        const std::uint32_t idx = plan.code[i];
        units[plan.window[i / kPlanRun] + (idx & (kPlanWindow - 1))] |=
            static_cast<std::uint32_t>(x[i]) << (idx >> 8);
    }
}

} // namespace impl

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNELS_GENERIC_H
