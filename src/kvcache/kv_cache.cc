#include "kvcache/kv_cache.h"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "exec/simd/dispatch.h"
#include "quant/fast_dequant.h"

namespace bitdec::kv {

Fp16HeadCache::Fp16HeadCache(int head_dim) : head_dim_(head_dim)
{
    BITDEC_ASSERT(head_dim > 0, "head_dim must be positive");
}

void
Fp16HeadCache::grow(int needed)
{
    if (needed <= cap_)
        return;
    int new_cap = std::max(cap_ * 2, 64);
    while (new_cap < needed)
        new_cap *= 2;
    Tensor<Half> nk({static_cast<std::size_t>(new_cap),
                     static_cast<std::size_t>(head_dim_)});
    Tensor<Half> nv({static_cast<std::size_t>(new_cap),
                     static_cast<std::size_t>(head_dim_)});
    for (int t = 0; t < len_; t++) {
        for (int d = 0; d < head_dim_; d++) {
            nk.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d)) =
                k_.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d));
            nv.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d)) =
                v_.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d));
        }
    }
    k_ = std::move(nk);
    v_ = std::move(nv);
    cap_ = new_cap;
}

void
Fp16HeadCache::append(const std::vector<Half>& k, const std::vector<Half>& v)
{
    BITDEC_ASSERT(static_cast<int>(k.size()) == head_dim_ &&
                  static_cast<int>(v.size()) == head_dim_,
                  "K/V vector length must equal head_dim");
    grow(len_ + 1);
    for (int d = 0; d < head_dim_; d++) {
        k_.at(static_cast<std::size_t>(len_), static_cast<std::size_t>(d)) =
            k[static_cast<std::size_t>(d)];
        v_.at(static_cast<std::size_t>(len_), static_cast<std::size_t>(d)) =
            v[static_cast<std::size_t>(d)];
    }
    len_++;
}

double
Fp16HeadCache::deviceBytes() const
{
    return 2.0 * len_ * head_dim_ * 2.0; // K and V, 2 bytes per half
}

namespace {

/**
 * Dequant routing of one block's codes into a token-major [Nr x d]
 * scratch tile. Keys pack transposed ([d x Nr]: row = channel, col =
 * token), values natural ([Nr x d]: row = token, col = channel). Group
 * indices follow the flat order of the blocks' params tensors: [Nr x d/gs]
 * at (token, channel/gs) tensor-wise, [Nr/gs x d] at (token/gs, channel)
 * channel-wise (keys only; values are always tensor-wise).
 */
std::vector<exec::CodeRoute>
blockRoutes(const layout::InducedLayout& lay, int head_dim, int group_size,
            bool transposed, bool tensor_wise)
{
    const auto d = static_cast<std::uint32_t>(head_dim);
    const auto gs = static_cast<std::uint32_t>(group_size);
    const auto token_channel = [transposed](int row, int col) {
        return transposed ? std::pair<std::uint32_t, std::uint32_t>(col, row)
                          : std::pair<std::uint32_t, std::uint32_t>(row, col);
    };
    return exec::buildDequantRoutes(
        lay,
        [=](int row, int col) {
            const auto [t, c] = token_channel(row, col);
            return t * d + c;
        },
        [=](int row, int col) {
            const auto [t, c] = token_channel(row, col);
            return tensor_wise ? t * (d / gs) + c / gs : (t / gs) * d + c;
        });
}

} // namespace

std::shared_ptr<const PackedLayout>
PackedLayout::shared(int head_dim, const quant::QuantConfig& config,
                     const layout::WarpTiling& tiling)
{
    static std::mutex mu;
    static std::map<std::array<int, 7>, std::weak_ptr<const PackedLayout>>
        interned;
    const std::array<int, 7> key{
        head_dim, config.bits, static_cast<int>(config.key_granularity),
        config.group_size, static_cast<int>(tiling.mma), tiling.wm, tiling.wn};
    const std::lock_guard<std::mutex> lock(mu);
    // Drop the shapes no cache holds any more, so a sweep over many
    // shapes leaves nothing behind.
    std::erase_if(interned, [](const auto& e) { return e.second.expired(); });
    std::weak_ptr<const PackedLayout>& slot = interned[key];
    std::shared_ptr<const PackedLayout> layout = slot.lock();
    if (!layout)
        slot = layout =
            std::make_shared<const PackedLayout>(head_dim, config, tiling);
    return layout;
}

PackedLayout::PackedLayout(int head_dim, const quant::QuantConfig& config,
                           const layout::WarpTiling& tiling)
    : head_dim(head_dim),
      config(config),
      tiling(tiling),
      nr(layout::residualBlockSize(tiling, config.bits)),
      k_layout(tiling, config.bits, head_dim, nr),
      v_layout(tiling, config.bits, nr, head_dim),
      k_routes(blockRoutes(
          k_layout, head_dim, config.group_size, /*transposed=*/true,
          config.key_granularity == quant::Granularity::TensorWise)),
      v_routes(blockRoutes(v_layout, head_dim, config.group_size,
                           /*transposed=*/false, /*tensor_wise=*/true)),
      // The key plan remaps every token-major destination t*d+c to the
      // channel-major slot c*Nr+t, so the vector path dequantizes keys
      // directly into QK's preferred layout.
      k_plan(exec::simd::buildLinearDequantPlan(
          k_routes, config.bits, static_cast<std::size_t>(nr) * head_dim,
          [du = static_cast<std::uint32_t>(head_dim),
           nru = static_cast<std::uint32_t>(nr)](std::uint32_t dest) {
              return (dest % du) * nru + dest / du;
          })),
      v_plan(exec::simd::buildLinearDequantPlan(
          v_routes, config.bits, static_cast<std::size_t>(nr) * head_dim))
{
    BITDEC_ASSERT(head_dim % tiling.pk() == 0,
                  "head_dim must be a multiple of the MMA K extent");
    BITDEC_ASSERT(nr % tiling.pk() == 0,
                  "residual block must be a multiple of the MMA K extent");
}

std::size_t
PackedLayout::hostBytes() const
{
    return (k_routes.capacity() + v_routes.capacity()) *
               sizeof(exec::CodeRoute) +
           k_plan.hostBytes() + v_plan.hostBytes();
}

PackedHeadCache::PackedHeadCache(int head_dim, const quant::QuantConfig& config,
                                 const layout::WarpTiling& tiling)
    : layout_(PackedLayout::shared(head_dim, config, tiling)),
      k_res_({static_cast<std::size_t>(layout_->nr),
              static_cast<std::size_t>(head_dim)}),
      v_res_({static_cast<std::size_t>(layout_->nr),
              static_cast<std::size_t>(head_dim)}),
      kt_(&exec::simd::requireKernels(exec::simd::enabledLevelCap()))
{
}

void
PackedHeadCache::append(const std::vector<Half>& k, const std::vector<Half>& v)
{
    BITDEC_ASSERT(static_cast<int>(k.size()) == headDim() &&
                  static_cast<int>(v.size()) == headDim(),
                  "K/V vector length must equal head_dim");
    appendRow(k.data(), v.data());
}

void
PackedHeadCache::appendRow(const Half* k, const Half* v)
{
    const std::size_t d = static_cast<std::size_t>(headDim());
    const std::size_t at = static_cast<std::size_t>(res_len_) * d;
    std::copy(k, k + d, k_res_.data() + at);
    std::copy(v, v + d, v_res_.data() + at);
    res_len_++;
    if (res_len_ == residualBlockSize()) {
        packBlock(*kt_, *layout_, k_res_.data(), v_res_.data(),
                  k_blocks_.emplace_back(), v_blocks_.emplace_back());
        packed_tokens_ += residualBlockSize();
        res_len_ = 0;
    }
}

void
PackedHeadCache::prefill(const Tensor<Half>& k, const Tensor<Half>& v,
                         exec::ThreadPool* pool)
{
    BITDEC_ASSERT(k.rank() == 2 && v.rank() == 2 && k.dim(0) == v.dim(0) &&
                  static_cast<int>(k.dim(1)) == headDim() &&
                  static_cast<int>(v.dim(1)) == headDim(),
                  "prefill tensors must be [len x head_dim]");
    const std::size_t len = k.dim(0);
    const std::size_t d = static_cast<std::size_t>(headDim());
    const std::size_t nr = static_cast<std::size_t>(residualBlockSize());
    std::size_t t = 0;
    // Top up a partly filled residual first, so later blocks start on a
    // block boundary; then pack whole blocks straight from the input.
    for (; res_len_ != 0 && t < len; t++)
        appendRow(k.data() + t * d, v.data() + t * d);
    // Whole blocks are independent: each packs into its own slot, on any
    // thread (packBlock's scratch is thread-local; the kernel table and
    // the layout are immutable), so the bytes do not depend on the pool.
    const std::size_t nb = (len - t) / nr;
    const std::size_t b0 = k_blocks_.size();
    k_blocks_.resize(b0 + nb);
    v_blocks_.resize(b0 + nb);
    const Half* k0 = k.data() + t * d;
    const Half* v0 = v.data() + t * d;
    exec::parallelFor(pool, nb, [&](std::size_t b) {
        packBlock(*kt_, *layout_, k0 + b * nr * d, v0 + b * nr * d,
                  k_blocks_[b0 + b], v_blocks_[b0 + b]);
    });
    packed_tokens_ += static_cast<int>(nb * nr);
    for (t += nb * nr; t < len; t++)
        appendRow(k.data() + t * d, v.data() + t * d);
}

double
PackedHeadCache::deviceBytes() const
{
    double bytes = 0;
    for (const auto& b : k_blocks_)
        bytes += b.units.size() * 4.0 + b.params.numel() * 4.0;
    for (const auto& b : v_blocks_)
        bytes += b.units.size() * 4.0 + b.params.numel() * 4.0;
    bytes += 2.0 * residualBlockSize() * headDim() * 2.0; // residual K, V
    return bytes;
}

double
PackedHeadCache::metadataBytes() const
{
    double bytes = 0;
    for (const auto& b : k_blocks_)
        bytes += b.params.numel() * 4.0;
    for (const auto& b : v_blocks_)
        bytes += b.params.numel() * 4.0;
    return bytes;
}

std::size_t
PackedHeadCache::hostBytes() const
{
    std::size_t bytes = 0;
    for (const auto* blocks : {&k_blocks_, &v_blocks_}) {
        bytes += blocks->capacity() * sizeof(PackedBlock);
        for (const PackedBlock& b : *blocks)
            bytes += b.units.capacity() * sizeof(std::uint32_t) +
                     b.params.numel() * sizeof(Half2);
    }
    bytes += (k_res_.numel() + v_res_.numel()) * sizeof(Half);
    return bytes;
}

void
PackedHeadCache::dequantizeAll(Tensor<Half>& k_out, Tensor<Half>& v_out) const
{
    const int len = length();
    const int hd = headDim();
    const int nr = residualBlockSize();
    const quant::QuantConfig& cfg = layout_->config;
    k_out.reset({static_cast<std::size_t>(len), static_cast<std::size_t>(hd)});
    v_out.reset({static_cast<std::size_t>(len), static_cast<std::size_t>(hd)});

    for (std::size_t blk = 0; blk < k_blocks_.size(); blk++) {
        // Keys were packed transposed ([d x Nr]); params stay in K-natural
        // (token, channel) indexing.
        const Tensor<std::uint8_t> kc =
            unpackInduced(layout_->k_layout, k_blocks_[blk].units);
        const Tensor<std::uint8_t> vc =
            unpackInduced(layout_->v_layout, v_blocks_[blk].units);
        for (int t = 0; t < nr; t++) {
            const std::size_t tok = blk * static_cast<std::size_t>(nr) +
                                    static_cast<std::size_t>(t);
            for (int d = 0; d < hd; d++) {
                // Key params: granularity per config over [Nr x d].
                quant::QuantParams kp;
                if (cfg.key_granularity == quant::Granularity::TensorWise) {
                    kp = quant::QuantParams::fromHalf2(
                        k_blocks_[blk].params.at(
                            static_cast<std::size_t>(t),
                            static_cast<std::size_t>(d / cfg.group_size)));
                } else {
                    kp = quant::QuantParams::fromHalf2(
                        k_blocks_[blk].params.at(
                            static_cast<std::size_t>(t / cfg.group_size),
                            static_cast<std::size_t>(d)));
                }
                const quant::QuantParams vp = quant::QuantParams::fromHalf2(
                    v_blocks_[blk].params.at(
                        static_cast<std::size_t>(t),
                        static_cast<std::size_t>(d / cfg.group_size)));
                // Magic-folded arithmetic: what the Packing Kernel's lop3
                // fast path computes on device.
                k_out.at(tok, static_cast<std::size_t>(d)) =
                    Half(quant::dequantMagicValue(
                        kc.at(static_cast<std::size_t>(d),
                              static_cast<std::size_t>(t)),
                        kp));
                v_out.at(tok, static_cast<std::size_t>(d)) =
                    Half(quant::dequantMagicValue(
                        vc.at(static_cast<std::size_t>(t),
                              static_cast<std::size_t>(d)),
                        vp));
            }
        }
    }
    for (int t = 0; t < res_len_; t++) {
        const std::size_t tok =
            static_cast<std::size_t>(packed_tokens_ + t);
        for (int d = 0; d < hd; d++) {
            k_out.at(tok, static_cast<std::size_t>(d)) =
                k_res_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(d));
            v_out.at(tok, static_cast<std::size_t>(d)) =
                v_res_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(d));
        }
    }
}

void
packBlock(const exec::simd::KernelTable& kt, const PackedLayout& layout,
          const Half* k_rows, const Half* v_rows, PackedBlock& k_out,
          PackedBlock& v_out)
{
    const quant::QuantConfig& qc = layout.config;
    const int d = layout.head_dim;
    const int nr = layout.nr;
    const std::size_t n =
        static_cast<std::size_t>(nr) * static_cast<std::size_t>(d);
    const std::size_t gs = static_cast<std::size_t>(qc.group_size);
    BITDEC_ASSERT(static_cast<std::size_t>(d) % gs == 0 &&
                      static_cast<std::size_t>(nr) % gs == 0,
                  "group size ", qc.group_size,
                  " must divide head_dim and the block size");
    thread_local std::vector<float> scratch;
    scratch.resize(exec::simd::quantizePackScratch(nr, d, qc.group_size));

    // Keys feed Q*K^T as the B operand, so their plan indexes a
    // channel-major tile; values (always tensor-wise, Section V-C) a
    // token-major one.
    const bool kc = qc.key_granularity == quant::Granularity::ChannelWise;
    const auto pack = [&](const Half* rows, bool group_tokens,
                          const exec::simd::LinearDequantPlan& plan,
                          bool channel_major, PackedBlock& out) {
        out.units.resize(n * static_cast<std::size_t>(qc.bits) / 32);
        if (group_tokens)
            out.params.reset({static_cast<std::size_t>(nr) / gs,
                              static_cast<std::size_t>(d)});
        else
            out.params.reset({static_cast<std::size_t>(nr),
                              static_cast<std::size_t>(d) / gs});
        kt.quantize_pack(rows, nr, d, qc.bits, qc.group_size, group_tokens,
                         plan.view(), channel_major, out.units.data(),
                         out.params.data(), scratch.data());
    };
    pack(k_rows, kc, layout.k_plan, true, k_out);
    pack(v_rows, false, layout.v_plan, false, v_out);
}

} // namespace bitdec::kv
