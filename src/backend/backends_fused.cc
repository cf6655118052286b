/**
 * @file
 * The fused hot-path backends, one per cache kind: `fused-fp16`
 * (contiguous FP16), `fused-packed` (BitDecoding's tile-fused path over
 * the induced-layout packed cache) and `fused-paged` (straight over the
 * paged KV pool — the serving engine's per-step attention backend).
 *
 * Each is registered once per kernel-table level (src/exec/simd/): the
 * base name runs the portable scalar table, `<base>-avx2` and
 * `<base>-avx512` the ISA tables. Every level runs the same driver with
 * the same chunking and merge order, so all levels of one backend digest
 * bitwise identically for any thread count, and they share capability
 * masks and plans (the base name still wins resolution ties by name
 * order).
 *
 * The ISA levels gate availability on exec::simd::levelEnabled(): a level
 * the CPU/OS lacks — or that `BITDEC_SIMD` caps away — is hidden from
 * listings and capability resolution, and resolving it by name is fatal
 * with the detected-feature list. The scalar level is always available.
 */
#include "backend/registry.h"
#include "core/packing_kernel.h"
#include "exec/fused_attention.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"
#include "layout/tile.h"

namespace bitdec::backend {

namespace {

namespace simd = exec::simd;

/** Name, availability and level reporting shared by the fused backends. */
class FusedBackend : public AttentionBackend
{
  public:
    FusedBackend(const char* base, simd::Level level)
        : level_(level),
          name_(level == simd::Level::Scalar
                    ? std::string(base)
                    : std::string(base) + "-" + simd::toString(level))
    {
    }

    const char* name() const override { return name_.c_str(); }

    bool available() const override
    {
        return level_ == simd::Level::Scalar || simd::levelEnabled(level_);
    }

    std::string unavailableReason() const override
    {
        return level_ == simd::Level::Scalar
                   ? std::string()
                   : simd::unavailableReason(level_);
    }

    const char* simdLevel() const override { return simd::toString(level_); }

  protected:
    /** The mask every fused backend shares, for one binding and format. */
    static BackendCapabilities fusedCaps(Binding binding, CacheKind cache,
                                         unsigned formats, unsigned scenarios)
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(binding);
        caps.cache_kinds = static_cast<unsigned>(cache);
        caps.quant_formats = formats;
        caps.scenarios = scenarios;
        caps.fused_hot_path = true;
        return caps;
    }

    simd::Level level_;

  private:
    std::string name_;
};

/** Tile-fused FP16 hot path over a contiguous cache. */
class FusedFp16Backend : public FusedBackend
{
  public:
    explicit FusedFp16Backend(simd::Level level)
        : FusedBackend("fused-fp16", level)
    {
    }

    BackendCapabilities capabilities() const override
    {
        return fusedCaps(Binding::Fp16Contiguous, CacheKind::Contiguous,
                         static_cast<unsigned>(QuantFormat::Fp16),
                         kContiguousScenarios);
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        p.kv_chunk = exec::kChunkTokens;
        p.splits = (shape.seq_len + exec::kChunkTokens - 1) /
                   exec::kChunkTokens;
        p.chunking = "128-token chunks, partials merged in chunk order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [this, &batch](const DecodeItem& it,
                                              exec::ThreadPool* inner) {
            return exec::fusedFp16Attention(*it.q, *it.fp16, batch.scale,
                                            inner, level_);
        });
    }
};

/** BitDecoding's fused packed-cache hot path. */
class FusedPackedBackend : public FusedBackend
{
  public:
    explicit FusedPackedBackend(simd::Level level)
        : FusedBackend("fused-packed", level)
    {
    }

    BackendCapabilities capabilities() const override
    {
        return fusedCaps(Binding::PackedLowBit, CacheKind::Contiguous,
                         static_cast<unsigned>(QuantFormat::Int4) |
                             static_cast<unsigned>(QuantFormat::Int2),
                         kContiguousScenarios);
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        // Chunk = kChunkBlocks residual blocks of the default KC-4
        // tiling (Eq. 1); caches packed with other configs scale Nr
        // accordingly.
        p.kv_chunk = core::kChunkBlocks *
                     layout::residualBlockSize(layout::WarpTiling{}, 4);
        p.splits = (shape.seq_len + p.kv_chunk - 1) / p.kv_chunk;
        p.chunking = "4 packed blocks per partial + FP16 residual tail, "
                     "partials merged in block order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [this, &batch](const DecodeItem& it,
                                              exec::ThreadPool* inner) {
            return core::fusedPackedAttention(*it.q, *it.packed, batch.scale,
                                              inner, level_);
        });
    }
};

/** Paged FP16 hot path: pages read in place, no gather copies. */
class FusedPagedBackend : public FusedBackend
{
  public:
    explicit FusedPagedBackend(simd::Level level)
        : FusedBackend("fused-paged", level)
    {
    }

    BackendCapabilities capabilities() const override
    {
        return fusedCaps(Binding::PagedFp16, CacheKind::Paged,
                         static_cast<unsigned>(QuantFormat::Fp16),
                         scenarioBit(attn::Scenario::Pages) |
                             scenarioBit(attn::Scenario::Serving));
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        p.kv_chunk = shape.page_size;
        p.splits = (shape.seq_len + shape.page_size - 1) / shape.page_size;
        p.chunking = "one page per partial, partials merged in page order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [this, &batch](const DecodeItem& it,
                                              exec::ThreadPool* inner) {
            return exec::fusedPagedAttention(*it.q, *it.paged, it.seq,
                                             batch.scale, inner, level_);
        });
    }
};

// Every backend at every level; a new ISA level is one more entry here.
const bool registered = [] {
    BackendRegistry& reg = BackendRegistry::instance();
    for (const simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        reg.add(std::make_unique<FusedFp16Backend>(level));
        reg.add(std::make_unique<FusedPackedBackend>(level));
        reg.add(std::make_unique<FusedPagedBackend>(level));
    }
    return true;
}();

} // namespace

// Link anchor called by BackendRegistry::instance(): keeps this TU (and
// its self-registering static initializer) in static-library links.
int
linkFusedBackends()
{
    return 0;
}

} // namespace bitdec::backend
