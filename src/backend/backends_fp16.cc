/**
 * @file
 * FP16 backends: the `reference` oracle and the `flash` FlashDecoding
 * baseline (the fused FP16 hot path lives in backends_fused.cc). Both
 * consume contiguous FP16 caches; `reference` additionally gathers paged
 * sequences, which makes it the slow-but-trustworthy serving oracle.
 */
#include "attention/flash_decoding.h"
#include "attention/reference.h"
#include "backend/registry.h"
#include "common/logging.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"

namespace bitdec::backend {

namespace {

/** Split count of the flash backend; fixed, so merges are reproducible. */
constexpr int kFlashSplits = 4;

/** [len x d] copy of the live rows (keys()/values() carry capacity). */
Tensor<Half>
liveRows(const Tensor<Half>& storage, int len, int d)
{
    Tensor<Half> out({static_cast<std::size_t>(len),
                      static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < out.numel(); i++)
        out[i] = storage[i];
    return out;
}

/** FP32 reference attention over one item's gathered FP16 content. */
class ReferenceBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "reference"; }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::Fp16Contiguous) |
                        static_cast<unsigned>(Binding::PagedFp16);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous) |
                           static_cast<unsigned>(CacheKind::Paged);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Fp16);
        caps.scenarios = kAllScenarios;
        return caps;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool*) {
            if (it.binding() == Binding::PagedFp16) {
                const Tensor<Half> k = it.paged->gatherKeys(it.seq);
                const Tensor<Half> v = it.paged->gatherValues(it.seq);
                if (k.numel() == 0) {
                    Tensor<float> zero({it.q->dim(0), it.q->dim(1)});
                    zero.fill(0.f);
                    return zero;
                }
                return attn::referenceAttention(*it.q, k, v, batch.scale);
            }
            const int len = it.fp16->length();
            if (len == 0) {
                Tensor<float> zero({it.q->dim(0), it.q->dim(1)});
                zero.fill(0.f);
                return zero;
            }
            const int d = it.fp16->headDim();
            return attn::referenceAttention(*it.q,
                                            liveRows(it.fp16->keys(), len, d),
                                            liveRows(it.fp16->values(), len,
                                                     d),
                                            batch.scale);
        });
    }
};

/** FlashDecoding-v2: split-KV online softmax over a contiguous cache. */
class FlashBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "flash"; }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::Fp16Contiguous);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Fp16);
        caps.scenarios = kContiguousScenarios;
        return caps;
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        p.splits = kFlashSplits;
        p.kv_chunk = (shape.seq_len + kFlashSplits - 1) / kFlashSplits;
        p.chunking = "fixed 4-way split-KV, LSE-combined in split order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool* inner) {
            return attn::flashDecodingAttention(*it.q, *it.fp16, batch.scale,
                                                kFlashSplits, inner);
        });
    }
};

BITDEC_REGISTER_BACKEND(ReferenceBackend);
BITDEC_REGISTER_BACKEND(FlashBackend);

} // namespace

// Link anchor called by BackendRegistry::instance(): keeps this TU (and
// its self-registering static initializers) in static-library links.
int
linkFp16Backends()
{
    return 0;
}

} // namespace bitdec::backend
