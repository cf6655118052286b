/**
 * @file
 * Low-bit dequant-then-compute baselines: `kivi` (separated kernels) and
 * `qserve` (CUDA-core fused GEMVs). Both consume the pre-packing
 * QuantizedMatrix pair; BitDecoding's own `fused-packed` hot path over
 * the packed cache lives in backends_fused.cc.
 */
#include "attention/kivi_baseline.h"
#include "attention/qserve_baseline.h"
#include "backend/registry.h"
#include "kvcache/kv_cache.h"
#include "quant/int_quant.h"

namespace bitdec::backend {

namespace {

/** KIVI: dequantize-everything-then-dense-attention (five kernels). */
class KiviBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "kivi"; }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::QuantizedMatrices);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Int4) |
                             static_cast<unsigned>(QuantFormat::Int2);
        caps.scenarios = kContiguousScenarios;
        return caps;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool*) {
            return attn::kiviAttention(*it.q, *it.kq, *it.vq, batch.scale);
        });
    }
};

/** QServe/Atom: fused CUDA-core GEMVs, one query head at a time. */
class QServeBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "qserve"; }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::QuantizedMatrices);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        // W4A8KV4: the modeled system is 4-bit only.
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Int4);
        caps.scenarios = kContiguousScenarios;
        return caps;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool*) {
            return attn::cudaCoreFusedAttention(*it.q, *it.kq, *it.vq,
                                                batch.scale);
        });
    }
};

BITDEC_REGISTER_BACKEND(KiviBackend);
BITDEC_REGISTER_BACKEND(QServeBackend);

} // namespace

int
linkLowbitBackends()
{
    return 0;
}

} // namespace bitdec::backend
