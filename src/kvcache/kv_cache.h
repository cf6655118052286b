/**
 * @file
 * KV-cache containers: full-precision, packed low-bit with residual
 * partition, and the byte-accounting both feed into the timing model.
 *
 * The functional containers operate per KV head: a cache is a growing
 * [len x head_dim] matrix for K and V. BitDecoding partitions it as
 * X = Xpack ∪ Xres (Section V-B): all full residual blocks are quantized
 * and packed; the tail (< Nr tokens) stays in half precision and is
 * re-processed each step until it fills a block.
 */
#ifndef BITDEC_KVCACHE_KV_CACHE_H
#define BITDEC_KVCACHE_KV_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/half.h"
#include "common/tensor.h"
#include "exec/dequant_plan.h"
#include "exec/simd/dequant_linear.h"
#include "exec/simd/kernel_table.h"
#include "exec/thread_pool.h"
#include "layout/induced_layout.h"
#include "layout/tile.h"
#include "quant/int_quant.h"
#include "quant/quant_params.h"

namespace bitdec::kv {

/** Growing FP16 K/V store for one head (the FlashDecoding baseline view). */
class Fp16HeadCache
{
  public:
    /** @param head_dim per-head hidden size d */
    explicit Fp16HeadCache(int head_dim);

    /** Appends one token's key and value vectors (length head_dim). */
    void append(const std::vector<Half>& k, const std::vector<Half>& v);

    /** Tokens currently cached. */
    int length() const { return len_; }

    /** Per-head hidden size. */
    int headDim() const { return head_dim_; }

    /** Key matrix view [len x d]. */
    const Tensor<Half>& keys() const { return k_; }

    /** Value matrix view [len x d]. */
    const Tensor<Half>& values() const { return v_; }

    /** Bytes this cache occupies in device memory. */
    double deviceBytes() const;

  private:
    void grow(int needed);

    int head_dim_;
    int len_ = 0;
    int cap_ = 0;
    Tensor<Half> k_;
    Tensor<Half> v_;
};

/**
 * One quantized+packed residual block of K or V: the packed codes and
 * their per-group metadata, nothing else. A code dequantizes in
 * registers from its group's (scale, zero) (quant::dequantMagicValue),
 * on the device and in the CPU kernel tables alike, so the host copy of
 * a 4-bit block is its 0.5 B/element of codes plus 4 B per group.
 */
struct PackedBlock
{
    std::vector<std::uint32_t> units; //!< induced-layout packed words
    Tensor<Half2> params;             //!< per-group scale/zero metadata
};

/**
 * Everything about a packed cache that follows from its shape alone —
 * (d, QuantConfig, WarpTiling) — built once per shape (Section V-B/C):
 * Nr, the K/V induced layouts, the dequant routing and the SoA plans
 * inverted from it. Immutable, so any number of caches and pool threads
 * read one copy without locks; shared() interns one instance per shape.
 */
struct PackedLayout
{
    /**
     * The one live layout of this shape: built on first use, shared by
     * every cache that holds it, and freed with the last of them.
     */
    static std::shared_ptr<const PackedLayout>
    shared(int head_dim, const quant::QuantConfig& config,
           const layout::WarpTiling& tiling);

    PackedLayout(int head_dim, const quant::QuantConfig& config,
                 const layout::WarpTiling& tiling);

    /** Host bytes of the routing tables and plans. */
    std::size_t hostBytes() const;

    const int head_dim;
    const quant::QuantConfig config;
    const layout::WarpTiling tiling;
    const int nr; //!< residual block capacity Nr (Eq. 1)

    const layout::InducedLayout k_layout; //!< key blocks: [d x Nr]
    const layout::InducedLayout v_layout; //!< value blocks: [Nr x d]

    //! Dequant routing into a token-major [Nr x d] scratch tile.
    const std::vector<exec::CodeRoute> k_routes, v_routes;

    //! SoA inversions of the routes for the SIMD dequant kernel. The key
    //! plan writes a channel-major [d x Nr] tile — the layout the vector
    //! QK loop reads, so no transpose pass; the value plan token-major.
    const exec::simd::LinearDequantPlan k_plan, v_plan;
};

/**
 * BitDecoding's partitioned low-bit cache for one head.
 *
 * Tokens enter the FP16 residual buffer; every time the residual reaches
 * Nr tokens the block is handed to the Residual Kernel path: quantized
 * (key granularity per config, values tensor-wise), packed through the
 * shape's shared PackedLayout, and appended to the packed region. Packing
 * runs on the kernel table of the host's enabled SIMD level (BITDEC_SIMD
 * caps it), resolved once at construction; every level writes the same
 * bytes.
 */
class PackedHeadCache
{
  public:
    /**
     * @param head_dim   per-head hidden size d
     * @param config     bit width / granularity / group size
     * @param tiling     warp tiling that induces the packing layout
     */
    PackedHeadCache(int head_dim, const quant::QuantConfig& config,
                    const layout::WarpTiling& tiling);

    /** Appends one token; may trigger packing of a full residual block. */
    void append(const std::vector<Half>& k, const std::vector<Half>& v);

    /**
     * Bulk-loads a prefill context: tops up a partly filled residual,
     * packs every following full block straight from the input rows,
     * and keeps the tail in the residual. Same state as appending the
     * rows one by one.
     *
     * @param pool spreads the whole blocks over its threads, one task
     *             per block; null packs them on the calling thread, as
     *             does a call from inside a task of @p pool. The
     *             residual top-up and tail always run on the caller.
     *             The result is bit-identical for any pool.
     */
    void prefill(const Tensor<Half>& k, const Tensor<Half>& v,
                 exec::ThreadPool* pool = &exec::ThreadPool::global());

    /** Total tokens (packed + residual). */
    int length() const { return packed_tokens_ + res_len_; }

    /** Tokens in the packed low-bit region (Npack). */
    int packedTokens() const { return packed_tokens_; }

    /** Tokens in the FP16 residual buffer (res_len). */
    int residualLength() const { return res_len_; }

    /** Residual block capacity Nr from Eq. 1. */
    int residualBlockSize() const { return layout_->nr; }

    /** Per-head hidden size. */
    int headDim() const { return layout_->head_dim; }

    /** The shape's shared layout, routes and plans. */
    const PackedLayout& layout() const { return *layout_; }

    /** Packed key blocks, oldest first. */
    const std::vector<PackedBlock>& keyBlocks() const { return k_blocks_; }

    /** Packed value blocks, oldest first. */
    const std::vector<PackedBlock>& valueBlocks() const { return v_blocks_; }

    /** Residual FP16 keys, [Nr x d]; only the first res_len rows are live. */
    const Tensor<Half>& residualKeys() const { return k_res_; }

    /** Residual FP16 values. */
    const Tensor<Half>& residualValues() const { return v_res_; }

    /** Device bytes: packed words + metadata + residual. */
    double deviceBytes() const;

    /** Metadata bytes only (scales/zeros), for traffic accounting. */
    double metadataBytes() const;

    /**
     * Host bytes of every heap buffer the cache owns: the blocks' words
     * and params, the block lists and the residual. The shared layout
     * is counted once, by PackedLayout::hostBytes().
     */
    std::size_t hostBytes() const;

    /**
     * Reference dequantization of the full cache back to [len x d]
     * matrices; used by tests to bound end-to-end quantization error.
     */
    void dequantizeAll(Tensor<Half>& k_out, Tensor<Half>& v_out) const;

  private:
    /** Appends one token row; packs the residual when it fills. */
    void appendRow(const Half* k, const Half* v);

    std::shared_ptr<const PackedLayout> layout_;

    std::vector<PackedBlock> k_blocks_;
    std::vector<PackedBlock> v_blocks_;
    int packed_tokens_ = 0;

    Tensor<Half> k_res_; //!< [Nr x d]
    Tensor<Half> v_res_;
    int res_len_ = 0;

    const exec::simd::KernelTable* kt_; //!< packs every block
};

/**
 * Quantizes one Nr-token block the way the Residual Kernel does and packs
 * it through @p layout's induced layouts, in one pass on kernel table
 * @p kt (every level writes the same bytes). PackedHeadCache packs
 * every block through it; exposed for tests.
 *
 * Keys are packed as the B operand of Q*K^T, i.e. transposed to [d x Nr];
 * values as the B operand of P*V, i.e. [Nr x d].
 *
 * @param k_rows,v_rows token-major [Nr x d] rows
 */
void packBlock(const exec::simd::KernelTable& kt, const PackedLayout& layout,
               const Half* k_rows, const Half* v_rows, PackedBlock& k_out,
               PackedBlock& v_out);

} // namespace bitdec::kv

#endif // BITDEC_KVCACHE_KV_CACHE_H
