/**
 * @file
 * Fused FP16 attention kernels of the CPU execution backend.
 *
 * These are the serving-side hot paths: decode attention straight over the
 * paged KV pool (page-table indirection, no gather copies) and over a
 * contiguous FP16 cache. Pages/tiles convert to float in bulk through the
 * requested level's kernel table (exec/simd/kernel_table.h) into
 * reusable thread-local scratch; KV chunks of a fixed size process
 * independently (optionally across the thread pool) and their
 * online-softmax partials merge sequentially in chunk order, so results
 * are bitwise identical for any thread count and any level.
 */
#ifndef BITDEC_EXEC_FUSED_ATTENTION_H
#define BITDEC_EXEC_FUSED_ATTENTION_H

#include "common/half.h"
#include "common/tensor.h"
#include "exec/simd/dispatch.h"
#include "exec/thread_pool.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"

namespace bitdec::exec {

/** Tokens per split chunk of the contiguous fused path; paged chunks are
 *  one page. Fixed so the merge order never depends on thread count. */
constexpr int kChunkTokens = 128;

/**
 * Per-row split-KV partial softmax state of one KV chunk: running max,
 * exp-sum and unnormalized [gq x d] output. Chunks fill these
 * independently; the caller merges them sequentially in chunk order.
 */
struct SoftmaxPartial
{
    std::vector<float> m;   //!< per-row running max
    std::vector<float> l;   //!< per-row exp-sum
    std::vector<float> acc; //!< [gq x d] unnormalized output

    /** Resets to the empty state (-inf max, zero sums). */
    void init(int gq, int d);
};

/**
 * Sequentially merges chunk partials in vector order (the split-KV
 * log-sum-exp combine). Deterministic for any thread count because the
 * order is the chunk order, never the completion order.
 */
SoftmaxPartial mergePartials(const std::vector<SoftmaxPartial>& parts, int gq,
                             int d);

/** Normalizes a merged partial into the [gq x d] attention output. */
Tensor<float> finalizePartial(const SoftmaxPartial& st, int gq, int d);

/**
 * Folds one float K/V tile of @p tokens rows into a partial state: scores
 * against every query row, online-softmax rescale, PV accumulation. The
 * token-major reference oracle of the kernel tables' fold_tile, which
 * every level matches bit for bit (tests/test_properties.cc).
 *
 * @param qf      [gq x d] float queries
 * @param kf, vf  [tokens x d] float K/V tile
 * @param round_p round P through half precision — the packed kernel's
 *                sAcc round trip; false for the FP16/paged paths
 */
void foldTile(const float* qf, int gq, int d, const float* kf,
              const float* vf, int tokens, float scale, SoftmaxPartial& st,
              bool round_p = false);

/**
 * Grow-only scratch of at least @p n floats in @p buf, starting on a
 * 64-byte line so full-width vector loads of a tile never straddle two
 * lines. A plain vector's alignment is allocator luck, and a 16-lane
 * load split across lines costs a second access.
 */
float* alignedScratch(std::vector<float>& buf, std::size_t n);

/**
 * Folds one token-major FP16 K/V tile into a partial state through a
 * kernel table: K widens into a channel-major scratch (the lane-per-token
 * QK layout), V token-major, then fold_tile runs without P rounding.
 * Scratch is thread-local and grow-only. The shared per-tile step of the
 * FP16 and paged drivers and of the packed driver's residual tail.
 */
void foldHalfTile(const simd::KernelTable& kt, const float* qf, int gq,
                  int d, const Half* k, const Half* v, int tokens,
                  float scale, SoftmaxPartial& st);

/**
 * Fused decode attention for one sequence of a paged cache, reading K/V
 * page-by-page in place (the paged kernels' dataflow — no
 * gatherKeys/gatherValues materialization).
 *
 * Matches attn::referenceAttention over the gathered sequence to ~1e-3
 * max-abs (fp32 accumulation order and split merges are the only
 * differences). Every @p level produces bitwise-identical output.
 *
 * @param q     [gq x d] queries
 * @param cache paged FP16 cache
 * @param seq   sequence id
 * @param scale logit scale
 * @param pool  optional pool to spread KV chunks over; null = serial
 * @param level kernel table to run the tiles on; fatal when this host
 *              cannot run it (backends gate availability upstream)
 */
Tensor<float> fusedPagedAttention(const Tensor<Half>& q,
                                  const kv::PagedHeadCache& cache, int seq,
                                  float scale, ThreadPool* pool = nullptr,
                                  simd::Level level = simd::Level::Scalar);

/**
 * Fused decode attention over a contiguous FP16 cache; same chunked
 * online-softmax pipeline as the paged variant.
 */
Tensor<float> fusedFp16Attention(const Tensor<Half>& q,
                                 const kv::Fp16HeadCache& cache, float scale,
                                 ThreadPool* pool = nullptr,
                                 simd::Level level = simd::Level::Scalar);

} // namespace bitdec::exec

#endif // BITDEC_EXEC_FUSED_ATTENTION_H
