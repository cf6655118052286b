/**
 * @file
 * Asymmetric uniform integer quantization for FP16 tensors.
 *
 * Implements the math every modeled KV-cache quantizer shares:
 *   scale = (max - min) / (2^b - 1),  zero = round(-min / scale)
 *   q = clamp(round(x / scale) + zero, 0, 2^b - 1)
 *   x' = scale * (q - zero)
 * with parameters rounded to half precision exactly as the device stores
 * them (half2 metadata), so functional error matches the real system.
 */
#ifndef BITDEC_QUANT_INT_QUANT_H
#define BITDEC_QUANT_INT_QUANT_H

#include <cstdint>
#include <vector>

#include "common/tensor.h"
#include "quant/quant_params.h"

namespace bitdec::quant {

/** Derives quantization parameters from a group's min/max. */
QuantParams computeParams(float min_val, float max_val, int bits);

/** Quantizes one value; parameters are in half precision. A NaN
 *  quantizes to code 0. */
std::uint8_t quantizeValue(float x, const QuantParams& p, int bits);

/** Dequantizes one value exactly as the device FMA does. */
float dequantizeValue(std::uint8_t q, const QuantParams& p);

/**
 * Group-quantized matrix: integer codes plus per-group half2 parameters.
 *
 * codes has the same shape as the source; params is indexed by
 * (group row, group col) according to the granularity that produced it.
 */
struct QuantizedMatrix
{
    Tensor<std::uint8_t> codes;  //!< one code per element (pre-packing)
    Tensor<Half2> params;        //!< per-group scale/zero metadata
    Granularity granularity;
    int bits = 4;
    int group_size = 32;

    /** Parameters of the group containing element (row, col). */
    QuantParams paramsFor(std::size_t row, std::size_t col) const;
};

/**
 * Quantizes a row-major [rows x cols] matrix with grouped scaling.
 *
 * TensorWise: groups of @p group_size consecutive elements along a row
 * (per-token groups along the hidden dimension).
 * ChannelWise: groups of @p group_size consecutive rows within a column
 * (per-channel groups along the sequence dimension).
 */
QuantizedMatrix quantizeMatrix(const Tensor<Half>& x, int bits,
                               Granularity granularity, int group_size);

/** Dequantizes back to half precision (reference path). */
Tensor<Half> dequantizeMatrix(const QuantizedMatrix& q);

/** Largest absolute dequantization error over all elements. */
float maxAbsError(const Tensor<Half>& x, const QuantizedMatrix& q);

} // namespace bitdec::quant

#endif // BITDEC_QUANT_INT_QUANT_H
