#include "quant/int_quant.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bitdec::quant {

QuantParams
computeParams(float min_val, float max_val, int bits)
{
    BITDEC_ASSERT(bits >= 1 && bits <= 8, "unsupported bit width ", bits);
    const float qmax = static_cast<float>((1 << bits) - 1);
    float scale = (max_val - min_val) / qmax;
    if (scale <= 0.f || !std::isfinite(scale)) {
        // Constant group: any positive scale round-trips exactly.
        scale = 1.0f;
    }
    // Parameters live in half precision on device; round here so the
    // quantizer and dequantizer agree bit-for-bit with the kernels.
    // The zero-point is NOT clamped to [0, qmax]: ranges that exclude
    // zero (possible for attention keys) put it outside, and clamping
    // would shear the whole group.
    Half hscale(scale);
    // A range too narrow for half underflows the scale to zero, and the
    // zero point -min/0 to NaN; the smallest positive half keeps the
    // params finite within about one step of the true scale.
    if (hscale.bits() == 0)
        hscale = Half::fromBits(1);
    const Half hzero(std::round(-min_val / hscale.toFloat()));
    return {hscale, hzero};
}

std::uint8_t
quantizeValue(float x, const QuantParams& p, int bits)
{
    const float qmax = static_cast<float>((1 << bits) - 1);
    const float q =
        std::round(x / p.scale.toFloat()) + p.zero.toFloat();
    if (std::isnan(q))
        return 0;
    return static_cast<std::uint8_t>(std::clamp(q, 0.0f, qmax));
}

float
dequantizeValue(std::uint8_t q, const QuantParams& p)
{
    // Matches the device FMA: y = scale * q - scale * zero, in fp32
    // intermediate then rounded to half on store.
    const float y = p.scale.toFloat() *
                    (static_cast<float>(q) - p.zero.toFloat());
    return Half(y).toFloat();
}

QuantParams
QuantizedMatrix::paramsFor(std::size_t row, std::size_t col) const
{
    std::size_t gr, gc;
    if (granularity == Granularity::TensorWise) {
        gr = row;
        gc = col / static_cast<std::size_t>(group_size);
    } else {
        gr = row / static_cast<std::size_t>(group_size);
        gc = col;
    }
    return QuantParams::fromHalf2(params.at(gr, gc));
}

QuantizedMatrix
quantizeMatrix(const Tensor<Half>& x, int bits, Granularity granularity,
               int group_size)
{
    BITDEC_ASSERT(x.rank() == 2, "quantizeMatrix expects a 2-D tensor");
    const std::size_t rows = x.dim(0);
    const std::size_t cols = x.dim(1);
    const std::size_t gs = static_cast<std::size_t>(group_size);

    QuantizedMatrix out;
    out.granularity = granularity;
    out.bits = bits;
    out.group_size = group_size;
    out.codes.reset({rows, cols});

    if (granularity == Granularity::TensorWise) {
        BITDEC_ASSERT(cols % gs == 0,
                      "hidden dim ", cols, " not divisible by group size ",
                      group_size);
        out.params.reset({rows, cols / gs});
        for (std::size_t r = 0; r < rows; r++) {
            for (std::size_t g = 0; g < cols / gs; g++) {
                float mn = x.at(r, g * gs).toFloat();
                float mx = mn;
                for (std::size_t i = 1; i < gs; i++) {
                    const float v = x.at(r, g * gs + i).toFloat();
                    mn = std::min(mn, v);
                    mx = std::max(mx, v);
                }
                const QuantParams p = computeParams(mn, mx, bits);
                out.params.at(r, g) = p.asHalf2();
                for (std::size_t i = 0; i < gs; i++) {
                    out.codes.at(r, g * gs + i) =
                        quantizeValue(x.at(r, g * gs + i).toFloat(), p, bits);
                }
            }
        }
    } else {
        BITDEC_ASSERT(rows % gs == 0,
                      "sequence block ", rows, " not divisible by group size ",
                      group_size);
        out.params.reset({rows / gs, cols});
        for (std::size_t g = 0; g < rows / gs; g++) {
            for (std::size_t c = 0; c < cols; c++) {
                float mn = x.at(g * gs, c).toFloat();
                float mx = mn;
                for (std::size_t i = 1; i < gs; i++) {
                    const float v = x.at(g * gs + i, c).toFloat();
                    mn = std::min(mn, v);
                    mx = std::max(mx, v);
                }
                const QuantParams p = computeParams(mn, mx, bits);
                out.params.at(g, c) = p.asHalf2();
                for (std::size_t i = 0; i < gs; i++) {
                    out.codes.at(g * gs + i, c) =
                        quantizeValue(x.at(g * gs + i, c).toFloat(), p, bits);
                }
            }
        }
    }
    return out;
}

Tensor<Half>
dequantizeMatrix(const QuantizedMatrix& q)
{
    const std::size_t rows = q.codes.dim(0);
    const std::size_t cols = q.codes.dim(1);
    Tensor<Half> out({rows, cols});
    for (std::size_t r = 0; r < rows; r++) {
        for (std::size_t c = 0; c < cols; c++) {
            out.at(r, c) =
                Half(dequantizeValue(q.codes.at(r, c), q.paramsFor(r, c)));
        }
    }
    return out;
}

float
maxAbsError(const Tensor<Half>& x, const QuantizedMatrix& q)
{
    float err = 0.f;
    for (std::size_t r = 0; r < x.dim(0); r++) {
        for (std::size_t c = 0; c < x.dim(1); c++) {
            const float y =
                dequantizeValue(q.codes.at(r, c), q.paramsFor(r, c));
            err = std::max(err, std::fabs(y - x.at(r, c).toFloat()));
        }
    }
    return err;
}

} // namespace bitdec::quant
