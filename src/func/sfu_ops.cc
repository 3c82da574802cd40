#include "func/sfu_ops.hh"

#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "precision/float_format.hh"

namespace rapid {
namespace sfu {

float
fastExp(float x)
{
    // Range-reduce: e^x = 2^(x * log2(e)) = 2^i * 2^f, f in [0, 1).
    // The fraction uses a degree-3 minimax-style polynomial for 2^f.
    if (x > 88.0f)
        return std::numeric_limits<float>::infinity();
    if (x < -87.0f)
        return 0.0f;
    const float z = x * 1.44269504f; // log2(e)
    const float i = std::floor(z);
    const float f = z - i;
    // 2^f ~ 1 + f*(c1 + f*(c2 + f*c3)) with coefficients chosen so
    // the ends match exactly (max rel. error ~2e-4).
    const float p =
        1.0f + f * (0.6951f + f * (0.2262f + f * 0.0789f));
    return std::ldexp(p, int(i));
}

float
fastLog(float x)
{
    rapid_assert(x > 0.0f, "fastLog of non-positive value");
    // x = 2^e * m with m in [1, 2): ln x = e*ln2 + ln m.
    int e = 0;
    float m = std::frexp(x, &e); // m in [0.5, 1)
    m *= 2.0f;
    --e;
    // ln m over [1, 2) via a degree-5 minimax polynomial in (m - 1)
    // (Hart-style coefficients, ~1e-5 max error).
    const float t = m - 1.0f;
    const float p =
        t * (0.99949556f +
             t * (-0.49190896f +
                  t * (0.28947478f +
                       t * (-0.13606275f + t * 0.03215845f))));
    return float(e) * 0.69314718f + p;
}

float
fastReciprocal(float x)
{
    rapid_assert(std::fpclassify(x) != FP_ZERO, "fastReciprocal of zero");
    // Bit-trick seed followed by two Newton-Raphson refinements:
    // y' = y * (2 - x*y).
    uint32_t bits = std::bit_cast<uint32_t>(x);
    uint32_t seed_bits = 0x7EF311C3u - bits;
    float y = std::bit_cast<float>(seed_bits);
    y = y * (2.0f - x * y);
    y = y * (2.0f - x * y);
    return y;
}

float
fastSigmoid(float x)
{
    // sigmoid(-x) = 1 - sigmoid(x): evaluate on the stable side.
    if (x >= 0.0f) {
        const float e = fastExp(-x);
        return fastReciprocal(1.0f + e);
    }
    const float e = fastExp(x);
    return e * fastReciprocal(1.0f + e);
}

} // namespace sfu

namespace {

template <typename Fast, typename Accurate>
Tensor
applySfu(const Tensor &x, SfuMode mode, Fast fast, Accurate accurate)
{
    Tensor out = x;
    if (mode == SfuMode::Fast)
        out.apply([&](float v) {
            return dlfloat16().quantize(fast(v));
        });
    else
        out.apply([&](float v) {
            return dlfloat16().quantize(float(accurate(double(v))));
        });
    return out;
}

} // namespace

Tensor
sfuSigmoid(const Tensor &x, SfuMode mode)
{
    return applySfu(x, mode, sfu::fastSigmoid, [](double v) {
        return 1.0 / (1.0 + std::exp(-v));
    });
}

Tensor
sfuSoftmax(const Tensor &x, SfuMode mode)
{
    rapid_assert(x.rank() == 2, "sfuSoftmax expects rank-2 logits");
    Tensor out = x;
    for (int64_t i = 0; i < x.dim(0); ++i) {
        float mx = x.at(i, 0);
        for (int64_t j = 1; j < x.dim(1); ++j)
            mx = std::max(mx, x.at(i, j));
        // Fast exp per element, FP32 row reduction on the SFU.
        double sum = 0.0;
        for (int64_t j = 0; j < x.dim(1); ++j) {
            float e = mode == SfuMode::Fast
                          ? sfu::fastExp(x.at(i, j) - mx)
                          : std::exp(x.at(i, j) - mx);
            out.at(i, j) = e;
            sum += double(e);
        }
        const float inv = mode == SfuMode::Fast
                              ? sfu::fastReciprocal(float(sum))
                              : float(1.0 / sum);
        for (int64_t j = 0; j < x.dim(1); ++j)
            out.at(i, j) =
                dlfloat16().quantize(out.at(i, j) * inv);
    }
    return out;
}

} // namespace rapid
