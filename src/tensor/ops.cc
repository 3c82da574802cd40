// Every lane vector of 32 or 64 bytes here lives inside a function
// compiled for AVX2 or AVX-512 (common/lanes.hh).
#pragma GCC diagnostic ignored "-Wpsabi"

#include "tensor/ops.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/lanes.hh"
#include "tensor/lane_matmul.hh"

namespace rapid {

namespace {

// The FP32 GEMM at each width, compiled for its target: every helper
// over the lane vectors inlines into these, so no wide vector code is
// compiled for a CPU that may lack it.

RAPID_TARGET_AVX512 void
matmulAvx512(const float *a, const float *b, int64_t m, int64_t k,
             int64_t n, float *out)
{
    matmulLanes<16>(a, b, m, k, n, out);
}

RAPID_TARGET_AVX2 void
matmulAvx2(const float *a, const float *b, int64_t m, int64_t k, int64_t n,
           float *out)
{
    matmulLanes<8>(a, b, m, k, n, out);
}

void
matmulBaseline(const float *a, const float *b, int64_t m, int64_t k,
               int64_t n, float *out)
{
    matmulLanes<4>(a, b, m, k, n, out);
}

/** The FP32 GEMM of the calling thread: a LaneScope's, else the widest
 *  this CPU executes, picked on first use. */
const LaneMatmul &
activeLaneMatmul()
{
    static const LaneMatmul kWidths[] = {
        {16, &matmulAvx512}, {8, &matmulAvx2}, {4, &matmulBaseline}};
    static const LaneMatmul &picked = widestLanes(kWidths);
    return LaneScope<LaneMatmul>::activeOr(picked);
}

} // namespace

int64_t
convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    rapid_assert(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2");
    const int64_t m = a.dim(0), k = a.dim(1);
    rapid_assert(b.dim(0) == k, "matmul inner-dimension mismatch");
    const int64_t n = b.dim(1);
    Tensor out({m, n});
    const LaneMatmul &lanes = activeLaneMatmul();
    if (swapsRoles(lanes.width, m, n)) {
        std::vector<float> bt(size_t(n * k)), at(size_t(k * m)),
            ct(size_t(n * m));
        transposeInto(b.data(), k, n, n, bt.data(), k);
        transposeInto(a.data(), m, k, k, at.data(), m);
        lanes.run(bt.data(), at.data(), n, k, m, ct.data());
        transposeInto(ct.data(), n, m, m, out.data(), n);
    } else {
        lanes.run(a.data(), b.data(), m, k, n, out.data());
    }
    return out;
}

void
transposeInto(const float *src, int64_t rows, int64_t cols, int64_t lds,
              float *dst, int64_t ldd)
{
    // 4x4 tiles through SSE2 registers: two rounds of interleaves turn
    // four rows of a tile into its four columns. The ragged edges move
    // one element at a time. Either way every pattern is copied as is.
    using Lanes = FloatLanes<4>;
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float *s = src + r * lds;
        int64_t c = 0;
        for (; c + 4 <= cols; c += 4) {
            const Lanes x0 = loadLanes<4>(s + c),
                        x1 = loadLanes<4>(s + lds + c),
                        x2 = loadLanes<4>(s + 2 * lds + c),
                        x3 = loadLanes<4>(s + 3 * lds + c);
            const Lanes lo01 = __builtin_shufflevector(x0, x1, 0, 4, 1, 5),
                        hi01 = __builtin_shufflevector(x0, x1, 2, 6, 3, 7),
                        lo23 = __builtin_shufflevector(x2, x3, 0, 4, 1, 5),
                        hi23 = __builtin_shufflevector(x2, x3, 2, 6, 3, 7);
            float *d = dst + c * ldd + r;
            storeLanes(d, __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5));
            storeLanes(d + ldd,
                       __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7));
            storeLanes(d + 2 * ldd,
                       __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5));
            storeLanes(d + 3 * ldd,
                       __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7));
        }
        for (; c < cols; ++c)
            for (int64_t l = 0; l < 4; ++l)
                dst[c * ldd + r + l] = s[l * lds + c];
    }
    for (; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            dst[c * ldd + r] = src[r * lds + c];
}

Tensor
transpose(const Tensor &a)
{
    rapid_assert(a.rank() == 2, "transpose expects rank-2");
    const int64_t rows = a.dim(0), cols = a.dim(1);
    Tensor out({cols, rows});
    transposeInto(a.data(), rows, cols, cols, out.data(), rows);
    return out;
}

bool
allFinite(const float *v, int64_t n)
{
    // A binary32 is NaN or Inf exactly when its exponent field is all
    // ones, and then adding one to the field carries into the sign bit.
    uint32_t carries = 0;
    forEachBlocked(n, [&](int64_t i) {
        carries |= (std::bit_cast<uint32_t>(v[i]) & 0x7f800000u) + 0x00800000u;
    });
    return (carries & 0x80000000u) == 0;
}

FiniteScan
scanFinite(const float *v, int64_t n)
{
    // Magnitudes order as their bit patterns do, and every finite one
    // lies below the all-ones exponent field.
    uint32_t non_finite = 0;
    uint32_t max_abs = 0;
    forEachBlocked(n, [&](int64_t i) {
        const uint32_t mag = std::bit_cast<uint32_t>(v[i]) & 0x7fffffffu;
        const bool finite = mag < 0x7f800000u;
        non_finite |= finite ? 0u : 1u;
        max_abs = std::max(max_abs, finite ? mag : 0u);
    });
    return {non_finite == 0, std::bit_cast<float>(max_abs)};
}

Tensor
biasAdd(const Tensor &x, const Tensor &bias)
{
    rapid_assert(bias.rank() == 1, "bias must be rank-1");
    Tensor out = x;
    const float *b = bias.data();
    if (x.rank() == 4) {
        rapid_assert(bias.dim(0) == x.dim(1), "bias/channel mismatch");
        const int64_t channels = x.dim(1), plane = x.dim(2) * x.dim(3);
        float *p = out.data();
        for (int64_t nc = 0; nc < x.dim(0) * channels; ++nc, p += plane) {
            const float bc = b[nc % channels];
            for (int64_t e = 0; e < plane; ++e)
                p[e] += bc;
        }
        return out;
    }
    rapid_assert(x.rank() == 2 && bias.dim(0) == x.dim(1),
                 "bias/column mismatch");
    const int64_t rows = x.dim(0), cols = x.dim(1);
    for (int64_t i = 0; i < rows; ++i) {
        float *row = out.data() + i * cols;
        for (int64_t j = 0; j < cols; ++j)
            row[j] += b[j];
    }
    return out;
}

Tensor
relu(const Tensor &x)
{
    Tensor out = x;
    out.apply([](float v) { return v > 0.0f ? v : 0.0f; });
    return out;
}

Tensor
maxPool2d(const Tensor &x, int64_t k, int64_t s)
{
    rapid_assert(x.rank() == 4, "pooling expects NCHW");
    const int64_t ho = convOutDim(x.dim(2), k, s, 0);
    const int64_t wo = convOutDim(x.dim(3), k, s, 0);
    Tensor out({x.dim(0), x.dim(1), ho, wo});
    for (int64_t n = 0; n < x.dim(0); ++n) {
        for (int64_t c = 0; c < x.dim(1); ++c) {
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    float acc = -std::numeric_limits<float>::infinity();
                    for (int64_t ky = 0; ky < k; ++ky)
                        for (int64_t kx = 0; kx < k; ++kx)
                            acc = std::max(acc, x.at(n, c, oy * s + ky,
                                                     ox * s + kx));
                    out.at(n, c, oy, ox) = acc;
                }
            }
        }
    }
    return out;
}

Tensor
globalAvgPool(const Tensor &x)
{
    rapid_assert(x.rank() == 4, "globalAvgPool expects NCHW");
    Tensor out({x.dim(0), x.dim(1)});
    const double scale = 1.0 / double(x.dim(2) * x.dim(3));
    for (int64_t n = 0; n < x.dim(0); ++n) {
        for (int64_t c = 0; c < x.dim(1); ++c) {
            double acc = 0.0;
            for (int64_t h = 0; h < x.dim(2); ++h)
                for (int64_t w = 0; w < x.dim(3); ++w)
                    acc += double(x.at(n, c, h, w));
            out.at(n, c) = float(acc * scale);
        }
    }
    return out;
}

Tensor
softmax(const Tensor &x)
{
    rapid_assert(x.rank() == 2, "softmax expects rank-2 logits");
    const int64_t rows = x.dim(0), cols = x.dim(1);
    Tensor out({rows, cols});
    std::vector<double> e(size_t(cols), 0.0); // each exp, computed once
    for (int64_t i = 0; i < rows; ++i) {
        const float *in = x.data() + i * cols;
        float mx = -std::numeric_limits<float>::infinity();
        for (int64_t j = 0; j < cols; ++j)
            mx = std::max(mx, in[j]);
        double sum = 0.0;
        for (int64_t j = 0; j < cols; ++j) {
            e[size_t(j)] = std::exp(double(in[j]) - double(mx));
            sum += e[size_t(j)];
        }
        float *o = out.data() + i * cols;
        for (int64_t j = 0; j < cols; ++j)
            o[j] = float(e[size_t(j)] / sum);
    }
    return out;
}

float
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels)
{
    rapid_assert(int64_t(labels.size()) == logits.dim(0),
                 "label count mismatch");
    Tensor probs = softmax(logits);
    double loss = 0.0;
    for (int64_t i = 0; i < logits.dim(0); ++i) {
        rapid_assert(labels[size_t(i)] >= 0 &&
                     labels[size_t(i)] < logits.dim(1),
                     "label out of range");
        loss -= std::log(std::max(1e-12,
                                  double(probs.at(i, labels[size_t(i)]))));
    }
    return float(loss / double(logits.dim(0)));
}

Tensor
softmaxCrossEntropyGrad(const Tensor &logits,
                        const std::vector<int> &labels)
{
    Tensor grad = softmax(logits);
    const int64_t rows = logits.dim(0), cols = logits.dim(1);
    rapid_assert(int64_t(labels.size()) == rows, "label count mismatch");
    const float inv_n = 1.0f / float(rows);
    for (int64_t i = 0; i < rows; ++i) {
        const int label = labels[size_t(i)];
        rapid_assert(label >= 0 && label < cols, "label out of range");
        float *row = grad.data() + i * cols;
        row[label] -= 1.0f;
        for (int64_t j = 0; j < cols; ++j)
            row[j] *= inv_n;
    }
    return grad;
}

} // namespace rapid
