#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/lanes.hh"

namespace rapid {

int64_t
convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

Tensor
conv2d(const Tensor &input, const Tensor &weight, const ConvParams &p)
{
    rapid_assert(input.rank() == 4 && weight.rank() == 4,
                 "conv2d expects rank-4 input and weight");
    const int64_t n = input.dim(0), ci = input.dim(1);
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t co = weight.dim(0), cig = weight.dim(1);
    const int64_t kh = weight.dim(2), kw = weight.dim(3);
    rapid_assert(ci % p.groups == 0 && co % p.groups == 0,
                 "channels not divisible by groups");
    rapid_assert(cig == ci / p.groups, "weight Ci/groups mismatch: ",
                 cig, " vs ", ci / p.groups);

    const int64_t ho = convOutDim(h, kh, p.stride, p.pad);
    const int64_t wo = convOutDim(w, kw, p.stride, p.pad);
    rapid_assert(ho > 0 && wo > 0, "conv output collapsed to zero");

    Tensor out({n, co, ho, wo});
    const int64_t co_per_g = co / p.groups;

    for (int64_t in_n = 0; in_n < n; ++in_n) {
        for (int64_t oc = 0; oc < co; ++oc) {
            const int64_t g = oc / co_per_g;
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    double acc = 0.0;
                    for (int64_t icg = 0; icg < cig; ++icg) {
                        const int64_t ic = g * cig + icg;
                        for (int64_t ky = 0; ky < kh; ++ky) {
                            const int64_t iy =
                                oy * p.stride + ky - p.pad;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                                const int64_t ix =
                                    ox * p.stride + kx - p.pad;
                                if (ix < 0 || ix >= w)
                                    continue;
                                acc += double(input.at(in_n, ic, iy, ix))
                                     * double(weight.at(oc, icg, ky, kx));
                            }
                        }
                    }
                    out.at(in_n, oc, oy, ox) = float(acc);
                }
            }
        }
    }
    return out;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    rapid_assert(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2");
    const int64_t m = a.dim(0), k = a.dim(1);
    rapid_assert(b.dim(0) == k, "matmul inner-dimension mismatch");
    const int64_t n = b.dim(1);
    Tensor out({m, n});
    // i-k-j order: each output row keeps a row of double accumulators
    // and B is read a row at a time. Every output still sums its exact
    // products in ascending k from +0.0 and rounds to float once, so
    // the bits match the i-j-k triple loop. Only the j loop may be
    // vectorised, never k; zero operands are not skipped (0 * Inf is
    // NaN). The j loop runs in blocks, which GCC vectorises at -O2.
    std::vector<double> acc(size_t(n), 0.0);
    for (int64_t i = 0; i < m; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0);
        const float *a_row = a.data() + i * k;
        for (int64_t kk = 0; kk < k; ++kk) {
            const double a_ik = double(a_row[kk]);
            const float *b_row = b.data() + kk * n;
            double *acc_row = acc.data();
            forEachBlocked(n, [&](int64_t j) {
                acc_row[j] += a_ik * double(b_row[j]);
            });
        }
        float *out_row = out.data() + i * n;
        for (int64_t j = 0; j < n; ++j)
            out_row[j] = float(acc[size_t(j)]);
    }
    return out;
}

Tensor
transpose(const Tensor &a)
{
    rapid_assert(a.rank() == 2, "transpose expects rank-2");
    const int64_t rows = a.dim(0), cols = a.dim(1);
    Tensor out({cols, rows});
    const float *src = a.data();
    float *dst = out.data();
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < cols; ++j)
            dst[j * rows + i] = src[i * cols + j];
    return out;
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

namespace {

template <typename Reduce>
Tensor
pool2d(const Tensor &x, int64_t k, int64_t s, float init, Reduce reduce,
       bool average)
{
    rapid_assert(x.rank() == 4, "pooling expects NCHW");
    const int64_t ho = convOutDim(x.dim(2), k, s, 0);
    const int64_t wo = convOutDim(x.dim(3), k, s, 0);
    Tensor out({x.dim(0), x.dim(1), ho, wo});
    for (int64_t n = 0; n < x.dim(0); ++n) {
        for (int64_t c = 0; c < x.dim(1); ++c) {
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    float acc = init;
                    for (int64_t ky = 0; ky < k; ++ky)
                        for (int64_t kx = 0; kx < k; ++kx)
                            acc = reduce(acc, x.at(n, c, oy * s + ky,
                                                   ox * s + kx));
                    if (average)
                        acc /= float(k * k);
                    out.at(n, c, oy, ox) = acc;
                }
            }
        }
    }
    return out;
}

} // namespace

Tensor
maxPool2d(const Tensor &x, int64_t k, int64_t s)
{
    return pool2d(x, k, s, -std::numeric_limits<float>::infinity(),
                  [](float a, float b) { return std::max(a, b); }, false);
}

Tensor
avgPool2d(const Tensor &x, int64_t k, int64_t s)
{
    return pool2d(x, k, s, 0.0f,
                  [](float a, float b) { return a + b; }, true);
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

Tensor
batchNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          const Tensor &mean, const Tensor &var, float eps)
{
    rapid_assert(x.rank() == 4, "batchNorm expects NCHW");
    const int64_t c = x.dim(1);
    rapid_assert(gamma.dim(0) == c && beta.dim(0) == c &&
                 mean.dim(0) == c && var.dim(0) == c,
                 "batchNorm parameter shape mismatch");
    Tensor out = x;
    for (int64_t ch = 0; ch < c; ++ch) {
        const float inv = 1.0f / std::sqrt(var[ch] + eps);
        for (int64_t n = 0; n < x.dim(0); ++n)
            for (int64_t h = 0; h < x.dim(2); ++h)
                for (int64_t w = 0; w < x.dim(3); ++w)
                    out.at(n, ch, h, w) =
                        gamma[ch] * (x.at(n, ch, h, w) - mean[ch]) * inv
                        + beta[ch];
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
