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
