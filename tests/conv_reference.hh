/**
 * @file
 * FP32 reference convolutions for the tests: the forward convolution
 * and its input and weight gradients as plain per-output loops. The
 * finite-difference tests check the gradients against the forward,
 * and the reduced-precision executors' tests use them as oracles.
 */

#ifndef RAPID_TESTS_CONV_REFERENCE_HH
#define RAPID_TESTS_CONV_REFERENCE_HH

#include <cmath>

#include "tensor/ops.hh"

namespace rapid {

/**
 * 2-D convolution. @p input is (N, Ci, H, W); @p weight is
 * (Co, Ci/groups, Kh, Kw); result is (N, Co, Ho, Wo).
 */
inline Tensor
conv2d(const Tensor &input, const Tensor &weight, const ConvParams &p = {})
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

/**
 * Gradient of conv2d w.r.t. its input: full correlation of the output
 * gradient with the (flipped) weights. @p in_h / @p in_w give the
 * input geometry (not inferable from the gradient alone when the
 * convolution strides). Groups == 1 only.
 */
inline Tensor
conv2dGradInput(const Tensor &grad_out, const Tensor &weight,
                const ConvParams &p, int64_t in_h, int64_t in_w)
{
    rapid_assert(p.groups == 1, "grouped conv gradients unsupported");
    const int64_t n = grad_out.dim(0), co = grad_out.dim(1);
    const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
    const int64_t ci = weight.dim(1);
    const int64_t kh = weight.dim(2), kw = weight.dim(3);
    rapid_assert(weight.dim(0) == co, "weight/grad channel mismatch");

    Tensor dx({n, ci, in_h, in_w});
    // Scatter form: every output gradient element contributes to the
    // input positions its receptive field covered.
    for (int64_t nn = 0; nn < n; ++nn) {
        for (int64_t oc = 0; oc < co; ++oc) {
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    const float g = grad_out.at(nn, oc, oy, ox);
                    if (std::fpclassify(g) == FP_ZERO)
                        continue;
                    for (int64_t ic = 0; ic < ci; ++ic) {
                        for (int64_t ky = 0; ky < kh; ++ky) {
                            const int64_t iy =
                                oy * p.stride + ky - p.pad;
                            if (iy < 0 || iy >= in_h)
                                continue;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                                const int64_t ix =
                                    ox * p.stride + kx - p.pad;
                                if (ix < 0 || ix >= in_w)
                                    continue;
                                dx.at(nn, ic, iy, ix) +=
                                    g * weight.at(oc, ic, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    }
    return dx;
}

/** Gradient of conv2d w.r.t. its weights. Groups == 1 only. */
inline Tensor
conv2dGradWeight(const Tensor &grad_out, const Tensor &input,
                 const ConvParams &p, int64_t kh, int64_t kw)
{
    rapid_assert(p.groups == 1, "grouped conv gradients unsupported");
    const int64_t n = grad_out.dim(0), co = grad_out.dim(1);
    const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
    const int64_t ci = input.dim(1);
    const int64_t in_h = input.dim(2), in_w = input.dim(3);

    Tensor dw({co, ci, kh, kw});
    for (int64_t nn = 0; nn < n; ++nn) {
        for (int64_t oc = 0; oc < co; ++oc) {
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    const float g = grad_out.at(nn, oc, oy, ox);
                    if (std::fpclassify(g) == FP_ZERO)
                        continue;
                    for (int64_t ic = 0; ic < ci; ++ic) {
                        for (int64_t ky = 0; ky < kh; ++ky) {
                            const int64_t iy =
                                oy * p.stride + ky - p.pad;
                            if (iy < 0 || iy >= in_h)
                                continue;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                                const int64_t ix =
                                    ox * p.stride + kx - p.pad;
                                if (ix < 0 || ix >= in_w)
                                    continue;
                                dw.at(oc, ic, ky, kx) +=
                                    g * input.at(nn, ic, iy, ix);
                            }
                        }
                    }
                }
            }
        }
    }
    return dw;
}

} // namespace rapid

#endif // RAPID_TESTS_CONV_REFERENCE_HH
