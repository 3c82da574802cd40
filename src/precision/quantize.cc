#include "precision/quantize.hh"

#include <algorithm>
#include <cmath>

#include "common/lanes.hh"
#include "common/logging.hh"

namespace rapid {

namespace {

/** The PACT level of @p x at clip @p alpha and step @p scale. */
inline int
pactLevel(float x, float alpha, float scale)
{
    // NaN propagates through std::min, and casting NaN to int is
    // undefined behaviour; treat it (and negatives) as the clip floor.
    // A select, not a branch, so level loops vectorise.
    const float clipped = x > 0.0f ? std::min(x, alpha) : 0.0f;
    return int(clipped / scale + 0.5f);
}

/** The SaWB level of @p w at clip @p alpha, step @p scale and largest
 *  level @p max_level. */
inline int
sawbLevel(float w, float alpha, float scale, int max_level)
{
    // NaN would survive the clip and hit the undefined float-to-int
    // cast below; map it to the zero level. The clip is std::clamp's
    // for every other input, with both compares always taken, so level
    // loops vectorise.
    const float number = std::isnan(w) ? 0.0f : w;
    const float x = std::min(std::max(number, -alpha), alpha) / scale;
    // Round half away from zero: x + 0.5 for x >= 0 (-0 included, whose
    // x - 0.5 also truncates to 0), x - 0.5 below.
    const int level = int(x + std::copysign(0.5f, x));
    return std::clamp(level, -max_level, max_level);
}

} // namespace

PactQuantizer::PactQuantizer(float alpha, unsigned bits)
    : alpha_(alpha), bits_(bits)
{
    rapid_assert(alpha > 0.0f, "PACT alpha must be positive, got ", alpha);
    rapid_assert(bits >= 2 && bits <= 8, "unsupported PACT width ", bits);
}

void
PactQuantizer::quantizeLevels(const float *x, int64_t n, int16_t *out) const
{
    const float step = scale();
    forEachBlocked(n, [&](int64_t i) {
        out[i] = int16_t(pactLevel(x[i], alpha_, step));
    });
}

void
pactClip(float *v, int64_t n, float alpha)
{
    forEachBlocked(n, [v, alpha](int64_t i) {
        const float x = v[i];
        v[i] = x < 0.0f ? 0.0f : (alpha < x ? alpha : x);
    });
}

float
pactBackprop(const float *pre, float *dy, int64_t n, float alpha)
{
    using Lanes = FloatLanes<4>;
    using Bits = BitLanes<4>;
    const Bits one = lanesAs<Bits>(Lanes{} + 1.0f);
    float alpha_grad = 0.0f;
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const Lanes x = loadLanes<4>(pre + i);
        const Lanes e = loadLanes<4>(dy + i);
        const Bits clips = lanesAs<Bits>(x >= alpha);
        const Bits passes = lanesAs<Bits>((x > 0.0f) & (x < alpha));
        const Lanes alpha_terms = e * lanesAs<Lanes>(one & clips);
        // A term is +-0 unless its pre-activation clips or its error is
        // NaN or Inf (all-ones exponent: adding one to the field
        // carries into the sign bit). Adding +-0 leaves the sum as it
        // is, since the sum starts at +0 and so is never -0 (a binary32
        // sum is -0 only when both addends are), so a block of such
        // terms is skipped; the rest add in ascending i.
        const Bits live =
            clips | ((lanesAs<Bits>(e) & 0x7f800000u) + 0x00800000u);
        if (((live[0] | live[1] | live[2] | live[3]) & 0x80000000u) != 0)
            for (int l = 0; l < 4; ++l)
                alpha_grad += alpha_terms[l];
        storeLanes(dy + i, e * lanesAs<Lanes>(one & passes));
    }
    for (; i < n; ++i) {
        const float x = pre[i];
        alpha_grad += dy[i] * (x >= alpha ? 1.0f : 0.0f);
        dy[i] *= x > 0.0f && x < alpha ? 1.0f : 0.0f;
    }
    return alpha_grad;
}

TensorMoments
computeMoments(const std::vector<float> &values)
{
    rapid_assert(!values.empty(), "moments of an empty tensor");
    double sum_abs = 0.0;
    double sum_sq = 0.0;
    for (float v : values) {
        sum_abs += std::abs(double(v));
        sum_sq += double(v) * double(v);
    }
    double n = double(values.size());
    return {sum_abs / n, std::sqrt(sum_sq / n)};
}

SawbQuantizer::SawbQuantizer(const std::vector<float> &weights,
                             unsigned bits)
    : SawbQuantizer(weights, bits, stockCoefficients(bits))
{
}

SawbQuantizer::SawbQuantizer(const std::vector<float> &weights,
                             unsigned bits, Coefficients coeffs)
    : bits_(bits)
{
    rapid_assert(bits >= 2 && bits <= 8, "unsupported SaWB width ", bits);
    deriveAlpha(weights, coeffs);
}

void
SawbQuantizer::deriveAlpha(const std::vector<float> &weights,
                           Coefficients coeffs)
{
    TensorMoments m = computeMoments(weights);
    double alpha = coeffs.c1 * m.rms - coeffs.c2 * m.mean_abs;
    // Guard against degenerate tensors (e.g. near-constant weights)
    // where the fitted linear form goes non-positive.
    if (alpha <= 0.0)
        alpha = m.rms > 0.0 ? m.rms : 1.0;
    alpha_ = float(alpha);
}

float
SawbQuantizer::scale() const
{
    int max_level = (1 << (bits_ - 1)) - 1;
    return alpha_ / float(max_level);
}

void
SawbQuantizer::quantizeLevels(const float *w, int64_t n, int16_t *out) const
{
    const float step = scale();
    const int max_level = (1 << (bits_ - 1)) - 1;
    forEachBlocked(n, [&](int64_t i) {
        out[i] = int16_t(sawbLevel(w[i], alpha_, step, max_level));
    });
}

SawbQuantizer::Coefficients
SawbQuantizer::stockCoefficients(unsigned bits)
{
    rapid_assert(bits >= 2 && bits <= 4, "no stock coefficients for INT",
                 bits);
    // The least-squares fit over canonical weight-like distributions
    // (Gaussian, Laplace, uniform and a Gaussian mixture; 20000 draws
    // each from Rng(0xC0EFF5 + bits)), frozen as exact binary64 values.
    // Sawb.StockCoefficientsMatchRefit repeats the fit and compares.
    static constexpr Coefficients kStock[] = {
        {0x1.3991bb24fc003p+2, 0x1.29e0f4c3c9d5dp+2}, // INT2
        {0x1.afc88b90555dp+2, 0x1.82475597b1602p+2},  // INT3
        {0x1.5976aad49d186p+3, 0x1.4f4c45ffd3551p+3}, // INT4
    };
    return kStock[bits - 2];
}

} // namespace rapid
