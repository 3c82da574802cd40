/**
 * @file
 * The two quantization techniques RaPiD's INT4/INT2 inference path
 * relies on (Section II-C):
 *
 *   - PACT [42]: activations pass through a clipped ReLU whose clip
 *     value alpha is *learned per layer* during training; the clipped
 *     range [0, alpha] is quantized uniformly to n unsigned bits.
 *   - SaWB [46]: weights are quantized symmetrically with a scale
 *     derived from the first and second moments of the weight tensor,
 *     alpha* = c1 * sqrt(E[w^2]) - c2 * E[|w|]. The (c1, c2)
 *     coefficients per bit width are fitted offline by minimizing the
 *     quantization MSE over representative weight distributions; the
 *     fit lives with the test that reproduces the frozen constants
 *     (Sawb.StockCoefficientsMatchRefit, DESIGN.md section 4.7).
 */

#ifndef RAPID_PRECISION_QUANTIZE_HH
#define RAPID_PRECISION_QUANTIZE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace rapid {

/**
 * PACT activation quantizer: y = clamp(x, 0, alpha) quantized to
 * 2^bits uniform unsigned levels.
 */
class PactQuantizer
{
  public:
    PactQuantizer(float alpha, unsigned bits);

    float alpha() const { return alpha_; }
    unsigned bits() const { return bits_; }
    unsigned numLevels() const { return (1u << bits_) - 1; }
    float scale() const { return alpha_ / float(numLevels()); }

    /** Clip-and-quantize each of the @p n values at @p x to an integer
     *  level in [0, 2^bits - 1], into @p out. */
    void quantizeLevels(const float *x, int64_t n, int16_t *out) const;

  private:
    float alpha_;
    unsigned bits_;
};

/**
 * The PACT clip of each of the @p n values at @p v, in place:
 * std::clamp(x, 0.0f, alpha)'s bits for every x (-0.0 and NaN pass
 * through unchanged), taken by select so the loop vectorises.
 */
void pactClip(float *v, int64_t n, float alpha);

/**
 * The PACT activation's straight-through backprop over the @p n
 * pre-activations at @p pre and their output errors at @p dy. Each
 * error, in place, times the gradient w.r.t. the input (1 inside
 * (0, alpha), 0 outside); returns the gradient w.r.t. @p alpha, the
 * binary32 sum in ascending i of each error times 1 where
 * pre >= alpha, 0 elsewhere. Both gates are selects, in lanes.
 */
float pactBackprop(const float *pre, float *dy, int64_t n, float alpha);

/**
 * SaWB weight quantizer: symmetric signed quantization with a
 * statistics-derived clip scale.
 */
class SawbQuantizer
{
  public:
    /** Fitted (c1, c2) coefficients for a given weight bit width. */
    struct Coefficients
    {
        double c1;
        double c2;
    };

    /**
     * Build a quantizer for @p weights using the stock coefficients
     * for @p bits (2 or 4).
     */
    SawbQuantizer(const std::vector<float> &weights, unsigned bits);

    /** Build with explicit coefficients (e.g. freshly fitted ones). */
    SawbQuantizer(const std::vector<float> &weights, unsigned bits,
                  Coefficients coeffs);

    unsigned bits() const { return bits_; }

    /** The statistics-derived clip value alpha*. */
    float alpha() const { return alpha_; }

    /** Step between adjacent quantization levels. */
    float scale() const;

    /** Quantize each of the @p n values at @p w to a signed level in
     *  [-(2^(b-1)-1), 2^(b-1)-1], into @p out. */
    void quantizeLevels(const float *w, int64_t n, int16_t *out) const;

    /** Library default coefficients for @p bits (2, 3 or 4). */
    static Coefficients stockCoefficients(unsigned bits);

  private:
    void deriveAlpha(const std::vector<float> &weights,
                     Coefficients coeffs);

    unsigned bits_;
    float alpha_ = 0.0f;
};

/** First and second absolute moments of a tensor. */
struct TensorMoments
{
    double mean_abs; ///< E[|w|]
    double rms;      ///< sqrt(E[w^2])
};

TensorMoments computeMoments(const std::vector<float> &values);

} // namespace rapid

#endif // RAPID_PRECISION_QUANTIZE_HH
