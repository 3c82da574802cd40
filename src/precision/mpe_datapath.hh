/**
 * @file
 * Numerically bit-accurate emulation of the MPE execution pipelines
 * (Section III-A):
 *
 *   - FPU pipeline: FP16 (DLFloat16) and HFP8 fused multiply-add. HFP8
 *     operands arrive in FP8 (1,4,3) or FP8 (1,5,2) and are converted
 *     on-the-fly to the internal FP9 (1,5,3) format; the FP16 and HFP8
 *     compute paths merge at the adder, so both produce DLFloat16
 *     results.
 *   - FXU pipeline: INT4/INT2 multiply-accumulate into a wide integer
 *     accumulator, emitted as saturating INT16 partial sums.
 *   - Zero-gating: when either multiplicand is zero the FPU pipeline is
 *     bypassed and the addend passes through unchanged; the datapath
 *     counts gated operations so the power model can credit the saved
 *     energy (Section III-C).
 */

#ifndef RAPID_PRECISION_MPE_DATAPATH_HH
#define RAPID_PRECISION_MPE_DATAPATH_HH

#include <cstdint>

#include "precision/float_format.hh"
#include "precision/int_format.hh"

namespace rapid {

/** Which FP8 flavour an HFP8 operand tensor uses (Figure 3). */
enum class Fp8Kind
{
    Forward,  ///< FP8 (1,4,3) with programmable bias: weights/activations
    Backward, ///< FP8 (1,5,2): error gradients
};

/**
 * Emulates one MPE's arithmetic. Stateless except for operation
 * counters; a single instance can serve a whole array when only
 * numerics (not per-PE counters) matter.
 */
class MpeDatapath
{
  public:
    /**
     * @param fwd_bias Programmable exponent bias for the FP8 (1,4,3)
     *                 operands, configured per layer by the compiler.
     * @param rounding Rounding mode of the FP16 accumulate stage.
     */
    explicit MpeDatapath(int fwd_bias = 4,
                         Rounding rounding = Rounding::NearestEven);

    /**
     * HFP8 FMA: quantizes @p a to the @p a_kind FP8 format and @p b to
     * the @p b_kind format, converts both to FP9 (exactly), multiplies
     * exactly, and accumulates in DLFloat16. The forward pass uses
     * (Forward, Forward); backward/gradient passes mix Forward and
     * Backward operands.
     */
    float hfp8Fma(float a, Fp8Kind a_kind, float b, Fp8Kind b_kind,
                  float acc);

    /**
     * Convert a value through the FP8 -> FP9 input stage: quantize to
     * the requested FP8 flavour, then re-encode as FP9. The FP9 step is
     * exact (proven by tests), so this equals the FP8 quantization.
     */
    float toFp9(float value, Fp8Kind kind) const;

    /** Round @p value to the FP16 (DLFloat16) output format. */
    float roundFp16(float value) const;

    /** Number of FMAs executed (including gated ones). */
    uint64_t fmaCount() const { return fmaCount_; }

    /** Number of FMAs bypassed because a multiplicand was zero. */
    uint64_t zeroGatedCount() const { return zeroGatedCount_; }

  private:
    FloatFormat fwdFormat_; ///< FP8 (1,4,3) at the programmed bias
    Rounding rounding_;
    uint64_t fmaCount_ = 0;
    uint64_t zeroGatedCount_ = 0;
};

} // namespace rapid

#endif // RAPID_PRECISION_MPE_DATAPATH_HH
