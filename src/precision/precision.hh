/**
 * @file
 * The spectrum of execution precisions RaPiD supports, plus the small
 * algebra the architecture and performance models need: operand
 * storage width, the peak-throughput multiplier relative to FP16, and
 * which pipeline (FPU vs FXU) executes the mode.
 */

#ifndef RAPID_PRECISION_PRECISION_HH
#define RAPID_PRECISION_PRECISION_HH

#include <string>

namespace rapid {

/** Execution precision of a tensor operation. */
enum class Precision
{
    FP32, ///< SFU-only, for selected auxiliary operations
    FP16, ///< DLFloat16 (1,6,9): baseline training/inference format
    HFP8, ///< Hybrid FP8 (1,4,3)/(1,5,2) with internal FP9 conversion
    INT4, ///< 4-bit fixed point (PACT/SaWB inference)
    INT2, ///< 2-bit fixed point (future-work inference mode)
};

/** Storage bits per operand element. */
constexpr unsigned
operandBits(Precision p)
{
    switch (p) {
      case Precision::FP32: return 32;
      case Precision::FP16: return 16;
      case Precision::HFP8: return 8;
      case Precision::INT4: return 4;
      case Precision::INT2: return 2;
    }
    return 0;
}

/** Storage bytes per operand element (fractional for INT4/INT2). */
constexpr double
operandBytes(Precision p)
{
    return operandBits(p) / 8.0;
}

/** True when the mode runs on the fixed-point pipeline. */
constexpr bool
usesFxu(Precision p)
{
    return p == Precision::INT4 || p == Precision::INT2;
}

inline std::string
precisionName(Precision p)
{
    switch (p) {
      case Precision::FP32: return "FP32";
      case Precision::FP16: return "FP16";
      case Precision::HFP8: return "HFP8";
      case Precision::INT4: return "INT4";
      case Precision::INT2: return "INT2";
    }
    return "?";
}

} // namespace rapid

#endif // RAPID_PRECISION_PRECISION_HH
