/**
 * @file
 * Storage-site fault experiment over the bit-accurate precision
 * formats: quantize a stream of Laplace-distributed operand values
 * (typical of trained DNN weights) into a format's stored encoding,
 * flip each stored bit with the configured probability, resolve the
 * site's parity/ECC protection, and classify every struck word:
 *
 *   detected  -> value restored, retry cost charged
 *   masked    -> escaped detection but the decoded error is below the
 *                benign threshold (an output-LSB-scale perturbation)
 *   SDC       -> escaped detection with a visible value change;
 *                errors beyond the clip range (exponent flips, NaN
 *                encodings) additionally count as catastrophic
 *
 * This quantifies the SDC-headroom question the paper's ultra-low
 * precision story raises: INT4's bounded, uniformly-spaced levels
 * turn every upset into a bounded error, while a floating-point
 * format's exponent bits make rare upsets catastrophically large —
 * protection requirements differ accordingly.
 *
 * Determinism: operand values derive from (data_seed, word index) and
 * fault decisions from the injector's (site, word index) streams, so
 * results are bit-identical at any thread count.
 */

#ifndef RAPID_FAULT_STORAGE_SIM_HH
#define RAPID_FAULT_STORAGE_SIM_HH

#include <cstdint>
#include <string>

#include "common/fault.hh"

namespace rapid {

/** Storable operand formats of the RaPiD datapath. */
enum class StorageFormat
{
    DLFloat16, ///< (1,6,9) training format
    Fp8E4M3,   ///< HFP8 forward format (bias 4)
    Fp8E5M2,   ///< HFP8 backward format
    Int4,      ///< 4-bit fixed point
    Int2,      ///< 2-bit fixed point
};

const char *storageFormatName(StorageFormat fmt);

/** Stored bits per operand word of @p fmt. */
unsigned storageFormatBits(StorageFormat fmt);

/** One storage fault campaign. */
struct StorageExperiment
{
    StorageFormat format = StorageFormat::DLFloat16;
    size_t words = size_t(1) << 14;
    /// Operand values are clipped to [-clip, clip]; the INT scale is
    /// clip / maxLevel (PACT-style symmetric quantization).
    double clip = 4.0;
    uint64_t data_seed = 0x0da7aULL;
    /// Undetected errors with |error| <= benign_fraction * clip are
    /// masked (they vanish under the consumer's output quantization).
    double benign_fraction = 0.05;
};

/** Campaign outcome. */
struct StorageResult
{
    FaultStats stats;
    /// Silent corruptions whose error is non-finite or beyond the
    /// clip range — the catastrophic subset of stats.sdc.
    uint64_t catastrophic = 0;
    double max_abs_error = 0; ///< largest finite silent error
    double sum_abs_error = 0; ///< total finite silent error

    double
    meanAbsError() const
    {
        return stats.sdc ? sum_abs_error / double(stats.sdc) : 0.0;
    }
};

/**
 * Run @p exp under @p injector (StorageWord site). Parallelized over
 * words via the deterministic pool; the reduction is serial in word
 * order, so the result is bit-identical at any thread count.
 */
StorageResult runStorageExperiment(const StorageExperiment &exp,
                                   const FaultInjector &injector);

} // namespace rapid

#endif // RAPID_FAULT_STORAGE_SIM_HH
