/**
 * @file
 * Chunk-based (hierarchical) accumulation [51], used by RaPiD to
 * preserve the fidelity of long FP16 partial-sum reductions during
 * HFP8 training (Section III-A.2). Products are accumulated into an
 * FP16 intra-chunk accumulator; every @c chunkSize elements the chunk
 * total is folded into a higher level, bounding the swamping error
 * that plagues naive low-precision accumulation.
 */

#ifndef RAPID_PRECISION_CHUNK_ACCUMULATOR_HH
#define RAPID_PRECISION_CHUNK_ACCUMULATOR_HH

#include <cstddef>

#include "precision/float_format.hh"

namespace rapid {

/**
 * Two-level chunked accumulator. The intra-chunk level models the MPE
 * FP16 accumulator; the inter-chunk level models the SFU reduction,
 * which can run in FP16 or FP32.
 */
class ChunkAccumulator
{
  public:
    /**
     * @param chunk_size Elements per chunk (RaPiD uses the dataflow's
     *                   LRF-resident reduction length; default 64).
     * @param fp32_outer Whether the inter-chunk reduction runs in FP32
     *                   on the SFU (true) or in FP16 (false).
     * @param rounding Rounding mode for the FP16 stages.
     */
    explicit ChunkAccumulator(size_t chunk_size = 64,
                              bool fp32_outer = true,
                              Rounding rounding = Rounding::NearestEven);

    /** Add one (already exact) product term. */
    void add(double term);

    /** Total with the current partial chunk folded in. */
    float total() const;

    /**
     * Reference helper: naive FP16 accumulation of @p terms (every add
     * rounded), for comparisons against the chunked scheme.
     */
    static float naiveFp16Sum(const double *terms, size_t n,
                              Rounding rounding = Rounding::NearestEven);

  private:
    float foldOuter(float outer, float chunk) const;

    size_t chunkSize_;
    bool fp32Outer_;
    Rounding rounding_;
    float chunkAcc_ = 0.0f;  // FP16-resident intra-chunk accumulator
    size_t inChunk_ = 0;
    float outerAcc_ = 0.0f;  // FP16 or FP32 inter-chunk accumulator
};

} // namespace rapid

#endif // RAPID_PRECISION_CHUNK_ACCUMULATOR_HH
