#include "precision/chunk_accumulator.hh"

#include <cmath>

#include "common/logging.hh"

namespace rapid {

ChunkAccumulator::ChunkAccumulator(size_t chunk_size, bool fp32_outer,
                                   Rounding rounding)
    : chunkSize_(chunk_size), fp32Outer_(fp32_outer), rounding_(rounding)
{
    rapid_assert(chunk_size >= 1, "chunk size must be positive");
}

void
ChunkAccumulator::add(double term)
{
    rapid_dassert(std::isfinite(term),
                  "non-finite term ", term, " fed to the accumulator");
    rapid_dassert(inChunk_ < chunkSize_,
                  "chunk fill ", inChunk_, " overran size ", chunkSize_);
    // The MPE accumulator holds DLFloat16; each accumulate rounds.
    chunkAcc_ = dlfloat16().quantize(float(double(chunkAcc_) + term),
                                     rounding_);
    if (++inChunk_ == chunkSize_) {
        outerAcc_ = foldOuter(outerAcc_, chunkAcc_);
        chunkAcc_ = 0.0f;
        inChunk_ = 0;
    }
}

float
ChunkAccumulator::foldOuter(float outer, float chunk) const
{
    if (fp32Outer_)
        return outer + chunk; // SFU FP32 add: exact at this scale
    return dlfloat16().quantize(outer + chunk, rounding_);
}

float
ChunkAccumulator::total() const
{
    if (inChunk_ == 0)
        return outerAcc_;
    return foldOuter(outerAcc_, chunkAcc_);
}

float
ChunkAccumulator::naiveFp16Sum(const double *terms, size_t n,
                               Rounding rounding)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc = dlfloat16().quantize(float(double(acc) + terms[i]), rounding);
    return acc;
}

} // namespace rapid
