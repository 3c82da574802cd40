#include "llm/llm_sim.hh"

#include <vector>

#include "common/des.hh"
#include "common/logging.hh"
#include "llm/decode_batcher.hh"
#include "workloads/networks.hh"

namespace rapid {

namespace {

/** Context buckets start at 64 tokens and double up to max_context. */
size_t
countBuckets(const LlmModelConfig &model)
{
    size_t n = 1;
    int64_t cap = 64;
    while (cap < model.max_context) {
        cap *= 2;
        ++n;
    }
    return n;
}

/**
 * Two networks per bucket: prefill at index 2*bi, decode step at
 * 2*bi + 1 — every (bucket, act precision, batch) point frozen once.
 */
std::vector<Network>
buildBucketNetworks(const LlmModelConfig &model, size_t num_buckets)
{
    std::vector<Network> nets;
    nets.reserve(2 * num_buckets);
    for (size_t bi = 0; bi < num_buckets; ++bi) {
        const int64_t tokens = 64ll << bi;
        nets.push_back(makeLlmPrefill(model, tokens));
        nets.push_back(makeLlmDecodeStep(model, tokens));
    }
    return nets;
}

} // namespace

LlmSim::LlmSim(const ChipConfig &chip, const LlmServeConfig &cfg)
    // Validate before any member does real work; the comma operator
    // keeps the always-on checks ahead of the field copies.
    : chip_((validateLlmConfig(cfg), validateChipConfig(chip), chip)),
      cfg_(cfg), model_(llmModelByName(cfg.model)),
      num_buckets_(countBuckets(model_)),
      table_(chip_, buildBucketNetworks(model_, num_buckets_),
             llmTablePrecisions(cfg), cfg.max_batch, cfg.fault)
{
}

size_t
LlmSim::bucketFor(int64_t tokens) const
{
    rapid_dassert(tokens > 0, "bucketFor: non-positive tokens");
    for (size_t bi = 0; bi + 1 < num_buckets_; ++bi)
        if (tokens <= bucketTokens(bi))
            return bi;
    return num_buckets_ - 1;
}

int64_t
LlmSim::prefillNs(Precision act, int64_t prompt_tokens) const
{
    return table_.latencyNs(2 * bucketFor(prompt_tokens), act, 1);
}

double
LlmSim::prefillEnergyJ(Precision act, int64_t prompt_tokens) const
{
    return table_.energyJ(2 * bucketFor(prompt_tokens), act, 1);
}

int64_t
LlmSim::decodeNs(Precision act, int64_t max_context_tokens,
                 int64_t batch) const
{
    return table_.latencyNs(2 * bucketFor(max_context_tokens) + 1,
                            act, batch);
}

double
LlmSim::decodeEnergyJ(Precision act, int64_t max_context_tokens,
                      int64_t batch) const
{
    return table_.energyJ(2 * bucketFor(max_context_tokens) + 1, act,
                          batch);
}

LlmResult
LlmSim::run() const
{
    return runLlmBatch({this}).front();
}

std::vector<LlmResult>
runLlmBatch(const std::vector<const LlmSim *> &sims)
{
    return runIndependent<DecodeBatcher>(sims, "llm");
}

} // namespace rapid
