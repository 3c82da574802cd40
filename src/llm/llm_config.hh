/**
 * @file
 * Configuration of the transformer serving simulator (`rapid_llm`):
 * decoder-only model selection, per-tenant traffic with token-level
 * SLAs (time-to-first-token and per-output-token latency), the
 * (activation, KV-cache) precision ladder, and the batching policy —
 * one-shot static cohorts vs continuous per-token re-admission.
 *
 * Determinism contract: identical to `rapid_serve` — virtual clock in
 * integer nanoseconds from the frozen LatencyTable, every random
 * decision from (seed, tenant) streams via mixSeed, bit-identical
 * across processes and at any --threads N.
 */

#ifndef RAPID_LLM_LLM_CONFIG_HH
#define RAPID_LLM_LLM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_config.hh"

namespace rapid {

/**
 * One rung of the LLM serving ladder: the precision decode/prefill
 * compute runs at, and the precision the KV cache is stored at. The
 * KV precision sets the per-token residency footprint — INT4 KV
 * holds 4x the context of FP16 KV in the same scratchpad.
 */
struct LlmMode
{
    Precision act = Precision::INT4;
    Precision kv = Precision::INT4;
};

/** How decode work is batched onto the executor. */
enum class BatchPolicy
{
    OneShot,    ///< static cohorts: admit, then decode at fixed batch
                ///< until every member finishes
    Continuous, ///< per-token re-admission: new prefills join the
                ///< running batch the step after a slot frees
};

const char *batchPolicyName(BatchPolicy policy);

/** One tenant: a traffic stream of generation requests with SLAs. */
struct LlmTenantConfig
{
    std::string name;
    /// Offered load in requests per second (open loop).
    double arrival_rps = 10.0;
    ArrivalPattern pattern = ArrivalPattern::Poisson;
    double burst_mean = 8.0; ///< mean burst size when Bursty
    /// Geometric means of the sampled token counts (clamped so
    /// prompt + output fits the model's max_context).
    double mean_prompt_tokens = 128.0;
    double mean_output_tokens = 64.0;
    /// Arrival-to-first-token budget.
    int64_t ttft_deadline_ns = 50'000'000;
    /// Per-output-token budget after the first token.
    int64_t tpot_deadline_ns = 5'000'000;
    /// Quality floor on the activation precision of the served mode.
    Precision min_precision = Precision::INT4;
};

/** A full transformer serving scenario. */
struct LlmServeConfig
{
    /// Model served to every tenant (llmModelByName).
    std::string model = "llm-small";
    std::vector<LlmTenantConfig> tenants;
    /// Modes the router may choose from, cheapest first.
    std::vector<LlmMode> ladder{
        {Precision::INT4, Precision::INT4},
        {Precision::HFP8, Precision::HFP8},
        {Precision::FP16, Precision::FP16}};
    BatchPolicy policy = BatchPolicy::Continuous;
    /// Decode-batch slot count per mode group (also the static
    /// cohort size of the one-shot policy).
    int64_t max_batch = 8;
    /// Open-loop generation horizon; admitted sequences decode to
    /// completion past it.
    int64_t horizon_ns = 1'000'000'000;
    uint64_t seed = 0x11a5eedULL;
    /// Charged into the latency table exactly as in rapid_serve.
    FaultConfig fault;
    /// Calibrated TPOT admission tier (serve/overload.hh): when the
    /// per-group observed-TPOT window is warm, the router admits on
    /// observed p95 x margin instead of the conservative full-batch
    /// step bound, with the same trust fuse back to the bound on the
    /// first calibrated TPOT miss. Defaults off (bound-only).
    CalibratedAdmissionConfig admission;
};

/**
 * Throw rapid::Error (InvalidArgument / InvalidConfig) on a
 * non-runnable scenario: no tenants, unknown model, non-positive
 * rates / token means / deadlines / horizon / max_batch, an empty or
 * FP32-bearing ladder, ladder entries below no tenant's reach, or
 * bad fault knobs. Runs in every build type.
 */
void validateLlmConfig(const LlmServeConfig &cfg);

/**
 * The activation precisions a latency table must cover for @p cfg:
 * every ladder entry's act precision, deduplicated in
 * first-appearance order.
 */
std::vector<Precision> llmTablePrecisions(const LlmServeConfig &cfg);

} // namespace rapid

#endif // RAPID_LLM_LLM_CONFIG_HH
