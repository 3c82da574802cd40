/**
 * @file
 * Aggregation of an LlmResult into token-level serving metrics —
 * TTFT percentiles, per-output-token latency, request and token
 * goodput, closed request AND token accounting, decode batch
 * occupancy, and the KV spill totals — plus stable text rendering
 * for the golden-diffed bench and one-line JSON records for
 * BENCH_llm.json.
 */

#ifndef RAPID_LLM_LLM_METRICS_HH
#define RAPID_LLM_LLM_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "llm/llm_sim.hh"
#include "serve/metrics.hh"

namespace rapid {

/** Per-tenant (or aggregate) transformer-serving outcome. */
struct LlmTenantMetrics
{
    std::string name;
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t shed = 0; ///< rejected at admission
    uint64_t sla_met = 0; ///< both TTFT and TPOT deadlines met
    uint64_t ttft_violations = 0;
    uint64_t tpot_violations = 0;
    /// Token ledger: planned == generated + dropped must close.
    int64_t planned_tokens = 0;   ///< sum of output_tokens offered
    int64_t generated_tokens = 0; ///< tokens actually produced
    int64_t dropped_tokens = 0;   ///< planned tokens of shed requests
    LatencyStats ttft; ///< over completed requests
    int64_t tpot_p95_ns = 0; ///< over multi-token completions
    double goodput_rps = 0; ///< SLA-met requests per offered second
    double offered_rps = 0;
    double tokens_per_s = 0; ///< generated tokens per offered second
    /// Completed requests per ladder mode (index = ladder position).
    std::vector<uint64_t> served_by_mode;
    /// Per-tier admission split of completed requests (calibrated
    /// TPOT tier, cfg.admission); all completions land in
    /// admitted_bound when the tier is off.
    uint64_t admitted_calibrated = 0;
    uint64_t admitted_bound = 0;

    bool
    requestAccountingClosed() const
    {
        return offered == completed + shed;
    }

    /** Every offered request is admitted by exactly one tier or
     *  shed at admission. */
    bool
    tierAccountingClosed() const
    {
        return offered == admitted_calibrated + admitted_bound + shed;
    }

    bool
    tokenAccountingClosed() const
    {
        return planned_tokens == generated_tokens + dropped_tokens;
    }
};

/** Whole-run aggregate view. */
struct LlmMetrics
{
    std::vector<LlmTenantMetrics> tenants;
    LlmTenantMetrics total; ///< name "total"
    double energy_j = 0;
    double energy_per_token_mj = 0; ///< mJ per generated token
    uint64_t prefill_steps = 0;
    uint64_t decode_steps = 0;
    /// Mean LIVE sequences per decode step — continuous batching
    /// keeps this near the charged batch, one-shot lets it decay.
    double mean_decode_live = 0;
    double mean_decode_batch = 0; ///< mean charged batch size
    int64_t spill_ns_total = 0;   ///< summed KV refetch penalty
    uint64_t spilled_steps = 0;   ///< decode steps that paid it
    uint64_t fuse_trips = 0; ///< ladder groups whose fuse tripped
};

/** Aggregate a raw simulation result. */
LlmMetrics computeLlmMetrics(const LlmServeConfig &cfg,
                             const LlmResult &result);

/**
 * One JSON line for the BENCH_llm.json assembly, including the
 * closed-accounting booleans scripts/assemble.py hard-fails on.
 */
std::string llmJsonRecord(const std::string &section,
                          const std::string &label,
                          const LlmMetrics &m);

} // namespace rapid

#endif // RAPID_LLM_LLM_METRICS_HH
