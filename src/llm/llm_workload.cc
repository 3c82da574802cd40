#include "llm/llm_workload.hh"

#include <algorithm>

#include "common/fault.hh" // mixSeed
#include "common/random.hh"
#include "serve/workload.hh" // forEachArrival

namespace rapid {

std::vector<LlmRequest>
generateLlmRequests(const LlmServeConfig &cfg,
                    const LlmModelConfig &model)
{
    std::vector<LlmRequest> merged;
    for (unsigned ti = 0; ti < cfg.tenants.size(); ++ti) {
        const LlmTenantConfig &t = cfg.tenants[ti];
        Rng rng(mixSeed(cfg.seed, ti));
        // Per-request draw order is fixed (gap, prompt, output) so
        // the stream stays stable under config changes elsewhere.
        forEachArrival(
            rng, t.arrival_rps, t.pattern, t.burst_mean, cfg.horizon_ns,
            [&](int64_t when) {
                LlmRequest r;
                r.tenant = ti;
                r.arrival_ns = when;
                r.prompt_tokens = geometricDraw(
                    rng, t.mean_prompt_tokens, model.max_context - 1);
                r.output_tokens = geometricDraw(
                    rng, t.mean_output_tokens,
                    model.max_context - r.prompt_tokens);
                merged.push_back(r);
            });
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const LlmRequest &a, const LlmRequest &b) {
                         if (a.arrival_ns != b.arrival_ns)
                             return a.arrival_ns < b.arrival_ns;
                         return a.tenant < b.tenant;
                     });
    for (size_t i = 0; i < merged.size(); ++i)
        merged[i].id = i;
    return merged;
}

} // namespace rapid
