#include "llm/llm_workload.hh"

#include <algorithm>
#include <cmath>

#include "common/fault.hh" // mixSeed
#include "common/logging.hh"
#include "common/random.hh"
#include "serve/workload.hh" // expGapNs

namespace rapid {

namespace {

/** Geometric draw with the given mean (>= 1), support {1, 2, ...},
 *  clamped to @p cap. */
int64_t
geometricTokens(Rng &rng, double mean, int64_t cap)
{
    rapid_dassert(cap >= 1, "token cap below one");
    if (mean <= 1.0)
        return 1;
    // P(size > k) = (1 - 1/mean)^k
    const double q = 1.0 - 1.0 / mean;
    const double u = rng.uniform();
    const double k = std::floor(std::log1p(-u) / std::log(q));
    int64_t draw = 1;
    if (k >= 0.0)
        draw = k > 1e15 ? int64_t(1) << 50 : 1 + int64_t(k);
    return std::min(draw, cap);
}

} // namespace

std::vector<LlmRequest>
generateLlmRequests(const LlmServeConfig &cfg,
                    const LlmModelConfig &model)
{
    rapid_assert(cfg.horizon_ns > 0, "non-positive workload horizon");
    std::vector<LlmRequest> merged;
    for (unsigned ti = 0; ti < cfg.tenants.size(); ++ti) {
        const LlmTenantConfig &t = cfg.tenants[ti];
        if (t.arrival_rps <= 0.0)
            continue;
        Rng rng(mixSeed(cfg.seed, ti));
        // Per-request draw order is fixed (gap, prompt, output) so
        // the stream stays stable under config changes elsewhere.
        auto emitAt = [&](int64_t when) {
            LlmRequest r;
            r.tenant = ti;
            r.arrival_ns = when;
            r.prompt_tokens = geometricTokens(
                rng, t.mean_prompt_tokens, model.max_context - 1);
            r.output_tokens = geometricTokens(
                rng, t.mean_output_tokens,
                model.max_context - r.prompt_tokens);
            merged.push_back(r);
        };
        if (t.pattern == ArrivalPattern::Poisson) {
            int64_t when = expGapNs(rng, t.arrival_rps);
            while (when < cfg.horizon_ns) {
                emitAt(when);
                when += expGapNs(rng, t.arrival_rps);
            }
            continue;
        }
        // Bursty: epochs at rate/burst_mean carrying geometric
        // coincident groups, preserving the average offered load.
        const double mean = std::max(1.0, t.burst_mean);
        const double epoch_rate = t.arrival_rps / mean;
        int64_t when = expGapNs(rng, epoch_rate);
        while (when < cfg.horizon_ns) {
            const int64_t burst =
                geometricTokens(rng, mean, int64_t(4097));
            for (int64_t i = 0; i < burst; ++i)
                emitAt(when);
            when += expGapNs(rng, epoch_rate);
        }
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
