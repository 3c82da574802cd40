#include "llm/llm_config.hh"

#include <algorithm>

#include "common/error.hh"
#include "workloads/networks.hh"

namespace rapid {

const char *
batchPolicyName(BatchPolicy policy)
{
    switch (policy) {
      case BatchPolicy::OneShot:
        return "one-shot";
      case BatchPolicy::Continuous:
        return "continuous";
    }
    return "?";
}

void
validateLlmConfig(const LlmServeConfig &cfg)
{
    // Resolves the model (fatal on an unknown name) and re-checks its
    // dimensional invariants.
    const LlmModelConfig model = llmModelByName(cfg.model);
    RAPID_CHECK_CONFIG((model.max_context &
                        (model.max_context - 1)) == 0,
                       "LLM model '", model.name, "': max_context ",
                       model.max_context, " must be a power of two");

    RAPID_CHECK_CONFIG(!cfg.tenants.empty(),
                       "LLM serving scenario has no tenants");
    RAPID_CHECK_CONFIG(cfg.horizon_ns > 0, "non-positive horizon ",
                       cfg.horizon_ns);
    RAPID_CHECK_CONFIG(cfg.max_batch > 0, "non-positive max_batch ",
                       cfg.max_batch);
    RAPID_CHECK_CONFIG(!cfg.ladder.empty(), "empty serving ladder");
    for (const LlmMode &m : cfg.ladder) {
        RAPID_CHECK_ARG(servingQuality(m.act) >= 0,
                        "ladder activation precision ",
                        precisionName(m.act), " is not servable");
        RAPID_CHECK_ARG(servingQuality(m.kv) >= 0,
                        "ladder KV precision ", precisionName(m.kv),
                        " is not servable");
    }
    for (const LlmTenantConfig &t : cfg.tenants) {
        RAPID_CHECK_ARG(!t.name.empty(), "tenant with empty name");
        RAPID_CHECK_ARG(t.arrival_rps >= 0.0, "tenant '", t.name,
                        "': negative arrival rate ", t.arrival_rps);
        RAPID_CHECK_ARG(t.mean_prompt_tokens >= 1.0, "tenant '",
                        t.name, "': mean prompt ",
                        t.mean_prompt_tokens, " below one token");
        RAPID_CHECK_ARG(t.mean_output_tokens >= 1.0, "tenant '",
                        t.name, "': mean output ",
                        t.mean_output_tokens, " below one token");
        RAPID_CHECK_ARG(t.mean_prompt_tokens + t.mean_output_tokens <
                            double(model.max_context),
                        "tenant '", t.name,
                        "': mean prompt + output exceeds model "
                        "max_context ",
                        model.max_context);
        RAPID_CHECK_ARG(t.ttft_deadline_ns > 0, "tenant '", t.name,
                        "': non-positive TTFT deadline ",
                        t.ttft_deadline_ns);
        RAPID_CHECK_ARG(t.tpot_deadline_ns > 0, "tenant '", t.name,
                        "': non-positive per-token deadline ",
                        t.tpot_deadline_ns);
        RAPID_CHECK_ARG(servingQuality(t.min_precision) >= 0,
                        "tenant '", t.name, "': quality floor ",
                        precisionName(t.min_precision),
                        " is not servable");
        if (t.pattern == ArrivalPattern::Bursty)
            RAPID_CHECK_ARG(t.burst_mean >= 1.0, "tenant '", t.name,
                            "': burst mean ", t.burst_mean,
                            " below 1");
        // The floor must be reachable on the ladder, or the tenant
        // could never be served at all.
        const int floor = servingQuality(t.min_precision);
        const bool reachable = std::any_of(
            cfg.ladder.begin(), cfg.ladder.end(),
            [&](const LlmMode &m) {
                return servingQuality(m.act) >= floor;
            });
        RAPID_CHECK_CONFIG(reachable, "tenant '", t.name,
                           "': no ladder mode reaches quality floor ",
                           precisionName(t.min_precision));
    }
    validateFaultConfig(cfg.fault);
    validateCalibratedAdmissionConfig(cfg.admission);
}

std::vector<Precision>
llmTablePrecisions(const LlmServeConfig &cfg)
{
    std::vector<Precision> out;
    for (const LlmMode &m : cfg.ladder)
        if (std::find(out.begin(), out.end(), m.act) == out.end())
            out.push_back(m.act);
    return out;
}

} // namespace rapid
