#include "llm/llm_metrics.hh"

#include <sstream>
#include <utility>

#include "common/table.hh"

namespace rapid {

namespace {

void
finishTenant(LlmTenantMetrics &m, std::vector<int64_t> &ttfts,
             std::vector<int64_t> &tpots, int64_t horizon_ns)
{
    m.ttft = summarizeLatencies(std::move(ttfts));
    if (!tpots.empty())
        m.tpot_p95_ns = summarizeLatencies(std::move(tpots)).p95;
    const double horizon_s = double(horizon_ns) * 1e-9;
    m.goodput_rps = double(m.sla_met) / horizon_s;
    m.offered_rps = double(m.offered) / horizon_s;
    m.tokens_per_s = double(m.generated_tokens) / horizon_s;
}

} // namespace

LlmMetrics
computeLlmMetrics(const LlmServeConfig &cfg, const LlmResult &result)
{
    LlmMetrics out;
    out.tenants.resize(cfg.tenants.size());
    for (size_t ti = 0; ti < cfg.tenants.size(); ++ti) {
        out.tenants[ti].name = cfg.tenants[ti].name;
        out.tenants[ti].served_by_mode.assign(cfg.ladder.size(), 0);
    }
    out.total.name = "total";
    out.total.served_by_mode.assign(cfg.ladder.size(), 0);

    std::vector<std::vector<int64_t>> ttft(cfg.tenants.size());
    std::vector<std::vector<int64_t>> tpot(cfg.tenants.size());
    std::vector<int64_t> ttft_all, tpot_all;
    for (const LlmRequestRecord &r : result.requests) {
        LlmTenantMetrics &m = out.tenants[r.tenant];
        // Every count lands in the tenant's row and the total row.
        const auto count = [&](uint64_t LlmTenantMetrics::*counter) {
            ++(m.*counter);
            ++(out.total.*counter);
        };
        const auto addTokens = [&](int64_t LlmTenantMetrics::*counter,
                                   int64_t tokens) {
            m.*counter += tokens;
            out.total.*counter += tokens;
        };
        count(&LlmTenantMetrics::offered);
        addTokens(&LlmTenantMetrics::planned_tokens, r.output_tokens);
        if (r.shed) {
            count(&LlmTenantMetrics::shed);
            addTokens(&LlmTenantMetrics::dropped_tokens, r.output_tokens);
            continue;
        }
        count(&LlmTenantMetrics::completed);
        addTokens(&LlmTenantMetrics::generated_tokens, r.generated_tokens);
        ++m.served_by_mode[size_t(r.mode)];
        ++out.total.served_by_mode[size_t(r.mode)];
        count(r.tier == AdmitTier::Calibrated
                  ? &LlmTenantMetrics::admitted_calibrated
                  : &LlmTenantMetrics::admitted_bound);
        const int64_t t1 = r.ttftNs();
        ttft[r.tenant].push_back(t1);
        ttft_all.push_back(t1);
        const LlmTenantConfig &tc = cfg.tenants[r.tenant];
        const bool ttft_ok = t1 <= tc.ttft_deadline_ns;
        bool tpot_ok = true;
        if (r.generated_tokens >= 2) {
            const int64_t tp = r.tpotNs();
            tpot[r.tenant].push_back(tp);
            tpot_all.push_back(tp);
            tpot_ok = tp <= tc.tpot_deadline_ns;
        }
        if (!ttft_ok)
            count(&LlmTenantMetrics::ttft_violations);
        if (!tpot_ok)
            count(&LlmTenantMetrics::tpot_violations);
        if (ttft_ok && tpot_ok)
            count(&LlmTenantMetrics::sla_met);
    }
    for (size_t ti = 0; ti < cfg.tenants.size(); ++ti)
        finishTenant(out.tenants[ti], ttft[ti], tpot[ti],
                     result.horizon_ns);
    finishTenant(out.total, ttft_all, tpot_all, result.horizon_ns);

    for (const LlmStepRecord &s : result.steps) {
        out.energy_j += s.energy_j;
        if (s.kind == LlmStepKind::Prefill) {
            ++out.prefill_steps;
            continue;
        }
        ++out.decode_steps;
        out.mean_decode_live += double(s.live);
        out.mean_decode_batch += double(s.batch);
        out.spill_ns_total += s.spill_ns;
        if (s.spill_ns > 0)
            ++out.spilled_steps;
    }
    if (out.decode_steps > 0) {
        out.mean_decode_live /= double(out.decode_steps);
        out.mean_decode_batch /= double(out.decode_steps);
    }
    if (out.total.generated_tokens > 0)
        out.energy_per_token_mj = 1e3 * out.energy_j /
                                  double(out.total.generated_tokens);
    for (const AdmissionStats &ga : result.group_admission)
        if (ga.fuse_tripped)
            ++out.fuse_trips;
    return out;
}

std::string
llmJsonRecord(const std::string &section, const std::string &label,
              const LlmMetrics &m)
{
    const LlmTenantMetrics &t = m.total;
    std::ostringstream oss;
    oss << "{\"section\":\"" << section << "\",\"label\":\"" << label
        << "\",\"offered\":" << t.offered
        << ",\"completed\":" << t.completed
        << ",\"shed\":" << t.shed
        << ",\"sla_met\":" << t.sla_met
        << ",\"ttft_violations\":" << t.ttft_violations
        << ",\"tpot_violations\":" << t.tpot_violations
        << ",\"admitted_calibrated\":" << t.admitted_calibrated
        << ",\"admitted_bound\":" << t.admitted_bound
        << ",\"fuse_trips\":" << m.fuse_trips
        << ",\"tier_closed\":"
        << (t.tierAccountingClosed() ? "true" : "false")
        << ",\"planned_tokens\":" << t.planned_tokens
        << ",\"generated_tokens\":" << t.generated_tokens
        << ",\"dropped_tokens\":" << t.dropped_tokens
        << ",\"request_accounting_closed\":"
        << (t.requestAccountingClosed() ? "true" : "false")
        << ",\"token_accounting_closed\":"
        << (t.tokenAccountingClosed() ? "true" : "false")
        << ",\"goodput_rps\":" << Table::fmt(t.goodput_rps, 3)
        << ",\"tokens_per_s\":" << Table::fmt(t.tokens_per_s, 3)
        << ",\"ttft_p95_ms\":" << Table::fmt(double(t.ttft.p95) * 1e-6, 3)
        << ",\"tpot_p95_ms\":" << Table::fmt(double(t.tpot_p95_ns) * 1e-6, 3)
        << ",\"mean_decode_live\":"
        << Table::fmt(m.mean_decode_live, 3)
        << ",\"mean_decode_batch\":"
        << Table::fmt(m.mean_decode_batch, 3)
        << ",\"spill_ms\":"
        << Table::fmt(double(m.spill_ns_total) * 1e-6, 3)
        << ",\"energy_per_token_mj\":"
        << Table::fmt(m.energy_per_token_mj, 4) << "}";
    return oss.str();
}

} // namespace rapid
