#include "serve/metrics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/table.hh"

namespace rapid {

namespace {

/** Nearest-rank index of quantile @p q among @p n > 0 values. */
size_t
percentileRank(size_t n, double q)
{
    rapid_assert(q >= 0.0 && q <= 1.0, "percentile ", q,
                 " outside [0,1]");
    const double rank = std::ceil(q * double(n));
    const size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
    return std::min(idx, n - 1);
}

/** True when sum |v| < 2^53. Then every partial sum, in any order, is
 *  an integer a double holds exactly, so the double sum of @p values
 *  does not depend on their order. */
bool
sumIsOrderFree(const std::vector<int64_t> &values)
{
    constexpr uint64_t kExact = uint64_t(1) << 53;
    uint64_t total = 0;
    for (int64_t v : values) {
        const uint64_t a = v < 0 ? 0 - uint64_t(v) : uint64_t(v);
        if (a >= kExact - total)
            return false;
        total += a;
    }
    return true;
}

} // namespace

int64_t
latencyPercentile(const std::vector<int64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    return sorted[percentileRank(sorted.size(), q)];
}

LatencyStats
summarizeLatencies(std::vector<int64_t> values)
{
    LatencyStats s;
    s.count = values.size();
    if (values.empty())
        return s;
    // The mean sums in sorted order unless no order can change it.
    if (!sumIsOrderFree(values))
        std::sort(values.begin(), values.end());
    double sum = 0;
    for (int64_t v : values)
        sum += double(v);
    s.mean = sum / double(values.size());

    // Ascending selection over shrinking suffixes: once rank r is in
    // place, every value ranked above it lies in [r + 1, n).
    const auto begin = values.begin();
    size_t from = 0;
    const auto select = [&](double q) {
        const size_t r = percentileRank(values.size(), q);
        if (r >= from) {
            std::nth_element(begin + long(from), begin + long(r),
                             values.end());
            from = r + 1;
        }
        return values[r];
    };
    s.p50 = select(0.50);
    s.p95 = select(0.95);
    s.p99 = select(0.99);
    s.p999 = select(0.999);
    s.max = *std::max_element(begin + long(from - 1), values.end());
    return s;
}

namespace {

/** The served_* counter of precision @p p. */
uint64_t TenantMetrics::*
servedCounter(Precision p)
{
    if (p == Precision::INT4 || p == Precision::INT2)
        return &TenantMetrics::served_int4;
    return p == Precision::HFP8 ? &TenantMetrics::served_hfp8
                                : &TenantMetrics::served_fp16;
}

void
finishTenant(TenantMetrics &m, std::vector<int64_t> &latencies,
             int64_t horizon_ns)
{
    m.latency = summarizeLatencies(std::move(latencies));
    const double horizon_s = double(horizon_ns) * 1e-9;
    m.goodput_rps = double(m.sla_met) / horizon_s;
    m.offered_rps = double(m.offered) / horizon_s;
}

} // namespace

ServeMetrics
computeMetrics(const ServeConfig &cfg, const ServeResult &result)
{
    ServeMetrics out;
    out.tenants.resize(cfg.tenants.size());
    for (size_t ti = 0; ti < cfg.tenants.size(); ++ti)
        out.tenants[ti].name = cfg.tenants[ti].name;
    out.total.name = "total";

    std::vector<std::vector<int64_t>> lat(cfg.tenants.size());
    std::vector<int64_t> lat_all;
    for (const RequestRecord &r : result.requests) {
        // Every count lands in the tenant's row and the total row.
        const auto count = [&](uint64_t TenantMetrics::*counter) {
            ++(out.tenants[r.tenant].*counter);
            ++(out.total.*counter);
        };
        count(&TenantMetrics::offered);
        if (r.failed) {
            count(&TenantMetrics::failed);
            continue;
        }
        if (r.shed) {
            count(&TenantMetrics::shed);
            count(r.shed_reason == ShedReason::Brownout
                      ? &TenantMetrics::shed_brownout
                      : &TenantMetrics::shed_admission);
            continue;
        }
        count(&TenantMetrics::completed);
        count(r.tier == AdmitTier::Calibrated
                  ? &TenantMetrics::admitted_calibrated
                  : &TenantMetrics::admitted_bound);
        count(servedCounter(r.precision));
        const int64_t l = r.latencyNs();
        lat[r.tenant].push_back(l);
        lat_all.push_back(l);
        count(l <= cfg.tenants[r.tenant].deadline_ns
                  ? &TenantMetrics::sla_met
                  : &TenantMetrics::violations);
    }
    for (size_t ti = 0; ti < cfg.tenants.size(); ++ti)
        finishTenant(out.tenants[ti], lat[ti], result.horizon_ns);
    finishTenant(out.total, lat_all, result.horizon_ns);

    for (const BatchRecord &b : result.batches) {
        out.energy_j += b.energy_j;
        out.mean_batch_size += double(b.size);
    }
    out.batches = result.batches.size();
    if (out.batches > 0)
        out.mean_batch_size /= double(out.batches);
    if (out.total.completed > 0)
        out.energy_per_request_mj =
            1e3 * out.energy_j / double(out.total.completed);
    const int64_t span =
        result.end_ns > 0 ? result.end_ns : result.horizon_ns;
    out.mean_queue_depth =
        span > 0 ? result.queue_depth_integral / double(span) : 0.0;
    out.max_queue_depth = result.max_queue_depth;

    out.overload_active = cfg.overload.anyEnabled();
    for (const QueueOverloadStats &qs : result.queue_overload) {
        if (qs.fuse_tripped)
            ++out.fuse_trips;
        out.breaker_opens += qs.breaker_opens;
        out.breaker_closes += qs.breaker_closes;
    }
    for (const BrownoutTransition &tr : result.brownout_transitions)
        out.brownout_max_level =
            std::max(out.brownout_max_level, tr.level);
    out.brownout_transitions = result.brownout_transitions.size();
    return out;
}

namespace {

std::string
ms(int64_t ns)
{
    return Table::fmt(double(ns) * 1e-6, 3);
}

} // namespace

std::string
serveReport(const ServeMetrics &m)
{
    Table t({"Tenant", "Offered/s", "Goodput/s", "Shed", "Viol",
             "p50 ms", "p95 ms", "p99 ms", "p99.9 ms", "INT4", "HFP8",
             "FP16"});
    auto row = [&](const TenantMetrics &tm) {
        t.addRow({tm.name, Table::fmt(tm.offered_rps, 1),
                  Table::fmt(tm.goodput_rps, 1),
                  Table::pct(tm.shed, tm.offered),
                  Table::pct(tm.violations, tm.offered),
                  ms(tm.latency.p50), ms(tm.latency.p95),
                  ms(tm.latency.p99), ms(tm.latency.p999),
                  Table::pct(tm.served_int4, tm.completed),
                  Table::pct(tm.served_hfp8, tm.completed),
                  Table::pct(tm.served_fp16, tm.completed)});
    };
    for (const TenantMetrics &tm : m.tenants)
        row(tm);
    row(m.total);

    std::ostringstream oss;
    oss << t.str();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "batches %llu (mean size %.2f), queue depth mean "
                  "%.2f max %lld, %.3f mJ/request\n",
                  (unsigned long long)m.batches, m.mean_batch_size,
                  m.mean_queue_depth, (long long)m.max_queue_depth,
                  m.energy_per_request_mj);
    oss << buf;
    if (m.overload_active) {
        std::snprintf(
            buf, sizeof(buf),
            "overload: admits calibrated %llu / bound %llu, shed "
            "admission %llu brownout %llu, fuse trips %llu, breaker "
            "opens %llu closes %llu, brownout max level %d\n",
            (unsigned long long)m.total.admitted_calibrated,
            (unsigned long long)m.total.admitted_bound,
            (unsigned long long)m.total.shed_admission,
            (unsigned long long)m.total.shed_brownout,
            (unsigned long long)m.fuse_trips,
            (unsigned long long)m.breaker_opens,
            (unsigned long long)m.breaker_closes,
            m.brownout_max_level);
        oss << buf;
    }
    return oss.str();
}

std::string
serveJsonRecord(const std::string &section, const std::string &policy,
                const ServeMetrics &m)
{
    std::ostringstream oss;
    oss << "{\"section\":\"" << section << "\",\"policy\":\"" << policy
        << "\",\"offered_rps\":" << Table::fmt(m.total.offered_rps, 3)
        << ",\"goodput_rps\":" << Table::fmt(m.total.goodput_rps, 3)
        << ",\"offered\":" << m.total.offered
        << ",\"completed\":" << m.total.completed
        << ",\"shed\":" << m.total.shed
        << ",\"failed\":" << m.total.failed
        << ",\"violations\":" << m.total.violations
        << ",\"admitted_calibrated\":" << m.total.admitted_calibrated
        << ",\"admitted_bound\":" << m.total.admitted_bound
        << ",\"shed_admission\":" << m.total.shed_admission
        << ",\"shed_brownout\":" << m.total.shed_brownout
        << ",\"fuse_trips\":" << m.fuse_trips
        << ",\"breaker_opens\":" << m.breaker_opens
        << ",\"breaker_closes\":" << m.breaker_closes
        << ",\"brownout_max_level\":" << m.brownout_max_level
        << ",\"tier_closed\":"
        << (m.total.tierAccountingClosed() ? "true" : "false")
        << ",\"p50_ms\":" << ms(m.total.latency.p50)
        << ",\"p99_ms\":" << ms(m.total.latency.p99)
        << ",\"p999_ms\":" << ms(m.total.latency.p999)
        << ",\"energy_per_request_mj\":"
        << Table::fmt(m.energy_per_request_mj, 4)
        << ",\"mean_batch\":" << Table::fmt(m.mean_batch_size, 3)
        << "}";
    return oss.str();
}

} // namespace rapid
