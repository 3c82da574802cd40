#include "serve/workload.hh"

#include <algorithm>
#include <cmath>

namespace rapid {

int64_t
expGapNs(Rng &rng, double rate_per_s)
{
    const double u = rng.uniform();
    const double gap_s = -std::log1p(-u) / rate_per_s;
    const double gap_ns = std::ceil(gap_s * 1e9);
    if (gap_ns < 1.0)
        return 1;
    if (gap_ns > 9e18)
        return int64_t(9e18);
    return int64_t(gap_ns);
}

int64_t
geometricDraw(Rng &rng, double mean, int64_t cap)
{
    rapid_dassert(cap >= 1, "geometric cap below one");
    if (mean <= 1.0)
        return 1;
    // P(size > k) = (1 - 1/mean)^k
    const double q = 1.0 - 1.0 / mean;
    const double u = rng.uniform();
    const double k = std::floor(std::log1p(-u) / std::log(q));
    if (!(k >= 0.0))
        return 1;
    return k >= double(cap - 1) ? cap : 1 + int64_t(k);
}

std::vector<int64_t>
tenantArrivalTimes(const TenantConfig &tenant, unsigned tenant_index,
                   int64_t horizon_ns, uint64_t seed)
{
    Rng rng(mixSeed(seed, tenant_index));
    std::vector<int64_t> times;
    forEachArrival(rng, tenant.arrival_rps, tenant.pattern,
                   tenant.burst_mean, horizon_ns,
                   [&times](int64_t t) { times.push_back(t); });
    return times;
}

std::vector<Arrival>
generateArrivals(const ServeConfig &cfg)
{
    std::vector<Arrival> merged;
    for (unsigned ti = 0; ti < cfg.tenants.size(); ++ti) {
        const std::vector<int64_t> times = tenantArrivalTimes(
            cfg.tenants[ti], ti, cfg.horizon_ns, cfg.seed);
        merged.reserve(merged.size() + times.size());
        for (int64_t t : times)
            merged.push_back(Arrival{t, ti, 0});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Arrival &a, const Arrival &b) {
                         if (a.time_ns != b.time_ns)
                             return a.time_ns < b.time_ns;
                         return a.tenant < b.tenant;
                     });
    for (size_t i = 0; i < merged.size(); ++i)
        merged[i].id = i;
    return merged;
}

} // namespace rapid
