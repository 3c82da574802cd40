#include "serve/workload.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

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

namespace {

/** Geometric draw with the given mean (>= 1), support {1, 2, ...}. */
int64_t
geometricSize(Rng &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    // P(size > k) = (1 - 1/mean)^k
    const double q = 1.0 - 1.0 / mean;
    const double u = rng.uniform();
    const double k = std::floor(std::log1p(-u) / std::log(q));
    if (!(k >= 0.0))
        return 1;
    if (k > 4096.0) // clamp pathological tails; keeps traces bounded
        return 4097;
    return 1 + int64_t(k);
}

} // namespace

std::vector<int64_t>
tenantArrivalTimes(const TenantConfig &tenant, unsigned tenant_index,
                   int64_t horizon_ns, uint64_t seed)
{
    rapid_assert(horizon_ns > 0, "non-positive workload horizon");
    Rng rng(mixSeed(seed, tenant_index));
    std::vector<int64_t> times;
    if (tenant.pattern == ArrivalPattern::Poisson) {
        int64_t t = expGapNs(rng, tenant.arrival_rps);
        while (t < horizon_ns) {
            times.push_back(t);
            t += expGapNs(rng, tenant.arrival_rps);
        }
        return times;
    }
    // Bursty: epochs arrive at rate/burst_mean; each epoch carries a
    // geometric(burst_mean) group of coincident requests, so the
    // average offered load stays arrival_rps.
    const double mean = std::max(1.0, tenant.burst_mean);
    const double epoch_rate = tenant.arrival_rps / mean;
    int64_t t = expGapNs(rng, epoch_rate);
    while (t < horizon_ns) {
        const int64_t burst = geometricSize(rng, mean);
        for (int64_t i = 0; i < burst; ++i)
            times.push_back(t);
        t += expGapNs(rng, epoch_rate);
    }
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
