/**
 * @file
 * Deterministic open-loop workload generation for the serving
 * simulator: each tenant draws its arrival times from an independent
 * mixSeed(seed, tenant) stream, so the merged trace is a pure function
 * of (config, seed) — independent of thread count and of how many
 * tenants exist before or after a given one. The transformer serving
 * simulator's request generator runs the same arrival process.
 */

#ifndef RAPID_SERVE_WORKLOAD_HH
#define RAPID_SERVE_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "serve/serve_config.hh"

namespace rapid {

/** Exponential(rate per second) gap in integer nanoseconds, >= 1: the
 *  inter-arrival draw of the arrival process. */
int64_t expGapNs(Rng &rng, double rate_per_s);

/** Geometric draw with the given mean, support {1, 2, ...}, clamped
 *  to @p cap (>= 1). A mean <= 1 returns 1 without drawing. */
int64_t geometricDraw(Rng &rng, double mean, int64_t cap);

/**
 * The open-loop arrival process of one tenant over [0, horizon_ns):
 * calls emit(time_ns) once per request, in ascending time. Poisson
 * traffic draws exponential gaps at @p rate requests per second;
 * bursty traffic draws burst epochs at rate / burst_mean, each a
 * geometric(burst_mean) group of coincident requests, preserving the
 * average offered load. A rate <= 0 draws nothing. @p emit may draw
 * from @p rng too; its draws interleave with the gap draws.
 */
template <class Emit>
void
forEachArrival(Rng &rng, double rate, ArrivalPattern pattern,
               double burst_mean, int64_t horizon_ns, Emit &&emit)
{
    rapid_assert(horizon_ns > 0, "non-positive workload horizon");
    if (rate <= 0.0)
        return;
    const double mean = pattern == ArrivalPattern::Bursty
                            ? std::max(1.0, burst_mean)
                            : 1.0;
    const double epoch_rate = rate / mean;
    // Clamp pathological burst tails; keeps traces bounded.
    constexpr int64_t kMaxBurst = 4097;
    for (int64_t t = expGapNs(rng, epoch_rate); t < horizon_ns;
         t += expGapNs(rng, epoch_rate)) {
        const int64_t burst = geometricDraw(rng, mean, kMaxBurst);
        for (int64_t i = 0; i < burst; ++i)
            emit(t);
    }
}

/** One request entering the front-end. */
struct Arrival
{
    int64_t time_ns = 0;
    unsigned tenant = 0; ///< index into ServeConfig::tenants
    uint64_t id = 0;     ///< dense id in merged arrival order
};

/** Arrival times of one tenant over [0, horizon_ns) from its
 *  mixSeed(seed, tenant_index) stream (forEachArrival), ascending. */
std::vector<int64_t> tenantArrivalTimes(const TenantConfig &tenant,
                                        unsigned tenant_index,
                                        int64_t horizon_ns,
                                        uint64_t seed);

/**
 * The full merged trace, sorted by (time, tenant index) with dense
 * ids assigned in merged order.
 */
std::vector<Arrival> generateArrivals(const ServeConfig &cfg);

} // namespace rapid

#endif // RAPID_SERVE_WORKLOAD_HH
