/**
 * @file
 * Deterministic open-loop workload generation for the serving
 * simulator: each tenant draws its arrival times from an independent
 * mixSeed(seed, tenant) stream, so the merged trace is a pure function
 * of (config, seed) — independent of thread count and of how many
 * tenants exist before or after a given one.
 */

#ifndef RAPID_SERVE_WORKLOAD_HH
#define RAPID_SERVE_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "serve/serve_config.hh"

namespace rapid {

/** Exponential(rate per second) gap in integer nanoseconds, >= 1: the
 *  inter-arrival draw of the serve and llm workload generators. */
int64_t expGapNs(Rng &rng, double rate_per_s);

/** One request entering the front-end. */
struct Arrival
{
    int64_t time_ns = 0;
    unsigned tenant = 0; ///< index into ServeConfig::tenants
    uint64_t id = 0;     ///< dense id in merged arrival order
};

/**
 * Arrival times for one tenant over [0, horizon_ns), sorted
 * ascending. Poisson tenants draw exponential gaps at arrival_rps;
 * bursty tenants draw burst epochs at arrival_rps / burst_mean with
 * geometric(mean burst_mean) coincident request groups, preserving
 * the configured average offered load.
 */
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
