/**
 * @file
 * The fleet ledger: resolves every origin request of a FleetResult to
 * exactly one terminal record (its own, or the last adoption of its
 * failover chain) and aggregates global serving outcomes — closed
 * offered/completed/shed/failed accounting, SLA measured from the
 * *origin* arrival across failovers, goodput, and fleet liveness —
 * plus the golden-diffed text report and the BENCH_cluster.json
 * records.
 */

#ifndef RAPID_CLUSTER_FLEET_METRICS_HH
#define RAPID_CLUSTER_FLEET_METRICS_HH

#include <cstdint>
#include <string>

#include "cluster/fleet.hh"
#include "serve/metrics.hh"

namespace rapid {

/** Origin-resolved global outcome of one fleet run. */
struct FleetLedger
{
    uint64_t offered = 0;   ///< origin requests fleet-wide
    uint64_t completed = 0; ///< origins whose terminal completed
    uint64_t shed = 0;      ///< origins shed at terminal admission
    uint64_t failed = 0;    ///< origins written off (chain exhausted)
    /// Origins whose retry a dry budget converted to a shed
    /// (cfg.failover.budget); disjoint from failed.
    uint64_t shed_budget = 0;
    uint64_t retries_denied = 0; ///< router budget denials
    /// Origins that completed on a chip other than their home.
    uint64_t failed_over = 0;
    uint64_t retries = 0; ///< adoption records (failover deliveries)
    uint64_t sla_met = 0; ///< completed within the tenant deadline,
                          ///< measured from the origin arrival
    uint64_t violations = 0;
    LatencyStats latency; ///< origin arrival -> terminal completion
    double offered_rps = 0;
    double goodput_rps = 0; ///< sla_met per offered-horizon second
    /// Chip-seconds alive over total chip-seconds of the horizon.
    double live_fraction = 1.0;
    size_t chips_failed = 0;
    size_t chips_degraded = 0;
    uint64_t windows = 0;

    /** Global conservation law: every origin resolves to exactly one
     *  terminal state. */
    bool closed() const
    {
        return offered == completed + shed + failed + shed_budget;
    }
};

/**
 * Resolve @p result against the failover chains. rapid_assert-fails
 * if any adoption cannot be joined back to a record (a protocol bug,
 * not a config error).
 */
FleetLedger buildFleetLedger(const ClusterConfig &cfg,
                             const FleetResult &result);

/**
 * Stable text report for golden diffing: a per-chip table (state,
 * detection time, local record counts, orphans, adoptions), the
 * origin-resolved fleet summary, and — when the training tenant is
 * enabled — a training line ending in an FNV-1a digest of the final
 * checkpoint bytes (pins bit-exact restore in the goldens).
 */
std::string fleetReport(const ClusterConfig &cfg,
                        const FleetResult &result,
                        const FleetLedger &ledger);

/**
 * One JSON line for the BENCH_cluster.json assembly. Carries the raw
 * accounting fields and "closed" so scripts/assemble.py can hard-fail
 * on an open ledger.
 */
std::string clusterJsonRecord(const std::string &section,
                              const ClusterConfig &cfg,
                              const FleetResult &result,
                              const FleetLedger &ledger);

} // namespace rapid

#endif // RAPID_CLUSTER_FLEET_METRICS_HH
