/**
 * @file
 * Aggregation of a ServeResult into serving metrics — tail latency
 * percentiles, goodput vs offered load, shed/violation accounting,
 * queue depth, energy per request — plus stable text rendering for
 * the golden-diffed bench and one-line JSON records for
 * BENCH_serve.json.
 */

#ifndef RAPID_SERVE_METRICS_HH
#define RAPID_SERVE_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server_sim.hh"

namespace rapid {

/** Latency distribution summary in nanoseconds. */
struct LatencyStats
{
    uint64_t count = 0;
    int64_t p50 = 0;
    int64_t p95 = 0;
    int64_t p99 = 0;
    int64_t p999 = 0;
    int64_t max = 0;
    double mean = 0;
};

/**
 * Exact empirical percentile (nearest-rank) of @p sorted latencies;
 * 0 when empty. @p q in [0, 1].
 */
int64_t latencyPercentile(const std::vector<int64_t> &sorted, double q);

/**
 * Summarize latencies given in any order; equal, field for field and
 * mean bit for bit, to summarizing them sorted. Percentiles come from
 * selection, not a sort (see DESIGN.md §11).
 */
LatencyStats summarizeLatencies(std::vector<int64_t> values);

/** Per-tenant (or aggregate) serving outcome. */
struct TenantMetrics
{
    std::string name;
    uint64_t offered = 0;   ///< requests generated
    uint64_t completed = 0; ///< requests served to completion
    uint64_t shed = 0;      ///< rejected at admission
    uint64_t failed = 0;    ///< stranded by a chip failure
    uint64_t sla_met = 0;   ///< completed within deadline
    uint64_t violations = 0; ///< completed after deadline
    LatencyStats latency;   ///< over completed requests
    /// Completed-in-deadline requests per second of offered horizon.
    double goodput_rps = 0;
    double offered_rps = 0;
    /// Requests served at each ladder-quality precision.
    uint64_t served_int4 = 0;
    uint64_t served_hfp8 = 0;
    uint64_t served_fp16 = 0;
    /// Per-tier admission accounting (overload control): completed
    /// requests split by the tier that admitted them, shed requests
    /// split by reason. With overload off every admit lands in
    /// admitted_bound and every shed in shed_admission.
    uint64_t admitted_calibrated = 0;
    uint64_t admitted_bound = 0;
    uint64_t shed_admission = 0;
    uint64_t shed_brownout = 0;

    /** offered == completed + shed + failed must hold after drain
     *  (failed is zero outside fleet serving). */
    bool accountingClosed() const
    {
        return offered == completed + shed + failed;
    }

    /** The per-tier ledger must close too: every offered request is
     *  admitted by exactly one tier, shed for exactly one reason, or
     *  stranded by a chip failure. */
    bool tierAccountingClosed() const
    {
        return offered == admitted_calibrated + admitted_bound +
                              shed_admission + shed_brownout + failed &&
               shed == shed_admission + shed_brownout;
    }
};

/** Whole-run aggregate view. */
struct ServeMetrics
{
    std::vector<TenantMetrics> tenants;
    TenantMetrics total; ///< name "total"
    double energy_j = 0; ///< all launched batches
    double energy_per_request_mj = 0; ///< mJ per completed request
    double mean_queue_depth = 0;      ///< time-weighted
    int64_t max_queue_depth = 0;
    double mean_batch_size = 0;
    uint64_t batches = 0;
    /// Overload-control aggregates (all zero when every feature is
    /// off; overload_active mirrors cfg.overload.anyEnabled() and
    /// gates the extra serveReport line so overload-off goldens are
    /// byte-identical to the pre-overload renderer).
    bool overload_active = false;
    uint64_t fuse_trips = 0;    ///< queues whose trust fuse tripped
    uint64_t breaker_opens = 0; ///< breaker open transitions
    uint64_t breaker_closes = 0; ///< breaker re-close transitions
    int brownout_max_level = 0; ///< deepest brownout rung reached
    uint64_t brownout_transitions = 0;
};

/** Aggregate a raw simulation result. */
ServeMetrics computeMetrics(const ServeConfig &cfg,
                            const ServeResult &result);

/**
 * Stable text report (aligned tables, fixed precision) suitable for
 * golden diffing: per-tenant SLA outcomes and an aggregate footer.
 */
std::string serveReport(const ServeMetrics &m);

/**
 * One JSON line describing the aggregate outcome, for the
 * BENCH_serve.json assembly: {"section":..., "policy":..., ...}.
 */
std::string serveJsonRecord(const std::string &section,
                            const std::string &policy,
                            const ServeMetrics &m);

} // namespace rapid

#endif // RAPID_SERVE_METRICS_HH
