/**
 * @file
 * Event-driven multi-tenant serving simulator over the RaPiD chip
 * model. Requests from the deterministic workload generator flow
 * through a precision-aware SLA router into per-(network, precision)
 * dynamic-batching queues; a single serialized executor (the chip)
 * charges each launched batch its PerfModel latency on the virtual
 * clock.
 *
 * Router policy: at admission the router walks the config ladder
 * (cheapest precision first), skips entries below the tenant's
 * quality floor, and picks the first precision whose conservatively
 * predicted completion — current chip backlog, plus one full batching
 * wait, plus a max-batch execution — meets the tenant deadline. When
 * no ladder entry fits, the request is shed immediately (admission
 * control) rather than queued to miss its SLA.
 *
 * Batcher policy: a queue becomes ready when it holds max_batch
 * requests or its head has waited max_wait_ns; a free executor always
 * launches the ready queue with the oldest head (ties: lowest queue
 * id). With a single queue this makes the router's prediction a hard
 * upper bound on completion time; with cross traffic it is an
 * estimate, and the metrics report any deadline violations.
 *
 * Everything runs on the virtual clock: time only advances to arrival
 * times, head timeouts, and batch completions, all integer
 * nanoseconds derived from the frozen LatencyTable. No wall-clock
 * reads anywhere (machine-enforced by the no-wallclock lint check).
 *
 * Execution engine: run() expresses the simulation as typed events
 * (arrival < completion < head-timeout at one instant) on a
 * rapid::DesDomain, and runServeBatch() packs many independent
 * simulations as domains of one DesEngine so a sweep's scenario grid
 * advances in parallel on the shared ThreadPool — bit-identical to
 * serial at any --threads N. The original single-loop scheduler
 * lives on in tests/test_serve.cc as the executable specification;
 * the engine-equivalence tests there hold run() exactly equal to it,
 * field for field.
 */

#ifndef RAPID_SERVE_SERVER_SIM_HH
#define RAPID_SERVE_SERVER_SIM_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "serve/latency_table.hh"
#include "serve/serve_config.hh"
#include "serve/workload.hh"

namespace rapid {

/** Lifecycle of one request, for metrics and invariant tests. */
struct RequestRecord
{
    uint64_t id = 0;
    unsigned tenant = 0;
    Precision precision = Precision::INT4; ///< routed precision
    int64_t arrival_ns = 0;
    int64_t launch_ns = -1;     ///< batch launch, -1 when shed
    int64_t completion_ns = -1; ///< batch completion, -1 when shed
    int64_t predicted_ns = -1;  ///< router's admission-time prediction
    /// Admission tier that accepted the request: always Bound unless
    /// the calibrated tier is enabled and trusted at admission time.
    AdmitTier tier = AdmitTier::Bound;
    /// Why the request was shed (None while admitted).
    ShedReason shed_reason = ShedReason::None;
    /// Admitted as a half-open circuit-breaker probe (breaker only).
    bool probe = false;
    bool shed = false;
    /// True when the hosting chip failed before completion (fleet
    /// serving only; single-chip runs never set it). A failed request
    /// is terminal on this chip — any retry is a fresh record on the
    /// failover target.
    bool failed = false;

    int64_t
    latencyNs() const
    {
        return shed || failed ? -1 : completion_ns - arrival_ns;
    }

    int64_t
    queueWaitNs() const
    {
        return shed || failed ? -1 : launch_ns - arrival_ns;
    }
};

/** One executed batch on the chip. */
struct BatchRecord
{
    size_t network = 0; ///< dense network id (see ServeSim::networks)
    Precision precision = Precision::INT4;
    int64_t size = 0;
    int64_t launch_ns = 0;
    int64_t completion_ns = 0;
    double energy_j = 0;
    /// True when the batch launched below max_batch because its head
    /// timed out (rather than because the trace drained).
    bool forced_by_timeout = false;
};

/** Raw simulation outcome; metrics.hh aggregates it. */
struct ServeResult
{
    std::vector<RequestRecord> requests; ///< in arrival order
    std::vector<BatchRecord> batches;    ///< in launch order
    int64_t horizon_ns = 0;              ///< configured open-loop window
    int64_t end_ns = 0;                  ///< virtual time at drain
    /// Time-integral of total queued requests (depth x ns), for the
    /// time-weighted mean queue depth.
    double queue_depth_integral = 0;
    int64_t max_queue_depth = 0;
    /// Per-queue overload-control outcome, indexed by queue id; empty
    /// when no overload feature is enabled.
    std::vector<QueueOverloadStats> queue_overload;
    /// Brownout level changes in time order (empty when off).
    std::vector<BrownoutTransition> brownout_transitions;
};

/** The simulator: builds the latency table once, then runs traces. */
class ServeSim
{
  public:
    /**
     * Compiles and freezes the latency table for every (tenant
     * network, ladder-or-floor precision, batch <= max_batch) point.
     * Throws rapid::Error on an invalid scenario or chip (including
     * an all-dead dead_core_mask).
     */
    ServeSim(const ChipConfig &chip, const ServeConfig &cfg);

    const ServeConfig &config() const { return cfg_; }
    const LatencyTable &table() const { return table_; }
    /** Dense network id of each tenant (shared across tenants that
     *  serve the same network). */
    const std::vector<size_t> &tenantNetwork() const
    {
        return tenant_network_;
    }
    /** Unique network names, indexed by dense network id. */
    const std::vector<std::string> &networkNames() const
    {
        return network_names_;
    }

    /**
     * Generate the trace and run it to drain on the virtual clock,
     * event-driven on the DES engine (a single domain; use
     * runServeBatch to advance many simulations in parallel).
     */
    ServeResult run() const;

  private:
    // Declaration order is construction order: the network mapping
    // must exist before the latency table is built from it.
    ChipConfig chip_;
    ServeConfig cfg_;
    std::vector<std::string> network_names_;
    std::vector<size_t> tenant_network_;
    std::vector<Network> networks_;
    LatencyTable table_;
};

/**
 * Run many independent serving simulations as domains of one
 * DesEngine: workload generation and the event loops advance in
 * parallel on the shared ThreadPool, results gather by index, and
 * every entry is bit-identical to sims[i]->run() at any thread
 * count. Throws rapid::Error on a null entry.
 */
std::vector<ServeResult> runServeBatch(
    const std::vector<const ServeSim *> &sims);

} // namespace rapid

#endif // RAPID_SERVE_SERVER_SIM_HH
