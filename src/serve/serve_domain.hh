/**
 * @file
 * Event-driven execution core of one ServeSim on a DesDomain,
 * extracted from server_sim.cc so higher tiers (src/cluster) can host
 * the same scheduler as one chip of a fleet. The state and policy
 * helpers mirror the serial reference scheduler (the test-only oracle
 * in tests/test_serve.cc) line for line; the serial loop's explicit
 * time advance is replaced by three event lanes on the domain clock,
 * ordered at one instant exactly like the serial merge:
 *
 *  - kPriArrival: admit every trace arrival at this instant (in trace
 *    order), schedule the next arrival event, poke the batcher.
 *  - kPriCompletion: the executor frees; poke the batcher.
 *  - kPriTimeout: a queue head's max_wait expires; poke the batcher.
 *
 * A head timeout carries the queue's generation counter at scheduling
 * time; every launch bumps the counter, so a timeout whose head has
 * already launched is a stale no-op — exactly the instants the serial
 * loop never visits. Since stale events still advance the domain
 * clock, end_ns is reconstructed from busy_until and the last arrival
 * (provably equal to the serial loop's final `now` merge) instead of
 * from DesDomain::now().
 *
 * Fleet hooks (all inert unless called, so a core that never sees
 * them is bit-identical to ServeSim::run()):
 *
 *  - injectArrival(): adopt a request originating elsewhere (a
 *    failover redirect or retry) with an explicit remaining deadline
 *    budget; it walks the same router ladder as a trace arrival.
 *  - halt(): fail-stop the chip at the current instant. Every
 *    admitted-but-unfinished and not-yet-admitted request becomes
 *    `failed` and is returned as an orphan manifest (deterministic
 *    order) for the fleet router to re-route or write off; all later
 *    events on the domain are no-ops.
 *  - setTable(): switch the latency table mid-run (a degraded-mode
 *    transition to a chip with dead cores / MPE rows). Only batches
 *    launched after the switch see the new table.
 *
 * Overload control (cfg.overload, see serve/overload.hh; everything
 * defaults off and the default path is bit-identical to the
 * pre-overload scheduler): the router may admit on the calibrated
 * tier (observed p95 wait x margin) once a queue's window is warm,
 * guarded by a per-queue trust fuse that latches back to the proven
 * bound on the first calibrated SLA miss (one CalibratedAdmission per
 * queue, the same component the llm batcher uses); per-queue circuit
 * breakers skip ladder entries whose queue is open; and the brownout
 * ladder first caps the precision ladder from the expensive end, then
 * sheds tenants from the lowest priority class upward. Estimators are
 * fed at launch (wait = launch - arrival), SLA outcomes are evaluated
 * at the batch-completion event — both on the domain clock, so the
 * whole subsystem replays deterministically at any --threads N.
 */

#ifndef RAPID_SERVE_SERVE_DOMAIN_HH
#define RAPID_SERVE_SERVE_DOMAIN_HH

#include <cstdint>
#include <vector>

#include "common/des.hh"
#include "serve/overload.hh"
#include "serve/server_sim.hh"

namespace rapid {

/** One request stranded by a chip halt, for fleet-level re-routing. */
struct OrphanRequest
{
    uint64_t id = 0;       ///< record id on the halted chip
    unsigned tenant = 0;   ///< tenant index in the chip's ServeConfig
    int64_t arrival_ns = 0; ///< arrival on the halted chip's clock
    bool admitted = false; ///< queued or in flight (vs trace remainder)
};

/** Event-driven serving scheduler bound to one DES domain. */
class ServeDomainCore
{
  public:
    static constexpr int32_t kPriArrival = 0;
    static constexpr int32_t kPriCompletion = 1;
    static constexpr int32_t kPriTimeout = 2;
    /// Lane for host overlays (heartbeats, failure plans, training
    /// steps) scheduled on the same domain: strictly after every
    /// serving lane at one instant, so overlays observe a settled
    /// scheduler state and never perturb intra-instant serving order.
    static constexpr int32_t kPriOverlay = 3;

    /** Binds to @p sim's config/table; call start() before running. */
    ServeDomainCore(const ServeSim &sim, DesDomain &dom);

    /** Queue the bootstrap event at t=0 so trace generation itself
     *  runs inside the domain — i.e. in parallel across a batch. */
    void start();

    /** Close the run and move the result out (see file comment for
     *  the end_ns reconstruction argument). */
    ServeResult finish();

    /**
     * Adopt a request at max(now, time_ns): appends a RequestRecord,
     * walks the router ladder against @p deadline_ns (the remaining
     * SLA budget as computed by the caller), and returns the new
     * record id. The record sheds if no ladder entry fits, exactly
     * like a trace arrival. Must not be called before the bootstrap
     * event ran or after halt().
     */
    uint64_t injectArrival(int64_t time_ns, unsigned tenant,
                           int64_t deadline_ns);

    /**
     * Fail-stop the chip at the current domain instant. Marks every
     * unfinished request `failed`, closes the depth integral, and
     * returns the orphan manifest in deterministic order: in-flight
     * launched requests (by id), then queued requests (queue order,
     * FIFO), then the unadmitted trace remainder (trace order).
     * Subsequent events on the domain are no-ops, and end_ns freezes
     * at the halt instant.
     */
    std::vector<OrphanRequest> halt();

    /** Switch the latency table used by future launches (degraded
     *  mode). @p table must outlive the core. */
    void setTable(const LatencyTable *table);

  private:
    /** One injectArrival(); halt() files the ones whose admission
     *  event has not fired yet as unadmitted orphans. */
    struct Injected
    {
        uint64_t id = 0;
        unsigned tenant = 0;
        int64_t when = 0;
        bool admitted = false;
    };

    /** One dynamic-batching queue: requests of one
     *  (network, precision). */
    struct Queue
    {
        size_t network = 0;
        Precision precision = Precision::INT4;
        std::vector<uint64_t> pending; ///< request ids, FIFO
        size_t head = 0;               ///< index of the oldest id

        size_t depth() const { return pending.size() - head; }
        bool empty() const { return head == pending.size(); }
    };

    void bootstrap();
    void noteDepthChange(int64_t t, int64_t delta);
    int64_t queueServiceNs(const Queue &q, int64_t extra) const;
    int64_t backlogNs(int64_t t, size_t exclude) const;
    bool routeRequest(RequestRecord &rec, int64_t deadline_ns);
    void admit(const Arrival &a);
    int readyQueue(int64_t t) const;
    void scheduleHeadTimeout(size_t qi);
    void launch(int qi, int64_t t);
    void tryLaunch(int64_t t);
    void onArrival();
    void onTimeout(size_t qi, uint64_t gen);
    void onBatchOutcome(size_t qi, const std::vector<uint64_t> &ids);

    const ServeSim &sim_;
    DesDomain &dom_;
    const ServeConfig &cfg_;
    const LatencyTable *table_; ///< swappable via setTable()
    const std::vector<size_t> &tenant_network_;
    int64_t max_batch_;
    int64_t max_wait_;

    std::vector<Arrival> arrivals_;
    /// In injection order; admission events index it by slot.
    std::vector<Injected> injected_;
    std::vector<Queue> queues_;
    std::vector<std::vector<int>> queue_of_;
    /// Bumped on every launch of the queue; pending head timeouts
    /// capture the value at scheduling time and no-op on mismatch.
    std::vector<uint64_t> head_gen_;
    int64_t busy_until_ = -1; ///< executor busy while t < busy_until
    size_t next_arrival_ = 0;
    int64_t total_depth_ = 0; ///< requests queued across all queues
    int64_t last_event_ns_ = 0;
    bool bootstrapped_ = false;
    bool dead_ = false;
    int64_t halt_ns_ = 0;
    ServeResult result_;

    // Overload control (all empty/inert when cfg.overload has no
    // feature enabled, so the default path stays allocation-free).
    std::vector<CalibratedAdmission> admission_; ///< per queue
    std::vector<CircuitBreaker> breakers_;       ///< per queue
    BrownoutController brownout_;
    int brownout_precision_rungs_ = 0;
    /// Ascending distinct tenant priorities minus the top class: the
    /// k-th shedding rung drops tenants with priority <= cutoffs[k-1].
    std::vector<int> brownout_shed_cutoffs_;
};

} // namespace rapid

#endif // RAPID_SERVE_SERVE_DOMAIN_HH
