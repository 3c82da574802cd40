/**
 * @file
 * Deterministic conservative parallel discrete-event core for the
 * virtual clock, and the one event engine of the repo. Every
 * simulator advances integer-ns (or integer-cycle) time; this engine
 * lets *independent* simulation domains (serving scenarios, fleet
 * chips) advance concurrently on the deterministic fork-join pool
 * while producing bit-identical results at any --threads N. The
 * cycle-level simulators in src/sim run their cores on one domain.
 *
 * Model:
 *
 *  - An event is a callback with a timestamp and a priority lane (the
 *    event's "type": arrivals before completions before timeouts at
 *    one instant, say). Events obey a stable total order on
 *    (time_ns, priority, sequence_id); the sequence id is assigned
 *    deterministically at scheduling/delivery time, so the order is a
 *    pure function of the workload, never of thread scheduling.
 *  - Each DesDomain owns a private event heap and a private now().
 *    Events run only on their owning domain, and a domain is
 *    processed by exactly one thread at a time, so domain state
 *    needs no locks and stays ThreadSanitizer-clean by construction.
 *  - Domains exchange timestamped messages over declared channels,
 *    each with a strictly positive lookahead: a message sent while
 *    the sender executes an event at time t must carry a timestamp
 *    >= t + lookahead (a serving domain's chip cannot complete a
 *    batch sooner than its minimum batch latency; a ring hop cannot
 *    deliver sooner than its hop delay). Violations throw
 *    rapid::Error at the send site.
 *
 * Conservative synchronization (Graphite-style, barrier variant):
 * the engine repeatedly computes the global safe bound
 *
 *     B = min over domains d of (earliest_d + min_lookahead_out_d)
 *
 * and lets every due domain (earliest_d < B) process its events with
 * time < B (a domain with no outgoing channels cannot constrain
 * anyone, its lookahead is infinite). Because any message generated
 * inside the window carries a timestamp >= its sender's event time +
 * lookahead >= B, no domain can receive an event in its own past;
 * messages are exchanged serially at the window barrier, in domain
 * index order, which pins their sequence ids deterministically.
 * Strictly positive lookahead guarantees B > min(earliest_d), so the
 * globally earliest event always executes and the loop cannot
 * livelock; kSimNever is not a legal event time.
 *
 * Which windows run in parallel: when every domain is independent, B
 * is infinite and the whole simulation runs in one window that forks
 * its due domains over the pool. A lookahead-bounded window (only
 * channel-connected simulations such as the fleet have them) holds an
 * event or two per due domain, while a pool fork costs about 16 us on
 * a 4-vCPU x86 host; so bounded windows run their due domains inline
 * on the calling thread, in domain index order. run(until) caps B at
 * until, so its windows are bounded too. Either way the results are
 * the same.
 */

#ifndef RAPID_COMMON_DES_HH
#define RAPID_COMMON_DES_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace rapid {

/** Virtual time in integer nanoseconds (or cycles; units are the
 *  embedding simulator's contract). */
using SimTime = int64_t;

/** "Never" sentinel: no event, or an unbounded lookahead. */
constexpr SimTime kSimNever = std::numeric_limits<SimTime>::max();

/** Dense id of a domain inside one engine. */
using DomainId = size_t;

/**
 * The stable total order of every event in a domain: time first, then
 * the priority lane (lower runs first), then the deterministic
 * sequence id. Two events never tie: sequence ids are unique.
 */
struct EventKey
{
    SimTime time_ns = 0;
    int32_t priority = 0;
    uint64_t seq = 0;

    bool
    operator<(const EventKey &o) const
    {
        if (time_ns != o.time_ns)
            return time_ns < o.time_ns;
        if (priority != o.priority)
            return priority < o.priority;
        return seq < o.seq;
    }

    bool operator>(const EventKey &o) const { return o < *this; }
};

class DesEngine;

/**
 * One simulation domain: a private event heap plus a private clock.
 * Obtain instances from DesEngine::addDomain; schedule local events
 * freely and cross-domain events through send() (channel + lookahead
 * required). All mutation happens from the domain's own event
 * callbacks or before DesEngine::run starts.
 */
class DesDomain
{
  public:
    using Callback = std::function<void()>;

    DesDomain(const DesDomain &) = delete;
    DesDomain &operator=(const DesDomain &) = delete;

    DomainId id() const { return id_; }
    const std::string &name() const { return name_; }

    /** This domain's clock: the timestamp of the executing event. */
    SimTime now() const { return now_; }

    /**
     * Schedule a local event at absolute time @p when (>= now()) on
     * priority lane @p priority. Throws rapid::Error on a past time
     * or on kSimNever.
     */
    void schedule(SimTime when, int32_t priority, Callback fn);

    /** Schedule a local event @p delta ns from now. */
    void
    scheduleIn(SimTime delta, int32_t priority, Callback fn)
    {
        schedule(now_ + delta, priority, std::move(fn));
    }

    /**
     * Send a cross-domain event to @p dst, to execute there at
     * absolute time @p when. Requires a channel declared via
     * DesEngine::connect and @p when >= now() + that channel's
     * lookahead and @p when != kSimNever; throws rapid::Error
     * otherwise. Delivery happens at the next window barrier, in
     * deterministic order.
     */
    void send(DomainId dst, SimTime when, int32_t priority,
              Callback fn);

    /** Events waiting in this domain's heap. */
    size_t pending() const { return heap_.size(); }

    /** Timestamp of the earliest pending event, or kSimNever. */
    SimTime earliest() const;

    /** Events this domain has executed. */
    uint64_t executed() const { return executed_; }

  private:
    friend class DesEngine;

    DesDomain(DomainId id, std::string name)
        : id_(id), name_(std::move(name))
    {
    }

    struct Entry
    {
        EventKey key;
        Callback fn;

        bool operator>(const Entry &o) const { return key > o.key; }
    };

    /** A message buffered for delivery at the window barrier. */
    struct Outgoing
    {
        DomainId dst = 0;
        SimTime when = 0;
        int32_t priority = 0;
        Callback fn;
    };

    void push(SimTime when, int32_t priority, Callback fn);

    /** Execute pending events with time < bound, in key order. */
    void processUntil(SimTime bound);

    DomainId id_;
    std::string name_;
    std::vector<Entry> heap_; ///< min-heap via std::push/pop_heap
    std::vector<Outgoing> outbox_;
    SimTime now_ = 0;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
    /// Lookahead to every other domain (kSimNever = no channel),
    /// dense by DomainId; frozen when run() starts.
    std::vector<SimTime> lookahead_out_;
    SimTime min_lookahead_out_ = kSimNever;
};

/**
 * The engine: owns the domains, computes safe windows, and runs each
 * window's due domains, forking unbounded windows over the shared
 * ThreadPool (rapid::parallelFor, so a nested use inside an outer
 * parallel region degrades to a serial loop exactly like every other
 * sweep primitive) and bounded windows inline.
 */
class DesEngine
{
  public:
    DesEngine() = default;
    DesEngine(const DesEngine &) = delete;
    DesEngine &operator=(const DesEngine &) = delete;

    /** Create a new domain; ids are dense in creation order. */
    DomainId addDomain(std::string name);

    /**
     * Declare that @p src may send events to @p dst with the given
     * strictly positive lookahead (ns). Throws rapid::Error on a
     * non-positive lookahead, an unknown domain, or a self-channel.
     * Calling again for the same (src, dst) tightens or relaxes the
     * lookahead to the new value. Must precede run().
     */
    void connect(DomainId src, DomainId dst, SimTime lookahead_ns);

    DesDomain &domain(DomainId id);

    /**
     * Run every event with time < @p until, in windows; by default
     * every domain runs to completion (all heaps drained). Events at
     * or after @p until stay pending and domain clocks stay at their
     * last executed event, so a later run() resumes in key order.
     * Without channels, a chain of bounded runs executes the events
     * of one run() in the same order. The first exception thrown by
     * an event callback aborts the run and is rethrown at the
     * barrier.
     */
    void run(SimTime until = kSimNever);

    /** Conservative windows executed so far (determinism metric). */
    uint64_t windows() const { return windows_; }

    /** Total events executed across all domains. */
    uint64_t totalExecuted() const;

  private:
    friend class DesDomain;

    /** Global safe bound of the next window (kSimNever = run dry). */
    SimTime safeBound() const;

    /** Freeze per-domain lookahead tables before a run. */
    void finalizeChannels();

    /** Move every outbox into its destination heap, serially, in
     *  (source domain, send order) — the deterministic tiebreak. */
    void deliverOutboxes();

    // unique_ptr keeps domain addresses stable across addDomain so
    // event callbacks may capture raw DesDomain pointers.
    std::vector<std::unique_ptr<DesDomain>> domains_;
    /// Scratch list of the window's due domains, kept across run()
    /// calls so a caller that runs one cycle at a time allocates
    /// nothing per call.
    std::vector<DesDomain *> due_;
    bool running_ = false;
    uint64_t windows_ = 0;
};

} // namespace rapid

#endif // RAPID_COMMON_DES_HH
