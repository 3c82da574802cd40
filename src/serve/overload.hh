/**
 * @file
 * Overload-control primitives for the serving stack (ROADMAP item 5,
 * closing slice): the calibrated admission tier, the per-queue
 * circuit breaker, and the tenant-priority brownout ladder. All three
 * are pure, allocation-light state machines driven exclusively by the
 * virtual clock, so the schedulers that host them stay bit-identical
 * at any --threads N.
 *
 * Calibrated admission tier: the SLA router normally admits against a
 * *proven worst-case* bound (backlog + one batching wait + a
 * max-batch execution), which over-sheds ~20% of feasible load at the
 * multi-tenant knee. Once a queue's QueueDelayEstimator window holds
 * at least min_samples observed waits, the router may instead admit
 * on observed p95 wait x safety_margin plus one batch execution — the
 * calibrated tier. A *trust fuse* guards the shortcut: the first
 * calibrated-admitted request that misses its SLA latches the queue
 * back to the proven bound for the rest of the run. One
 * CalibratedAdmission instance holds this policy for one serve queue
 * or one llm ladder group. Every request records which tier admitted
 * (or which reason shed) it, so the accounting
 * offered == admitted_calibrated + admitted_bound + shed_* closes.
 *
 * Circuit breaker (per (network, precision) queue):
 *
 *     Closed --(depth >= depth_open, or violations_open consecutive
 *               SLA violations)--> Open
 *     Open --(open_ns cooldown elapsed)--> HalfOpen
 *     HalfOpen: up to probe_count admissions pass as probes;
 *       any probe violating  --> Open (fresh cooldown)
 *       probe_count probes OK --> Closed
 *
 * An open breaker makes the router skip that ladder entry, so traffic
 * either degrades to another rung or sheds fast instead of piling
 * onto a queue that is already missing deadlines.
 *
 * Brownout ladder: under sustained overload (total queued depth at or
 * above depth_high for escalate_ns per rung) the controller escalates
 * one level at a time. The first (ladder size - 1) levels cap the
 * precision ladder from the expensive end — quality degrades, nobody
 * sheds, and tenant quality floors are always preserved. Only past
 * the last precision rung do the shedding levels engage, dropping
 * tenants from the lowest priority class upward; the highest class is
 * never brownout-shed. Recovery walks the same ladder down after
 * recover_ns of depth at or below depth_low per rung. Precision
 * always degrades before anyone sheds — never the reverse — by
 * construction of the level order.
 */

#ifndef RAPID_SERVE_OVERLOAD_HH
#define RAPID_SERVE_OVERLOAD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "precision/precision.hh"
#include "serve/queue_delay.hh"

namespace rapid {

/** Which admission tier accepted a request. */
enum class AdmitTier : uint8_t
{
    Bound = 0,      ///< proven worst-case bound (always safe)
    Calibrated = 1, ///< observed-p95 shortcut (fuse-guarded)
};

/** Why a request was shed (None while admitted). */
enum class ShedReason : uint8_t
{
    None = 0,      ///< not shed
    Admission = 1, ///< no ladder entry met the deadline
    Brownout = 2,  ///< dropped by a brownout shedding rung
};

/** Calibrated admission tier knobs (serve router and llm batcher). */
struct CalibratedAdmissionConfig
{
    bool enabled = false;
    /// History window of the per-queue wait estimator, in
    /// [1, QueueDelayEstimator::kMaxWindow].
    size_t window = 256;
    /// Observations required before the calibrated tier is trusted;
    /// below this the router admits on the proven bound.
    size_t min_samples = 32;
    /// Multiplier on the observed p95 before comparing against the
    /// deadline (>= 1: calibrated never admits looser than observed).
    double safety_margin = 2.0;
    /// Trip back to the proven bound once a calibrated admit misses
    /// its SLA (the trust fuse); latched for the rest of the run.
    bool fuse_enabled = true;
};

/** Throw InvalidConfig on non-runnable calibrated-admission knobs. */
void validateCalibratedAdmissionConfig(
    const CalibratedAdmissionConfig &cfg);

/** Calibrated-admission outcome of one queue or ladder group. */
struct AdmissionStats
{
    uint64_t admitted_calibrated = 0;
    uint64_t admitted_bound = 0;
    bool fuse_tripped = false;
    int64_t fuse_trip_ns = -1;
};

/**
 * The calibrated tier of one serve queue or one llm ladder group: the
 * observed-delay window, the trust fuse and the per-tier admit
 * counts. The host chooses what a delay is (serve: queue wait at
 * launch; llm: TPOT at sequence finish) and adds any fixed cost to
 * predictNs().
 */
class CalibratedAdmission
{
  public:
    explicit CalibratedAdmission(const CalibratedAdmissionConfig &cfg);

    /** The calibrated tier may admit: enabled, window warm, fuse
     *  intact. */
    bool
    trusted() const
    {
        return cfg_.enabled && !stats_.fuse_tripped &&
               window_.windowFill() >= cfg_.min_samples;
    }

    /** Observed p95 delay x safety margin. */
    int64_t
    predictNs() const
    {
        return int64_t(double(window_.p95Ns()) * cfg_.safety_margin);
    }

    /** Feed one observed delay (ignored while the tier is off). */
    void observe(int64_t ns);

    /** Count one admission on @p tier. */
    void noteAdmit(AdmitTier tier);

    /** SLA outcome of a request admitted on @p tier: the first
     *  calibrated miss trips the fuse at @p now. */
    void noteOutcome(AdmitTier tier, bool violated, int64_t now);

    const AdmissionStats &stats() const { return stats_; }

  private:
    CalibratedAdmissionConfig cfg_;
    QueueDelayEstimator window_;
    AdmissionStats stats_;
};

/** Circuit-breaker state (see file comment for the machine). */
enum class BreakerState : uint8_t
{
    Closed = 0,
    Open = 1,
    HalfOpen = 2,
};

/** Per-queue circuit-breaker knobs. */
struct BreakerConfig
{
    bool enabled = false;
    /// Queue depth at admission that opens the breaker.
    int64_t depth_open = 64;
    /// Consecutive SLA violations (batch completions) that open it.
    int64_t violations_open = 4;
    /// Cooldown before an open breaker admits half-open probes.
    int64_t open_ns = 50'000'000;
    /// Probes that must all complete within SLA to re-close.
    int64_t probe_count = 4;
};

/**
 * The breaker state machine, one instance per (network, precision)
 * queue. Driven entirely by virtual-clock instants passed in by the
 * caller; never reads a clock itself.
 */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(const BreakerConfig &cfg);

    /** May this queue admit at @p now? Advances Open -> HalfOpen when
     *  the cooldown has elapsed. */
    bool allowAdmit(int64_t now);

    /** Note an admission granted by allowAdmit; returns true when the
     *  request is a half-open probe (its outcome decides re-close). */
    bool onAdmit(int64_t now);

    /** Queue depth observed after an admission (depth trigger). */
    void onDepth(int64_t now, int64_t depth);

    /** A request of this queue completed; @p violation is its SLA
     *  outcome, @p probe the flag onAdmit returned for it. */
    void onOutcome(int64_t now, bool violation, bool probe);

    BreakerState state() const { return state_; }
    uint64_t opens() const { return opens_; }
    uint64_t closes() const { return closes_; }

  private:
    void transition(int64_t now, BreakerState next);

    BreakerConfig cfg_;
    BreakerState state_ = BreakerState::Closed;
    int64_t opened_at_ = 0;
    int64_t consecutive_violations_ = 0;
    int64_t probes_started_ = 0;
    int64_t probe_successes_ = 0;
    uint64_t opens_ = 0;
    uint64_t closes_ = 0;
};

/** Brownout ladder knobs. */
struct BrownoutConfig
{
    bool enabled = false;
    /// Total queued depth that counts as overload pressure.
    int64_t depth_high = 64;
    /// Depth at or below which the controller may recover.
    int64_t depth_low = 8;
    /// Sustained-high dwell per escalation level.
    int64_t escalate_ns = 20'000'000;
    /// Sustained-low dwell per recovery level.
    int64_t recover_ns = 50'000'000;
};

/** One brownout level change, for the ordering-invariant tests. */
struct BrownoutTransition
{
    int64_t time_ns = 0;
    int level = 0; ///< level after the transition
};

/**
 * Hysteresis controller for the brownout level. observe() feeds every
 * total-depth change; level() settles any dwell that elapsed since
 * and returns the current rung. Transitions are timestamped at the
 * exact virtual instant the dwell completed (not at the query), so
 * the trace is independent of event granularity.
 */
class BrownoutController
{
  public:
    /** @p max_level = precision rungs + shedding rungs. */
    BrownoutController(const BrownoutConfig &cfg, int max_level);

    /** Record a depth change at @p now (monotone non-decreasing). */
    void observe(int64_t now, int64_t depth);

    /** Current level at @p now (settles elapsed dwell first). */
    int level(int64_t now);

    const std::vector<BrownoutTransition> &transitions() const
    {
        return transitions_;
    }

  private:
    void advanceTo(int64_t now);

    BrownoutConfig cfg_;
    int max_level_ = 0;
    int level_ = 0;
    int64_t high_since_ = -1; ///< -1: not in the high band
    int64_t low_since_ = -1;  ///< -1: not in the low band
    std::vector<BrownoutTransition> transitions_;
};

/** All overload-control knobs of one serving scenario. Everything
 *  defaults off: a default OverloadConfig is bit-identical to the
 *  pre-overload scheduler. */
struct OverloadConfig
{
    CalibratedAdmissionConfig admission;
    BreakerConfig breaker;
    BrownoutConfig brownout;

    bool anyEnabled() const
    {
        return admission.enabled || breaker.enabled || brownout.enabled;
    }
};

/** Throw InvalidConfig on non-runnable overload knobs. */
void validateOverloadConfig(const OverloadConfig &cfg);

/** Per-queue overload-control outcome, reported in ServeResult. */
struct QueueOverloadStats : AdmissionStats
{
    size_t network = 0;
    Precision precision = Precision::INT4;
    uint64_t breaker_opens = 0;
    uint64_t breaker_closes = 0;
};

} // namespace rapid

#endif // RAPID_SERVE_OVERLOAD_HH
