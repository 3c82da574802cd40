/**
 * @file
 * History-window queue-delay estimator (ROADMAP item 5, first slice).
 *
 * The SLA router admits against a *proven worst-case* bound —
 * backlog plus a full batching wait plus a max-batch execution — which
 * is safe but pessimistic: under steady load the observed queue wait
 * sits far below it, so the router sheds requests that would have met
 * their deadline comfortably. This estimator records the waits
 * requests actually experienced, per (network, precision) queue, over
 * a sliding history window, and exposes the window mean and p95 next
 * to the hard bound.
 *
 * Two consumers: the metrics layer replays completed waits through it
 * for the observational QueueWaitMetrics slice, and the calibrated
 * admission tier (serve/overload.hh) feeds it online at launch time
 * and routes against windowFill()/p95Ns() when the window is warm —
 * the closing ROADMAP item 5 slice.
 */

#ifndef RAPID_SERVE_QUEUE_DELAY_HH
#define RAPID_SERVE_QUEUE_DELAY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapid {

/** Sliding-window mean/p95 over observed queue waits. */
class QueueDelayEstimator
{
  public:
    /** @p window is the history length in observations (> 0). */
    explicit QueueDelayEstimator(size_t window = 256);

    /** Record one observed wait (>= 0 ns); evicts the oldest
     *  observation once the window is full. */
    void record(int64_t wait_ns);

    /** Total observations ever recorded. */
    uint64_t count() const { return count_; }

    /** Observations currently in the window. */
    size_t windowFill() const;

    /** Mean wait over the window (0 when empty). */
    int64_t meanNs() const;

    /** Nearest-rank p95 wait over the window (0 when empty). */
    int64_t p95Ns() const;

  private:
    std::vector<int64_t> window_; ///< ring buffer
    size_t next_ = 0;             ///< next slot to overwrite
    bool full_ = false;
    uint64_t count_ = 0;
};

} // namespace rapid

#endif // RAPID_SERVE_QUEUE_DELAY_HH
