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
 * a sliding history window, and exposes the window p95 next to the
 * hard bound.
 *
 * The calibrated admission tier (serve/overload.hh) feeds it online
 * at launch time and routes against windowFill()/p95Ns() when the
 * window is warm.
 *
 * The router asks for the p95 on every routing decision, so a sorted
 * mirror of the ring is kept beside it: record() moves the evicted
 * value's slot to the new value's rank (O(window) element moves, no
 * allocation) and p95Ns() reads one element.
 */

#ifndef RAPID_SERVE_QUEUE_DELAY_HH
#define RAPID_SERVE_QUEUE_DELAY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapid {

/** Sliding-window p95 over observed queue waits. */
class QueueDelayEstimator
{
  public:
    /** Largest accepted history window (observations). */
    static constexpr size_t kMaxWindow = size_t(1) << 20;

    /** @p window is the history length in observations, in
     *  [1, kMaxWindow]. */
    explicit QueueDelayEstimator(size_t window = 256);

    /** Record one observed wait (>= 0 ns); evicts the oldest
     *  observation once the window is full. */
    void record(int64_t wait_ns);

    /** Observations currently in the window. */
    size_t windowFill() const { return sorted_.size(); }

    /** Nearest-rank p95 wait over the window (0 when empty). */
    int64_t p95Ns() const;

  private:
    std::vector<int64_t> window_; ///< ring buffer
    std::vector<int64_t> sorted_; ///< the filled slots, ascending
    size_t next_ = 0;             ///< next slot to overwrite
};

} // namespace rapid

#endif // RAPID_SERVE_QUEUE_DELAY_HH
