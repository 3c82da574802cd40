#include "serve/queue_delay.hh"

#include <algorithm>

#include "common/error.hh"
#include "serve/metrics.hh"

namespace rapid {

QueueDelayEstimator::QueueDelayEstimator(size_t window)
{
    RAPID_CHECK_ARG(window > 0 && window <= kMaxWindow,
                    "QueueDelayEstimator: history window ", window,
                    " outside [1, ", kMaxWindow, "]");
    window_.assign(window, 0);
    sorted_.reserve(window);
}

void
QueueDelayEstimator::record(int64_t wait_ns)
{
    RAPID_CHECK_ARG(wait_ns >= 0,
                    "QueueDelayEstimator: negative wait ", wait_ns);
    const auto begin = sorted_.begin();
    const auto end = sorted_.end();
    if (sorted_.size() < window_.size()) {
        sorted_.insert(std::upper_bound(begin, end, wait_ns), wait_ns);
    } else {
        // Full window: one copy of the evicted value becomes the new
        // one. Only the elements ranked between the two move, one
        // step towards the vacated slot.
        const int64_t old = window_[next_];
        const auto out = std::lower_bound(begin, end, old);
        if (wait_ns >= old) {
            const auto in = std::lower_bound(out + 1, end, wait_ns);
            std::move(out + 1, in, out);
            *(in - 1) = wait_ns;
        } else {
            const auto in = std::upper_bound(begin, out, wait_ns);
            std::move_backward(in, out, out + 1);
            *in = wait_ns;
        }
    }
    window_[next_] = wait_ns;
    next_ = (next_ + 1) % window_.size();
}

int64_t
QueueDelayEstimator::p95Ns() const
{
    return latencyPercentile(sorted_, 0.95);
}

} // namespace rapid
