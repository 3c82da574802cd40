/**
 * @file
 * A minimal discrete-event simulation kernel in the style of gem5's
 * event queue: events are callbacks scheduled at integer ticks and
 * executed in (tick, insertion-order) order.
 */

#ifndef RAPID_SIM_EVENT_QUEUE_HH
#define RAPID_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "common/logging.hh"

namespace rapid {

using Tick = uint64_t;

/** Tick-ordered event queue. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p fn at absolute tick @p when (>= now). */
    void
    schedule(Tick when, Callback fn)
    {
        rapid_assert(when >= now_, "scheduling event in the past: ",
                     when, " < ", now_);
        heap_.push(Entry{when, seq_++, std::move(fn)});
    }

    /** Schedule @p fn @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /** Execute events until the queue empties or @p limit is hit. */
    void
    run(Tick limit = UINT64_MAX)
    {
        while (!heap_.empty() && heap_.top().when <= limit) {
            Entry e = heap_.top();
            heap_.pop();
            rapid_dassert(e.when >= now_,
                          "event queue time went backwards: ", e.when,
                          " < ", now_);
            now_ = e.when;
            e.fn();
        }
    }

    Tick now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    size_t pending() const { return heap_.size(); }

  private:
    struct Entry
    {
        Tick when;
        uint64_t seq;
        Callback fn;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
};

/**
 * Token-based synchronization board (Section II-A): programmable
 * units post and wait on counting tokens to enforce producer/consumer
 * ordering between decoupled data-sequencing and data-processing
 * programs.
 */
class TokenBoard
{
  public:
    explicit TokenBoard(EventQueue &eq) : eq_(eq) {}

    /** Post one token with id @p token, waking blocked waiters. */
    void
    post(unsigned token)
    {
        auto &st = state(token);
        if (!st.waiters.empty()) {
            auto fn = std::move(st.waiters.front());
            st.waiters.erase(st.waiters.begin());
            eq_.scheduleIn(0, std::move(fn));
        } else {
            ++st.count;
        }
    }

    /**
     * Run @p fn once a token with id @p token is available, consuming
     * it. Executes immediately (this tick) if one is banked.
     */
    void
    wait(unsigned token, EventQueue::Callback fn)
    {
        auto &st = state(token);
        if (st.count > 0) {
            --st.count;
            eq_.scheduleIn(0, std::move(fn));
        } else {
            st.waiters.push_back(std::move(fn));
        }
    }

    unsigned
    available(unsigned token) const
    {
        auto it = tokens_.find(token);
        return it == tokens_.end() ? 0 : it->second.count;
    }

  private:
    struct State
    {
        unsigned count = 0;
        std::vector<EventQueue::Callback> waiters;
    };

    State &
    state(unsigned token)
    {
        return tokens_[token];
    }

    EventQueue &eq_;
    std::map<unsigned, State> tokens_;
};

} // namespace rapid

#endif // RAPID_SIM_EVENT_QUEUE_HH
