/**
 * @file
 * Cycle-level model of the bi-directional ring interconnect
 * (Section III-E, Figure 9). Cores and the memory interface sit on a
 * clockwise and a counter-clockwise ring, each moving one
 * 128-byte flit per link per cycle. Messages are wormhole-routed in
 * the direction with the shortest lead distance and may be multicast:
 * a flit is copied to every destination it passes, so a multicast to
 * n cores costs one traversal instead of n unicasts.
 */

#ifndef RAPID_INTERCONNECT_RING_HH
#define RAPID_INTERCONNECT_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/fault.hh"

namespace rapid {

/** Ring geometry and link width. */
struct RingConfig
{
    unsigned num_nodes = 5;        ///< cores + memory interface node
    unsigned bytes_per_flit = 128; ///< link width per cycle
};

/**
 * Throw rapid::Error (InvalidConfig) on a degenerate ring: fewer than
 * two nodes or a zero-width link.
 */
void validateRingConfig(const RingConfig &cfg);

/** Direction of travel on the ring. */
enum class RingDir
{
    Clockwise,
    CounterClockwise,
};

/** A (possibly multicast) ring message. */
struct RingMessage
{
    unsigned src = 0;
    uint64_t bytes = 0;
    uint64_t tag = 0;

    uint64_t issue_cycle = 0;    ///< when handed to the ring
    uint64_t complete_cycle = 0; ///< when the last dst got the tail
    bool delivered = false;
    /// A flit of this message took an undetected hit in transit; the
    /// payload the destinations received is silently corrupt.
    bool corrupted = false;
};

/**
 * Cycle-stepped bi-directional ring. Callers enqueue messages and
 * step the clock; delivered messages report their completion cycle.
 *
 * The model simulates individual flits, so it is meant for protocol
 * validation and latency/bandwidth studies at modest transfer sizes;
 * the analytical performance model uses closed-form ring bandwidth.
 */
class RingNetwork
{
  public:
    explicit RingNetwork(const RingConfig &cfg);

    const RingConfig &config() const { return cfg_; }

    /**
     * Enqueue a message. Returns an id used to query completion.
     * Destination list must be non-empty and exclude the source.
     */
    size_t send(unsigned src, const std::vector<unsigned> &dsts,
                uint64_t bytes, uint64_t tag = 0);

    /** Make room for @p messages messages with @p destinations
     *  destinations in all, so sends within them do not allocate. */
    void reserve(size_t messages, size_t destinations);

    /** Advance one ring cycle. */
    void step();

    /**
     * Ids of the messages whose last tail flit landed during the
     * latest step(), ascending.
     */
    const std::vector<size_t> &completed() const { return completed_; }

    /** No flit in flight and no message waiting to inject: step()
     *  would only advance the clock. */
    bool idle() const;

    /**
     * Advance the clock of an idle ring by @p cycles, exactly as that
     * many step() calls would. Panics if the ring is not idle.
     */
    void advanceIdle(uint64_t cycles);

    /** Run until all queued messages are delivered (bounded). */
    void drain(uint64_t max_cycles = 100000000);

    uint64_t now() const { return cycle_; }

    const RingMessage &message(size_t id) const;

    /** Total flit-hops moved (traffic measure for multicast tests). */
    uint64_t flitHopsMoved() const { return flit_hops_; }

    /**
     * Attach a fault injector (RingFlit site); pass nullptr to detach.
     * Non-owning — the injector must outlive the network. Each flit
     * hop is one injection item; a detected fault squashes the hop and
     * retransmits the flit next cycle (link-level retry), while an
     * undetected fault marks the message corrupted.
     */
    void setFaultInjector(const FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** Fault campaign counters accumulated so far. */
    const FaultStats &faultStats() const { return fault_stats_; }

    /** Choose the direction minimizing the furthest hop distance. */
    RingDir chooseDirection(unsigned src,
                            const std::vector<unsigned> &dsts) const;

    /** Hop distance from @p src to @p dst travelling @p dir. */
    unsigned hopDistance(unsigned src, unsigned dst, RingDir dir) const;

  private:
    struct Flit
    {
        size_t msg_id;
        unsigned hops_left; ///< hops to the furthest destination
        bool tail;
    };

    /** A message's routing state; inflight_[id] is message id's. */
    struct InFlight
    {
        RingDir dir;
        uint64_t flits_total;
        uint64_t flits_sent = 0;
        unsigned max_hops = 0;
        size_t dst_begin = 0;   ///< its destinations in dsts_
        unsigned dst_count = 0;
        unsigned pending_tails = 0; ///< destinations the tail has yet to reach
    };

    /** A FIFO on one circular buffer that doubles when full, so it
     *  stops allocating once it has reached its peak length. */
    template <typename T>
    class Fifo
    {
      public:
        bool empty() const { return size_ == 0; }
        T &front() { return buf_[head_]; }
        void
        pop_front()
        {
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
        }
        void
        push_back(const T &v)
        {
            grow();
            buf_[(head_ + size_++) & (buf_.size() - 1)] = v;
        }
        void
        push_front(const T &v)
        {
            grow();
            head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
            buf_[head_] = v;
            ++size_;
        }

      private:
        void
        grow()
        {
            if (size_ < buf_.size())
                return;
            std::vector<T> next(std::max<size_t>(8, 2 * buf_.size()));
            for (size_t i = 0; i < size_; ++i)
                next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
            buf_.swap(next);
            head_ = 0;
        }

        std::vector<T> buf_; ///< power-of-two size
        size_t head_ = 0;
        size_t size_ = 0;
    };

    /** Per-direction state: injection queue + node output pipes. */
    struct DirState
    {
        Fifo<size_t> queue;       ///< message ids awaiting inject
        bool busy = false;
        size_t active = 0;        ///< the injecting message's id
        std::vector<Fifo<Flit>> pipes; ///< per-node output queue
        size_t flits = 0;         ///< flits in all pipes
    };

    void stepDirection(DirState &st, RingDir dir);

    RingConfig cfg_;
    uint64_t cycle_ = 0;
    uint64_t flit_hops_ = 0;
    const FaultInjector *injector_ = nullptr;
    uint64_t fault_items_ = 0; ///< monotone per-hop injection index
    FaultStats fault_stats_;
    std::vector<RingMessage> messages_;
    std::vector<InFlight> inflight_;
    std::vector<unsigned> dsts_; ///< every message's destinations
    DirState cw_;
    DirState ccw_;
    std::vector<size_t> completed_; ///< see completed()
    /// stepDirection's per-cycle scratch: the head flits it moves and
    /// the nodes they leave.
    std::vector<Flit> moved_;
    std::vector<unsigned> from_;
};

} // namespace rapid

#endif // RAPID_INTERCONNECT_RING_HH
