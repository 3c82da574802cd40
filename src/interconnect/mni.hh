/**
 * @file
 * Memory-Neighbor Interface model (Section III-E, Figure 8). Each
 * core's MNI has a programmable load unit (MNI-LU) and store unit
 * (MNI-SU):
 *
 *  - Consumers issue tagged Recv requests naming the producer and the
 *    number of participating consumers (steps 1-2 of Figure 8).
 *  - The producer's MNI-SU performs *request aggregation*: once every
 *    participating consumer's request has arrived, it dynamically
 *    builds the consumer list and posts one multicast data transfer
 *    (steps 3-7).
 *  - The MNI-LU tracks the local scratchpad address per tag in its
 *    load queue, so data returns may complete out of order; it stalls
 *    when its outstanding-request limit is reached.
 *
 * Only the pull path from the external memory interface is modelled:
 * a ring node whose MNI-SU is always ready (its Sends auto-post), so
 * shared data is fetched once and multicast to all requesting cores.
 * Core-to-core transfers, whose producers post Sends, are not.
 */

#ifndef RAPID_INTERCONNECT_MNI_HH
#define RAPID_INTERCONNECT_MNI_HH

#include <cstdint>
#include <vector>

#include "interconnect/ring.hh"

namespace rapid {

/** MNI sizing parameters. */
struct MniConfig
{
    unsigned max_outstanding_loads = 16; ///< per-core load queue depth
};

/** A completed tagged transfer as seen by one consumer. */
struct MniCompletion
{
    uint64_t tag = 0;
    unsigned consumer = 0;
    uint64_t local_addr = 0; ///< scratchpad address from the load queue
};

/**
 * Transaction-level MNI fabric: all cores' MNI units plus the memory
 * interface, exchanging control and data messages over the cycle-level
 * ring.
 */
class MniFabric
{
  public:
    /**
     * @param ring_cfg Ring geometry; node (num_nodes - 1) is the
     *                 external memory interface.
     * @param mni_cfg MNI sizing.
     */
    MniFabric(const RingConfig &ring_cfg, const MniConfig &mni_cfg);

    unsigned memoryNode() const { return ring_.config().num_nodes - 1; }

    /**
     * Consumer-side Recv: request @p bytes tagged @p tag from
     * @p producer, the memory node, to be written at @p local_addr.
     * @p n_consumers is the multicast group size agreed on at compile
     * time.
     *
     * @return false if the consumer's load queue is full (the MNI-LU
     *         program stalls and must retry after step()).
     */
    bool recv(unsigned consumer, unsigned producer, uint64_t tag,
              uint64_t bytes, uint64_t local_addr,
              unsigned n_consumers = 1);

    /** Advance one cycle (ring + MNI bookkeeping). */
    void step();

    /** Make room for @p transfers recv() calls, so a run within them
     *  allocates no more ring, tracking or completion storage. */
    void reserve(size_t transfers);

    /** Nothing in flight on the ring, so every posted transfer has
     *  completed. MNI state changes only when a message lands or a
     *  caller posts a recv(), so stepping an idle fabric only advances
     *  its clock. */
    bool idle() const { return ring_.idle(); }

    /** Advance an idle fabric's clock by @p cycles, as that many
     *  step() calls would (panics unless idle()). */
    void advanceIdle(uint64_t cycles) { ring_.advanceIdle(cycles); }

    uint64_t now() const { return ring_.now(); }
    const std::vector<MniCompletion> &completions() const
    {
        return completions_;
    }

    /** Outstanding loads for @p consumer (for stall tests). */
    unsigned outstandingLoads(unsigned consumer) const;

    const RingNetwork &ring() const { return ring_; }

  private:
    /** Aggregation entry at a producer's MNI-SU. */
    struct PendingSend
    {
        bool live = false; ///< the slot holds an open (producer, tag)
        unsigned producer = 0;
        uint64_t tag = 0;
        uint64_t bytes = 0;
        unsigned expected = 0;
        std::vector<unsigned> consumers;      ///< aggregated list
        std::vector<uint64_t> consumer_addrs; ///< matching local addrs
    };

    /** A control or data message sent on the ring. */
    struct Tracked
    {
        enum class Kind { RecvRequest, Data } kind;
        unsigned producer;
        uint64_t tag;
        unsigned consumer = 0;       ///< for RecvRequest
        uint64_t local_addr = 0;     ///< for RecvRequest
        unsigned n_consumers = 1;    ///< for RecvRequest
    };

    /** Post @p t on the ring as one message from @p src to @p dsts. */
    void track(const Tracked &t, unsigned src,
               const std::vector<unsigned> &dsts, uint64_t bytes);

    /** The open aggregation entry of (@p producer, @p tag), claimed
     *  fresh if there is none. */
    PendingSend &pending(unsigned producer, uint64_t tag);

    void maybeLaunchData(PendingSend &ps);
    void processDelivered();

    RingNetwork ring_;
    MniConfig cfg_;
    /// Aggregation entries; a closed one is reused, vectors and all.
    /// Few are open at once (at most the cores' outstanding loads), so
    /// a scan finds one.
    std::vector<PendingSend> pending_;
    std::vector<unsigned> request_dst_; ///< a Recv's one destination
    /// tracked_[i] is ring message i: every message goes through
    /// track(), which sends it and appends it in one step.
    std::vector<Tracked> tracked_;
    std::vector<MniCompletion> completions_;
    std::vector<unsigned> outstanding_; ///< per consumer
};

} // namespace rapid

#endif // RAPID_INTERCONNECT_MNI_HH
