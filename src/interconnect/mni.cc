#include "interconnect/mni.hh"

#include <algorithm>

namespace rapid {

namespace {

/// Size of a Recv control message on the ring, in bytes.
constexpr uint64_t kRequestBytes = 32;

} // namespace

MniFabric::MniFabric(const RingConfig &ring_cfg, const MniConfig &mni_cfg)
    : ring_(ring_cfg), cfg_(mni_cfg),
      outstanding_(ring_cfg.num_nodes, 0)
{
}

unsigned
MniFabric::outstandingLoads(unsigned consumer) const
{
    rapid_assert(consumer < outstanding_.size(), "bad consumer node");
    return outstanding_[consumer];
}

bool
MniFabric::recv(unsigned consumer, unsigned producer, uint64_t tag,
                uint64_t bytes, uint64_t local_addr,
                unsigned n_consumers)
{
    rapid_assert(producer == memoryNode() && consumer != producer,
                 "MNI transfers pull from the memory node");
    if (outstanding_[consumer] >= cfg_.max_outstanding_loads)
        return false; // MNI-LU program stalls (Section III-E)
    ++outstanding_[consumer];

    // The Recv control message travels to the producer on the ring.
    Tracked t;
    t.kind = Tracked::Kind::RecvRequest;
    t.producer = producer;
    t.tag = tag;
    t.consumer = consumer;
    t.local_addr = local_addr;
    t.n_consumers = n_consumers;
    request_dst_.assign(1, producer);
    track(t, consumer, request_dst_, kRequestBytes);

    PendingSend &ps = pending(producer, tag);
    ps.bytes = std::max(ps.bytes, bytes);
    ps.expected = n_consumers;
    return true;
}

void
MniFabric::reserve(size_t transfers)
{
    // A request per transfer, and at most one data message per
    // transfer; each transfer is one request and one data destination.
    ring_.reserve(2 * transfers, 2 * transfers);
    tracked_.reserve(2 * transfers);
    completions_.reserve(transfers);
}

MniFabric::PendingSend &
MniFabric::pending(unsigned producer, uint64_t tag)
{
    PendingSend *free_slot = nullptr;
    for (PendingSend &ps : pending_) {
        if (ps.live && ps.producer == producer && ps.tag == tag)
            return ps;
        if (!ps.live && !free_slot)
            free_slot = &ps;
    }
    if (!free_slot)
        free_slot = &pending_.emplace_back();
    PendingSend &ps = *free_slot;
    ps.live = true;
    ps.producer = producer;
    ps.tag = tag;
    ps.bytes = 0;
    ps.expected = 0;
    ps.consumers.clear();
    ps.consumer_addrs.clear();
    return ps;
}

void
MniFabric::maybeLaunchData(PendingSend &ps)
{
    // Memory is always ready: its Send auto-posts, so the data leaves
    // once every consumer's request has arrived.
    if (ps.consumers.size() < ps.expected)
        return;

    // Request aggregation complete: post one multicast data transfer
    // with the dynamically built consumer list (Figure 8, steps 4-7).
    Tracked t;
    t.kind = Tracked::Kind::Data;
    t.producer = ps.producer;
    t.tag = ps.tag;
    track(t, ps.producer, ps.consumers, ps.bytes);
}

void
MniFabric::track(const Tracked &t, unsigned src,
                 const std::vector<unsigned> &dsts, uint64_t bytes)
{
    const size_t id = ring_.send(src, dsts, bytes, t.tag);
    rapid_dassert(id == tracked_.size(), "ring message ", id,
                  " sent outside track()");
    tracked_.push_back(t);
}

void
MniFabric::processDelivered()
{
    // Only the messages that landed this cycle, in ring-id order.
    // Handlers append to tracked_ (data launches), so copy each entry.
    for (size_t id : ring_.completed()) {
        const Tracked t = tracked_[id];
        if (t.kind == Tracked::Kind::RecvRequest) {
            // Request arrived at the producer's MNI-SU: aggregate.
            PendingSend &ps = pending(t.producer, t.tag);
            ps.consumers.push_back(t.consumer);
            ps.consumer_addrs.push_back(t.local_addr);
            maybeLaunchData(ps);
        } else {
            // Data landed at every consumer: retire the load-queue
            // entries, writing each consumer's tracked local address.
            PendingSend &ps = pending(t.producer, t.tag);
            for (size_t i = 0; i < ps.consumers.size(); ++i) {
                MniCompletion c;
                c.tag = t.tag;
                c.consumer = ps.consumers[i];
                c.local_addr = ps.consumer_addrs[i];
                completions_.push_back(c);
                rapid_assert(outstanding_[c.consumer] > 0,
                             "load queue underflow");
                --outstanding_[c.consumer];
            }
            ps.live = false;
        }
    }
}

void
MniFabric::step()
{
    ring_.step();
    processDelivered();
}

} // namespace rapid
