#include "interconnect/ring.hh"

#include <algorithm>

#include "common/error.hh"

namespace rapid {

void
validateRingConfig(const RingConfig &cfg)
{
    RAPID_CHECK_CONFIG(cfg.num_nodes >= 2,
                       "ring needs >= 2 nodes, got ", cfg.num_nodes);
    RAPID_CHECK_CONFIG(cfg.bytes_per_flit >= 1,
                       "ring link width must be >= 1 byte per flit");
}

RingNetwork::RingNetwork(const RingConfig &cfg) : cfg_(cfg)
{
    validateRingConfig(cfg);
    cw_.pipes.resize(cfg.num_nodes);
    ccw_.pipes.resize(cfg.num_nodes);
}

unsigned
RingNetwork::hopDistance(unsigned src, unsigned dst, RingDir dir) const
{
    const unsigned n = cfg_.num_nodes;
    rapid_assert(src < n && dst < n, "ring node out of range");
    if (dir == RingDir::Clockwise)
        return (dst + n - src) % n;
    return (src + n - dst) % n;
}

RingDir
RingNetwork::chooseDirection(unsigned src,
                             const std::vector<unsigned> &dsts) const
{
    unsigned max_cw = 0, max_ccw = 0;
    for (unsigned d : dsts) {
        max_cw = std::max(max_cw,
                          hopDistance(src, d, RingDir::Clockwise));
        max_ccw = std::max(
            max_ccw, hopDistance(src, d, RingDir::CounterClockwise));
    }
    return max_cw <= max_ccw ? RingDir::Clockwise
                             : RingDir::CounterClockwise;
}

size_t
RingNetwork::send(unsigned src, const std::vector<unsigned> &dsts,
                  uint64_t bytes, uint64_t tag)
{
    rapid_assert(!dsts.empty(), "message without destinations");
    rapid_assert(src < cfg_.num_nodes, "bad source node");
    for (unsigned d : dsts)
        rapid_assert(d < cfg_.num_nodes && d != src,
                     "bad destination node ", d);

    RingMessage msg;
    msg.src = src;
    msg.bytes = bytes;
    msg.tag = tag;
    msg.issue_cycle = cycle_;
    const size_t id = messages_.size();
    messages_.push_back(msg);

    InFlight fl;
    fl.dir = chooseDirection(src, dsts);
    fl.flits_total =
        std::max<uint64_t>(1, (bytes + cfg_.bytes_per_flit - 1) /
                                  cfg_.bytes_per_flit);
    for (unsigned d : dsts)
        fl.max_hops =
            std::max(fl.max_hops, hopDistance(src, d, fl.dir));
    rapid_dassert(fl.max_hops >= 1 && fl.max_hops < cfg_.num_nodes,
                  "multicast span ", fl.max_hops,
                  " outside the ring of ", cfg_.num_nodes, " nodes");
    fl.dst_begin = dsts_.size();
    fl.dst_count = unsigned(dsts.size());
    fl.pending_tails = fl.dst_count;
    dsts_.insert(dsts_.end(), dsts.begin(), dsts.end());
    inflight_.push_back(fl);
    if (fl.dir == RingDir::Clockwise)
        cw_.queue.push_back(id);
    else
        ccw_.queue.push_back(id);
    return id;
}

void
RingNetwork::reserve(size_t messages, size_t destinations)
{
    messages_.reserve(messages);
    inflight_.reserve(messages);
    dsts_.reserve(destinations);
}

void
RingNetwork::stepDirection(DirState &st, RingDir dir)
{
    if (st.flits == 0 && !st.busy && st.queue.empty())
        return;
    const unsigned n = cfg_.num_nodes;

    // Phase 1: advance the head flit of every node one hop, based on
    // the pre-step queues so a flit moves at most once per cycle.
    moved_.clear();
    from_.clear();
    for (unsigned node = 0; node < n; ++node) {
        if (st.pipes[node].empty())
            continue;
        moved_.push_back(st.pipes[node].front());
        from_.push_back(node);
        st.pipes[node].pop_front();
    }
    st.flits -= moved_.size();
    for (size_t i = 0; i < moved_.size(); ++i) {
        Flit f = moved_[i];
        const unsigned node = from_[i];
        if (injector_ && injector_->active(FaultSite::RingFlit)) {
            const FaultOutcome hit = injector_->inject(
                FaultSite::RingFlit, fault_items_++, fault_stats_);
            if (hit == FaultOutcome::Detected) {
                // Link-level retry: the hop is squashed and the flit
                // retransmits from the same node next cycle.
                st.pipes[node].push_front(f);
                ++st.flits;
                continue;
            }
            if (hit == FaultOutcome::Silent) {
                ++fault_stats_.sdc;
                messages_[f.msg_id].corrupted = true;
            }
        }
        const unsigned next = (dir == RingDir::Clockwise)
                                  ? (node + 1) % n
                                  : (node + n - 1) % n;
        ++flit_hops_;
        --f.hops_left;
        InFlight &fl = inflight_[f.msg_id];
        // Multicast delivery: the flit is copied to every destination
        // it passes and terminates at the furthest one.
        const auto first = dsts_.begin() + ptrdiff_t(fl.dst_begin);
        const bool is_dst =
            std::find(first, first + fl.dst_count, next) !=
            first + fl.dst_count;
        if (is_dst && f.tail && --fl.pending_tails == 0) {
            RingMessage &m = messages_[f.msg_id];
            m.delivered = true;
            m.complete_cycle = cycle_ + 1;
            completed_.push_back(f.msg_id);
        }
        if (f.hops_left > 0) {
            st.pipes[next].push_back(f);
            ++st.flits;
        }
    }

    // Phase 2: inject one flit of the active message at its source.
    if (!st.busy && !st.queue.empty()) {
        st.active = st.queue.front();
        st.queue.pop_front();
        st.busy = true;
    }
    if (st.busy) {
        InFlight &fl = inflight_[st.active];
        Flit f;
        f.msg_id = st.active;
        f.hops_left = fl.max_hops;
        f.tail = (fl.flits_sent + 1 == fl.flits_total);
        st.pipes[messages_[st.active].src].push_back(f);
        ++st.flits;
        if (++fl.flits_sent == fl.flits_total)
            st.busy = false;
    }
}

void
RingNetwork::step()
{
    completed_.clear();
    stepDirection(cw_, RingDir::Clockwise);
    stepDirection(ccw_, RingDir::CounterClockwise);
    std::sort(completed_.begin(), completed_.end());
    ++cycle_;
}

bool
RingNetwork::idle() const
{
    for (const DirState *st : {&cw_, &ccw_})
        if (st->flits > 0 || st->busy || !st->queue.empty())
            return false;
    return true;
}

void
RingNetwork::advanceIdle(uint64_t cycles)
{
    rapid_assert(idle(), "advancing the clock of a busy ring");
    if (cycles > 0)
        completed_.clear();
    cycle_ += cycles;
}

void
RingNetwork::drain(uint64_t max_cycles)
{
    uint64_t steps = 0;
    while (std::any_of(messages_.begin(), messages_.end(),
                       [](const RingMessage &m) { return !m.delivered; })) {
        step();
        rapid_assert(++steps <= max_cycles,
                     "ring failed to drain in ", max_cycles, " cycles");
    }
}

const RingMessage &
RingNetwork::message(size_t id) const
{
    rapid_assert(id < messages_.size(), "bad message id ", id);
    return messages_[id];
}

} // namespace rapid
