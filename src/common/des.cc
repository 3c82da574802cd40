#include "common/des.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace rapid {

namespace {

/** a + b without signed overflow; saturates at kSimNever. */
SimTime
satAdd(SimTime a, SimTime b)
{
    if (a == kSimNever || b == kSimNever || a > kSimNever - b)
        return kSimNever;
    return a + b;
}

} // namespace

// ---------------------------------------------------------------------
// DesDomain
// ---------------------------------------------------------------------

void
DesDomain::push(SimTime when, int32_t priority, Callback fn)
{
    heap_.push_back(Entry{EventKey{when, priority, seq_++},
                          std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void
DesDomain::schedule(SimTime when, int32_t priority, Callback fn)
{
    RAPID_CHECK_ARG(when >= now_, "domain '", name_,
                    "': scheduling event in the past: ", when, " < ",
                    now_);
    RAPID_CHECK_ARG(when != kSimNever, "domain '", name_,
                    "': kSimNever is the no-event sentinel, not an "
                    "event time");
    push(when, priority, std::move(fn));
}

void
DesDomain::send(DomainId dst, SimTime when, int32_t priority,
                Callback fn)
{
    RAPID_CHECK_ARG(dst < lookahead_out_.size() &&
                        lookahead_out_[dst] != kSimNever,
                    "domain '", name_, "': no channel to domain ", dst,
                    " (declare it with DesEngine::connect before "
                    "run())");
    const SimTime lookahead = lookahead_out_[dst];
    RAPID_CHECK_ARG(when >= satAdd(now_, lookahead),
                    "domain '", name_, "': lookahead violation "
                    "sending to domain ", dst, ": timestamp ", when,
                    " < now ", now_, " + lookahead ", lookahead);
    RAPID_CHECK_ARG(when != kSimNever, "domain '", name_,
                    "': kSimNever is the no-event sentinel, not an "
                    "event time");
    outbox_.push_back(Outgoing{dst, when, priority, std::move(fn)});
}

SimTime
DesDomain::earliest() const
{
    return heap_.empty() ? kSimNever : heap_.front().key.time_ns;
}

void
DesDomain::processUntil(SimTime bound)
{
    while (!heap_.empty() && heap_.front().key.time_ns < bound) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        rapid_dassert(e.key.time_ns >= now_,
                      "domain time went backwards: ", e.key.time_ns,
                      " < ", now_);
        now_ = e.key.time_ns;
        ++executed_;
        e.fn();
    }
}

// ---------------------------------------------------------------------
// DesEngine
// ---------------------------------------------------------------------

DomainId
DesEngine::addDomain(std::string name)
{
    RAPID_CHECK_ARG(!running_, "cannot add domain '", name,
                    "' while the engine is running");
    const DomainId id = domains_.size();
    domains_.emplace_back(new DesDomain(id, std::move(name)));
    return id;
}

void
DesEngine::connect(DomainId src, DomainId dst, SimTime lookahead_ns)
{
    RAPID_CHECK_ARG(!running_, "cannot connect domains mid-run");
    RAPID_CHECK_ARG(src < domains_.size(), "unknown source domain ",
                    src);
    RAPID_CHECK_ARG(dst < domains_.size(), "unknown destination "
                    "domain ", dst);
    RAPID_CHECK_ARG(src != dst, "self-channels are implicit: use "
                    "DesDomain::schedule for local events");
    RAPID_CHECK_ARG(lookahead_ns > 0 && lookahead_ns != kSimNever,
                    "channel ", domains_[src]->name(), " -> ",
                    domains_[dst]->name(), " needs a strictly "
                    "positive finite lookahead, got ", lookahead_ns);
    DesDomain &d = *domains_[src];
    if (d.lookahead_out_.size() < domains_.size())
        d.lookahead_out_.resize(domains_.size(), kSimNever);
    d.lookahead_out_[dst] = lookahead_ns;
}

DesDomain &
DesEngine::domain(DomainId id)
{
    RAPID_CHECK_ARG(id < domains_.size(), "unknown domain ", id);
    return *domains_[id];
}

void
DesEngine::finalizeChannels()
{
    for (auto &d : domains_) {
        if (d->lookahead_out_.size() < domains_.size())
            d->lookahead_out_.resize(domains_.size(), kSimNever);
        d->min_lookahead_out_ = kSimNever;
        for (SimTime l : d->lookahead_out_)
            d->min_lookahead_out_ = std::min(d->min_lookahead_out_, l);
    }
}

SimTime
DesEngine::safeBound() const
{
    // A domain with pending work constrains everyone else by the
    // earliest instant at which one of its messages could land:
    // earliest event + its tightest outgoing lookahead. Domains with
    // no outgoing channels never constrain anyone.
    SimTime bound = kSimNever;
    for (const auto &d : domains_) {
        const SimTime t = d->earliest();
        if (t == kSimNever)
            continue;
        bound = std::min(bound, satAdd(t, d->min_lookahead_out_));
    }
    return bound;
}

uint64_t
DesEngine::totalExecuted() const
{
    uint64_t total = 0;
    for (const auto &d : domains_)
        total += d->executed_;
    return total;
}

void
DesEngine::deliverOutboxes()
{
    // Serial, in (source domain, send order): the destination's
    // sequence counter advances in an order that is a pure function
    // of the workload, never of which thread ran which domain.
    for (auto &src : domains_) {
        for (auto &msg : src->outbox_) {
            DesDomain &dst = *domains_[msg.dst];
            rapid_dassert(msg.when >= dst.now_,
                          "message would arrive in domain '",
                          dst.name_, "' past: ", msg.when, " < ",
                          dst.now_);
            dst.push(msg.when, msg.priority, std::move(msg.fn));
        }
        src->outbox_.clear();
    }
}

void
DesEngine::run(SimTime until)
{
    RAPID_CHECK_ARG(!running_, "DesEngine::run is not reentrant");
    finalizeChannels();
    // Exception-safe: a throwing event callback propagates out of the
    // window barrier and must still leave the engine restartable.
    struct RunningGuard
    {
        bool &flag;
        ~RunningGuard() { flag = false; }
    } guard{running_};
    running_ = true;
    while (true) {
        const SimTime bound = std::min(safeBound(), until);
        // Only domains with an event below the bound have work in
        // this window; the rest would return from processUntil at
        // once. schedule()/send() reject kSimNever, so an unbounded
        // window leaves no pending event behind.
        due_.clear();
        for (const auto &d : domains_)
            if (d->earliest() < bound)
                due_.push_back(d.get());
        if (due_.empty())
            break;
        ++windows_;
        if (bound == kSimNever && due_.size() > 1) {
            // An unbounded window runs the rest of the simulation:
            // enough work per domain to pay for the fork.
            parallelFor(due_.size(), [&](size_t i) {
                due_[i]->processUntil(bound);
            });
        } else {
            // A lookahead-bounded window holds a few events per due
            // domain, far less than the pool round-trip costs.
            for (DesDomain *d : due_)
                d->processUntil(bound);
        }
        deliverOutboxes();
    }
}

} // namespace rapid
