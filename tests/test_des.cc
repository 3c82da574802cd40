/**
 * @file
 * Pins the deterministic conservative DES engine (src/common/des.hh):
 * the event-heap total order against a reference stable sort, the
 * lookahead/dependency contract across domains, the rapid::Error
 * throws at every misuse site, and — the load-bearing invariant — a
 * seeded schedule-fuzzing suite replayed at --threads 1/2/4/8 that
 * must produce byte-identical metric dumps at every thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/des.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/parallel.hh"
#include "common/random.hh"

using namespace rapid;

namespace {

class DesTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setDefaultThreads(0); }
};

TEST_F(DesTest, EventKeyTotalOrder)
{
    const EventKey a{10, 0, 0};
    const EventKey b{10, 0, 1};
    const EventKey c{10, 1, 0};
    const EventKey d{11, -5, 0};
    EXPECT_LT(a, b); // same instant, same lane: sequence id breaks
    EXPECT_LT(b, c); // lower lane first regardless of sequence
    EXPECT_LT(c, d); // time dominates everything
    EXPECT_GT(d, a);
    EXPECT_FALSE(a < a);
}

// The heap executes a statically scheduled random event set in
// exactly the order of a reference stable sort on (time, priority):
// sequence ids are assigned in scheduling order, so stability of the
// reference sort models them.
TEST_F(DesTest, HeapOrderMatchesReferenceStableSort)
{
    for (uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(mixSeed(0xde5u, seed));
        DesEngine engine;
        DesDomain &dom = engine.domain(engine.addDomain("order"));

        const size_t n = 200;
        std::vector<std::pair<SimTime, int32_t>> keys;
        keys.reserve(n);
        std::vector<size_t> executed;
        executed.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            const SimTime t = rng.uniformInt(0, 50);
            const int32_t pri = int32_t(rng.uniformInt(-2, 2));
            keys.emplace_back(t, pri);
            dom.schedule(t, pri, [&executed, i] {
                executed.push_back(i);
            });
        }
        engine.run();

        std::vector<size_t> expect(n);
        for (size_t i = 0; i < n; ++i)
            expect[i] = i;
        std::stable_sort(expect.begin(), expect.end(),
                         [&keys](size_t a, size_t b) {
                             return keys[a].first != keys[b].first
                                        ? keys[a].first < keys[b].first
                                        : keys[a].second <
                                              keys[b].second;
                         });
        ASSERT_EQ(executed, expect) << "seed " << seed;
        EXPECT_EQ(dom.executed(), n);
        EXPECT_EQ(dom.pending(), 0u);
    }
}

// Events scheduled from inside callbacks keep the same total order:
// the domain clock is non-decreasing and same-instant events run in
// (priority, scheduling order).
TEST_F(DesTest, DynamicSchedulingPreservesKeyOrder)
{
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("dyn"));
    std::vector<std::pair<SimTime, int32_t>> trace;

    const auto record = [&trace, &dom](int32_t pri) {
        trace.emplace_back(dom.now(), pri);
    };
    dom.schedule(5, 0, [&] {
        record(0);
        dom.scheduleIn(0, 1, [&] { record(1); }); // same instant
        dom.scheduleIn(5, -1, [&] { record(-1); });
        dom.schedule(5, 2, [&] { record(2); });
    });
    dom.schedule(5, 3, [&] { record(3); });
    engine.run();

    const std::vector<std::pair<SimTime, int32_t>> expect = {
        {5, 0}, {5, 1}, {5, 2}, {5, 3}, {10, -1}};
    EXPECT_EQ(trace, expect);
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_LE(trace[i - 1].first, trace[i].first);
}

// run(until) executes exactly the events before the bound: later ones
// stay pending, the clock stays at the last executed event, and a
// later run() resumes in key order.
TEST_F(DesTest, RunUntilLeavesLaterEventsPending)
{
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("until"));
    std::vector<std::pair<SimTime, int32_t>> trace;
    for (const auto &[t, pri] : std::vector<std::pair<SimTime, int32_t>>{
             {10, 1}, {5, 0}, {50, 0}, {10, 0}})
        dom.schedule(t, pri, [&trace, &dom, pri = pri] {
            trace.emplace_back(dom.now(), pri);
        });
    engine.run(10);
    EXPECT_EQ(trace, (std::vector<std::pair<SimTime, int32_t>>{{5, 0}}));
    EXPECT_EQ(dom.pending(), 3u);
    EXPECT_EQ(dom.now(), 5);
    engine.run(10); // nothing below the bound: a no-op
    EXPECT_EQ(dom.pending(), 3u);
    engine.run();
    const std::vector<std::pair<SimTime, int32_t>> expect = {
        {5, 0}, {10, 0}, {10, 1}, {50, 0}};
    EXPECT_EQ(trace, expect);
    EXPECT_EQ(dom.pending(), 0u);
}

/** A self-scheduling workload on one domain: every event logs
 *  (now, tag) and, until its budget is spent, schedules a follower at
 *  a seeded delay (zero included) on a seeded lane. */
struct ChainWorkload
{
    DesDomain &dom;
    Rng rng;
    int budget = 300;
    std::vector<std::pair<SimTime, int64_t>> trace;

    void
    fire(int64_t tag)
    {
        trace.emplace_back(dom.now(), tag);
        if (budget-- <= 0)
            return;
        const int64_t child = rng.uniformInt(0, 999);
        dom.scheduleIn(rng.uniformInt(0, 6),
                       int32_t(rng.uniformInt(-1, 1)),
                       [this, child] { fire(child); });
    }
};

// A chain of bounded runs over independent domains executes the same
// events in the same order as one run(), whatever the step.
TEST_F(DesTest, ChainedBoundedRunsMatchOneRun)
{
    using Trace = std::vector<std::pair<SimTime, int64_t>>;
    const auto traceOf = [](SimTime step) {
        DesEngine engine;
        std::vector<std::unique_ptr<ChainWorkload>> loads;
        for (uint64_t d = 0; d < 2; ++d) {
            DesDomain &dom = engine.domain(
                engine.addDomain("chain" + std::to_string(d)));
            loads.push_back(std::make_unique<ChainWorkload>(
                ChainWorkload{dom, Rng(mixSeed(0x0b5u, d)), 300, {}}));
            ChainWorkload *w = loads.back().get();
            for (int64_t i = 0; i < 20; ++i)
                dom.schedule(w->rng.uniformInt(0, 30),
                             int32_t(w->rng.uniformInt(-1, 1)),
                             [w, i] { w->fire(i); });
        }
        if (step == kSimNever) {
            engine.run();
        } else {
            for (SimTime until = step; engine.domain(0).pending() +
                                           engine.domain(1).pending() >
                                       0;
                 until += step)
                engine.run(until);
        }
        std::vector<Trace> traces;
        for (const auto &w : loads)
            traces.push_back(w->trace);
        return traces;
    };
    const std::vector<Trace> whole = traceOf(kSimNever);
    ASSERT_EQ(whole[0].size(), 320u); // 20 seeds + 300 followers
    for (SimTime step : {1, 2, 7, 50})
        EXPECT_EQ(traceOf(step), whole) << "step " << step;
}

// Cross-domain sends execute exactly at their declared timestamp —
// never before the dependency's time — and the receiver's clock stays
// monotone even when messages from several senders interleave with
// its local events.
TEST_F(DesTest, NoEventRunsBeforeItsDependencyTimestamp)
{
    DesEngine engine;
    const DomainId a = engine.addDomain("a");
    const DomainId b = engine.addDomain("b");
    const DomainId c = engine.addDomain("c");
    engine.connect(a, c, 7);
    engine.connect(b, c, 3);
    DesDomain &da = engine.domain(a);
    DesDomain &db = engine.domain(b);
    DesDomain &dc = engine.domain(c);

    std::vector<SimTime> c_times;
    const auto receive = [&c_times, &dc](SimTime expect_at) {
        EXPECT_EQ(dc.now(), expect_at);
        c_times.push_back(dc.now());
    };

    for (SimTime t = 0; t < 40; t += 10) {
        da.schedule(t, 0, [&da, &receive] {
            const SimTime at = da.now() + 7; // exactly the lookahead
            da.send(2, at, 0, [&receive, at] { receive(at); });
        });
        db.schedule(t + 1, 0, [&db, &receive] {
            const SimTime at = db.now() + 5; // lookahead 3, slack 2
            db.send(2, at, 0, [&receive, at] { receive(at); });
        });
        dc.schedule(t + 2, 0,
                    [&c_times, &dc] { c_times.push_back(dc.now()); });
    }
    engine.run();

    ASSERT_EQ(c_times.size(), 12u);
    for (size_t i = 1; i < c_times.size(); ++i)
        EXPECT_LE(c_times[i - 1], c_times[i])
            << "receiver clock went backwards at event " << i;
    // Lookahead forces multiple conservative windows here.
    EXPECT_GT(engine.windows(), 1u);
    EXPECT_EQ(engine.totalExecuted(), 4u + 4u + 12u);
}

TEST_F(DesTest, LookaheadViolationThrows)
{
    DesEngine engine;
    const DomainId a = engine.addDomain("src");
    const DomainId b = engine.addDomain("dst");
    engine.connect(a, b, 10);
    DesDomain &da = engine.domain(a);

    // Timestamp below now + lookahead: rejected at the send site.
    da.schedule(5, 0, [&da] {
        da.send(1, 14, 0, [] {}); // needs >= 5 + 10
    });
    EXPECT_THROW(engine.run(), Error);

    // The engine stays restartable after the throw.
    da.schedule(100, 0, [&da] { da.send(1, 110, 0, [] {}); });
    EXPECT_NO_THROW(engine.run());
}

TEST_F(DesTest, SendWithoutChannelThrows)
{
    DesEngine engine;
    const DomainId a = engine.addDomain("a");
    engine.addDomain("b");
    DesDomain &da = engine.domain(a);
    da.schedule(0, 0, [&da] { da.send(1, 50, 0, [] {}); });
    EXPECT_THROW(engine.run(), Error);
}

TEST_F(DesTest, SchedulingInThePastThrows)
{
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("past"));
    dom.schedule(10, 0, [&dom] {
        dom.schedule(9, 0, [] {}); // now() is 10
    });
    EXPECT_THROW(engine.run(), Error);
}

// kSimNever is the "no event" sentinel: an event there could never
// fall below a window bound, so run() would spin without executing it.
TEST_F(DesTest, EventAtSimNeverThrows)
{
    DesEngine engine;
    const DomainId a = engine.addDomain("a");
    const DomainId b = engine.addDomain("b");
    engine.connect(a, b, 10);
    DesDomain &da = engine.domain(a);
    EXPECT_THROW(da.schedule(kSimNever, 0, [] {}), Error);
    EXPECT_EQ(da.pending(), 0u);

    da.schedule(5, 0, [&da] { da.send(1, kSimNever, 0, [] {}); });
    EXPECT_THROW(engine.run(), Error);
    EXPECT_EQ(engine.domain(b).pending(), 0u);
}

TEST_F(DesTest, ConnectValidation)
{
    DesEngine engine;
    const DomainId a = engine.addDomain("a");
    const DomainId b = engine.addDomain("b");
    EXPECT_THROW(engine.connect(a, b, 0), Error);   // non-positive
    EXPECT_THROW(engine.connect(a, b, -5), Error);  // non-positive
    EXPECT_THROW(engine.connect(a, a, 10), Error);  // self-channel
    EXPECT_THROW(engine.connect(a, 7, 10), Error);  // unknown dst
    EXPECT_THROW(engine.connect(7, b, 10), Error);  // unknown src
    EXPECT_THROW(engine.domain(9), Error);
    EXPECT_NO_THROW(engine.connect(a, b, 10));
}

// ---------------------------------------------------------------------
// Schedule fuzzing: seeded random multi-domain workloads whose metric
// dump must be byte-identical at every thread count.
// ---------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** Per-domain fuzz state; mutated only by the domain's own events. */
struct FuzzDomain
{
    DesDomain *dom = nullptr;
    Rng rng{0};
    uint64_t digest = kFnvOffset;
    SimTime last_now = 0;
    int budget = 0;
    /// Outgoing channels as (destination, lookahead).
    std::vector<std::pair<DomainId, SimTime>> channels;
};

void
mix(FuzzDomain &d, uint64_t v)
{
    d.digest = (d.digest ^ v) * kFnvPrime;
}

/**
 * One fuzz event: folds (domain, now, payload) into the domain's
 * digest, asserts clock monotonicity (no event before a dependency's
 * timestamp), and — budget permitting — schedules a random local
 * follow-up plus a random cross-domain send at minimum-legal-or-later
 * timestamps. All randomness comes from the domain-owned Rng, so the
 * workload is a pure function of the seed, never of thread count.
 */
void
fuzzEvent(std::vector<FuzzDomain> &doms, size_t i, uint64_t payload)
{
    FuzzDomain &d = doms[i];
    ASSERT_GE(d.dom->now(), d.last_now);
    d.last_now = d.dom->now();
    mix(d, i);
    mix(d, uint64_t(d.dom->now()));
    mix(d, payload);
    if (d.budget <= 0)
        return;
    --d.budget;

    const SimTime now = d.dom->now();
    const uint64_t pl = uint64_t(d.rng.uniformInt(0, 1 << 20));
    d.dom->schedule(now + 1 + d.rng.uniformInt(0, 20),
                    int32_t(d.rng.uniformInt(-1, 1)),
                    [&doms, i, pl] { fuzzEvent(doms, i, pl); });

    if (!d.channels.empty() && d.rng.uniform() < 0.6) {
        const auto &ch = d.channels[size_t(
            d.rng.uniformInt(0, int64_t(d.channels.size()) - 1))];
        const DomainId dst = ch.first;
        const SimTime at =
            now + ch.second + d.rng.uniformInt(0, 10);
        const uint64_t pl2 = uint64_t(d.rng.uniformInt(0, 1 << 20));
        d.dom->send(dst, at, int32_t(d.rng.uniformInt(-1, 1)),
                    [&doms, dst, pl2] {
                        fuzzEvent(doms, size_t(dst), pl2);
                    });
    }
}

/** Run one seeded fuzz workload and dump its metrics as text. */
std::string
fuzzDump(uint64_t seed)
{
    Rng topo(mixSeed(0xf022u, seed));
    const size_t ndom = size_t(2 + topo.uniformInt(0, 4));

    DesEngine engine;
    std::vector<FuzzDomain> doms(ndom);
    for (size_t i = 0; i < ndom; ++i) {
        const DomainId id =
            engine.addDomain("fuzz" + std::to_string(i));
        doms[i].dom = &engine.domain(id);
        doms[i].rng = Rng(mixSeed(seed, uint64_t(i)));
        doms[i].budget = int(20 + topo.uniformInt(0, 60));
    }
    for (size_t i = 0; i < ndom; ++i)
        for (size_t j = 0; j < ndom; ++j) {
            if (i == j || topo.uniform() >= 0.5)
                continue;
            const SimTime lookahead = 1 + topo.uniformInt(0, 49);
            engine.connect(i, j, lookahead);
            doms[i].channels.emplace_back(j, lookahead);
        }

    for (size_t i = 0; i < ndom; ++i) {
        const int starts = int(1 + topo.uniformInt(0, 2));
        for (int s = 0; s < starts; ++s) {
            const SimTime t = topo.uniformInt(0, 100);
            const uint64_t pl = uint64_t(topo.uniformInt(0, 1 << 20));
            doms[i].dom->schedule(t, 0, [&doms, i, pl] {
                fuzzEvent(doms, i, pl);
            });
        }
    }
    engine.run();

    std::ostringstream out;
    out << "seed=" << seed << " windows=" << engine.windows()
        << " total=" << engine.totalExecuted() << "\n";
    for (size_t i = 0; i < ndom; ++i)
        out << "  d" << i << " digest=" << std::hex
            << doms[i].digest << std::dec
            << " executed=" << doms[i].dom->executed()
            << " last=" << doms[i].last_now << "\n";
    return out.str();
}

/// FNV-1a over the 100 seeds' fuzzDump text.
constexpr uint64_t kFuzzDumpDigest = 0xeaae0eea3bbdd043ull;

TEST_F(DesTest, ScheduleFuzzByteIdenticalAcrossThreadCounts)
{
    constexpr uint64_t kSeeds = 100;
    std::vector<std::string> baseline(kSeeds);
    ThreadPool::setDefaultThreads(1);
    uint64_t all = kFnvOffset;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        baseline[seed] = fuzzDump(seed);
        ASSERT_FALSE(baseline[seed].empty());
        for (const char c : baseline[seed])
            all = (all ^ uint64_t(uint8_t(c))) * kFnvPrime;
    }
    // Pins the dumps themselves (window counts included), so a change
    // to how windows execute cannot shift results at every thread
    // count at once.
    EXPECT_EQ(all, kFuzzDumpDigest) << std::hex << all;
    for (size_t threads : {2u, 4u, 8u}) {
        ThreadPool::setDefaultThreads(threads);
        for (uint64_t seed = 0; seed < kSeeds; ++seed)
            ASSERT_EQ(fuzzDump(seed), baseline[seed])
                << "divergence at seed " << seed << ", --threads "
                << threads;
    }
}

// The window execution rule: an unbounded window (no channels, so it
// runs the rest of the simulation) forks its due domains over the
// pool; a lookahead-bounded window holds too little work to pay for a
// fork and runs its due domains inline on the calling thread.
TEST_F(DesTest, UnboundedWindowsForkBoundedWindowsRunInline)
{
    ThreadPool::setDefaultThreads(4);

    DesEngine free_engine;
    std::vector<int> free_in_task(4, -1);
    for (size_t i = 0; i < free_in_task.size(); ++i) {
        DesDomain &dom = free_engine.domain(
            free_engine.addDomain("free" + std::to_string(i)));
        dom.schedule(SimTime(i), 0, [&free_in_task, i] {
            free_in_task[i] = ThreadPool::inTask() ? 1 : 0;
        });
    }
    free_engine.run();
    EXPECT_EQ(free_engine.windows(), 1u);
    for (size_t i = 0; i < free_in_task.size(); ++i)
        EXPECT_EQ(free_in_task[i], 1) << "domain " << i;

    // Two chips reporting to a router at the same instants: every
    // window is bounded by the 5 ns lookahead and has two due domains.
    DesEngine linked;
    const DomainId router = linked.addDomain("router");
    std::vector<DomainId> chips;
    for (int i = 0; i < 2; ++i) {
        chips.push_back(linked.addDomain("chip" + std::to_string(i)));
        linked.connect(router, chips.back(), 5);
        linked.connect(chips.back(), router, 5);
    }
    // Atomic so that a regression to forking fails the assertions
    // below instead of racing.
    std::atomic<int> events{0};
    std::atomic<int> in_task{0};
    auto note = [&events, &in_task] {
        ++events;
        if (ThreadPool::inTask())
            ++in_task;
    };
    for (const DomainId c : chips) {
        DesDomain *dom = &linked.domain(c);
        for (SimTime t = 0; t < 40; t += 7)
            dom->schedule(t, 0, [dom, router, t, note] {
                note();
                dom->send(router, t + 5, 0, note);
            });
    }
    linked.run();
    EXPECT_GT(linked.windows(), 1u);
    EXPECT_EQ(events, 2 * 2 * 6);
    EXPECT_EQ(in_task, 0);
}

// A batch of fully independent domains runs in exactly one
// conservative window regardless of thread count.
TEST_F(DesTest, IndependentDomainsUseOneWindow)
{
    for (size_t threads : {1u, 4u}) {
        ThreadPool::setDefaultThreads(threads);
        DesEngine engine;
        std::vector<uint64_t> sums(24, 0);
        for (size_t i = 0; i < sums.size(); ++i) {
            DesDomain &dom = engine.domain(
                engine.addDomain("ind" + std::to_string(i)));
            dom.schedule(SimTime(i), 0, [&dom, &sums, i] {
                sums[i] += i + 1;
                dom.scheduleIn(1000, 0,
                               [&sums, i] { sums[i] *= 3; });
            });
        }
        engine.run();
        EXPECT_EQ(engine.windows(), 1u) << threads << " threads";
        for (size_t i = 0; i < sums.size(); ++i)
            EXPECT_EQ(sums[i], (i + 1) * 3);
    }
}

} // namespace
