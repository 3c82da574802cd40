/**
 * @file
 * Tests for the ring interconnect and the MNI: latency/bandwidth of
 * the cycle-level ring, multicast traffic savings, request
 * aggregation, out-of-order load returns, and load-queue stalls.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "interconnect/mni.hh"
#include "interconnect/ring.hh"

namespace rapid {
namespace {

RingConfig
ring5()
{
    RingConfig cfg;
    cfg.num_nodes = 5; // 4 cores + memory interface
    return cfg;
}

TEST(Ring, HopDistances)
{
    RingNetwork ring(ring5());
    EXPECT_EQ(ring.hopDistance(0, 1, RingDir::Clockwise), 1u);
    EXPECT_EQ(ring.hopDistance(0, 1, RingDir::CounterClockwise), 4u);
    EXPECT_EQ(ring.hopDistance(4, 0, RingDir::Clockwise), 1u);
    EXPECT_EQ(ring.hopDistance(2, 2, RingDir::Clockwise), 0u);
}

TEST(Ring, PicksShorterDirection)
{
    RingNetwork ring(ring5());
    EXPECT_EQ(ring.chooseDirection(0, {1}), RingDir::Clockwise);
    EXPECT_EQ(ring.chooseDirection(0, {4}),
              RingDir::CounterClockwise);
}

TEST(Ring, SingleFlitLatencyEqualsHops)
{
    RingNetwork ring(ring5());
    size_t id = ring.send(0, {2}, 64); // 1 flit, 2 hops
    ring.drain();
    // Inject at cycle 0 (end of cycle 1), arrive 2 hops later.
    EXPECT_EQ(ring.message(id).complete_cycle, 3u);
}

TEST(Ring, LargeTransferIsBandwidthBound)
{
    RingNetwork ring(ring5());
    const uint64_t bytes = 128 * 1000;
    size_t id = ring.send(0, {1}, bytes);
    ring.drain();
    // 1000 flits over a 1-hop path: ~1 flit/cycle plus pipeline fill.
    uint64_t cycles = ring.message(id).complete_cycle;
    EXPECT_GE(cycles, 1000u);
    EXPECT_LE(cycles, 1010u);
}

TEST(Ring, MulticastDeliversToAllAndSavesTraffic)
{
    RingNetwork multicast(ring5());
    size_t id = multicast.send(0, {1, 2, 3}, 128 * 64);
    multicast.drain();
    EXPECT_TRUE(multicast.message(id).delivered);
    uint64_t multicast_hops = multicast.flitHopsMoved();

    RingNetwork unicast(ring5());
    unicast.send(0, {1}, 128 * 64);
    unicast.send(0, {2}, 128 * 64);
    unicast.send(0, {3}, 128 * 64);
    unicast.drain();
    // Three unicasts move 1+2+2 hops per flit (the transfer to node 3
    // takes the shorter counter-clockwise path); the multicast covers
    // all three consumers in a single 3-hop traversal.
    EXPECT_EQ(multicast_hops, 64u * 3);
    EXPECT_EQ(unicast.flitHopsMoved(), 64u * 5);
}

TEST(Ring, BothDirectionsRunConcurrently)
{
    RingNetwork ring(ring5());
    const uint64_t bytes = 128 * 500;
    size_t cw = ring.send(0, {1}, bytes);  // clockwise
    size_t ccw = ring.send(0, {4}, bytes); // counter-clockwise
    ring.drain();
    // Each direction streams independently: both finish in ~500
    // cycles instead of serializing to ~1000.
    EXPECT_LE(ring.message(cw).complete_cycle, 510u);
    EXPECT_LE(ring.message(ccw).complete_cycle, 510u);
}

TEST(Ring, SameDirectionMessagesSerializeAtInjection)
{
    RingNetwork ring(ring5());
    size_t a = ring.send(0, {2}, 128 * 100);
    size_t b = ring.send(0, {2}, 128 * 100);
    ring.drain();
    EXPECT_GE(ring.message(b).complete_cycle,
              ring.message(a).complete_cycle + 100);
}

TEST(Ring, RejectsBadDestinations)
{
    RingNetwork ring(ring5());
    EXPECT_DEATH(ring.send(0, {}, 128), "without destinations");
    EXPECT_DEATH(ring.send(0, {0}, 128), "bad destination");
    EXPECT_DEATH(ring.send(0, {9}, 128), "bad destination");
}

/** Send a fixed mix (both directions, multicast, multi-flit) and
 *  drain; returns the ids in send order. */
std::vector<size_t>
sendMix(RingNetwork &ring)
{
    return {ring.send(0, {1, 2}, 128 * 3), ring.send(0, {4}, 200),
            ring.send(3, {1}, 128 * 5), ring.send(2, {0, 4}, 64)};
}

TEST(Ring, AdvancingAnIdleRingEqualsSteppingIt)
{
    RingNetwork stepped(ring5()), advanced(ring5());
    std::vector<size_t> ids_s = sendMix(stepped), ids_a = sendMix(advanced);
    stepped.drain();
    advanced.drain();
    ASSERT_TRUE(stepped.idle());
    for (int i = 0; i < 37; ++i)
        stepped.step();
    advanced.advanceIdle(37);
    EXPECT_EQ(advanced.now(), stepped.now());
    EXPECT_TRUE(advanced.completed().empty());
    for (size_t id : sendMix(stepped))
        ids_s.push_back(id);
    for (size_t id : sendMix(advanced))
        ids_a.push_back(id);
    EXPECT_FALSE(advanced.idle());
    stepped.drain();
    advanced.drain();
    ASSERT_EQ(ids_a, ids_s);
    for (size_t id : ids_s) {
        EXPECT_EQ(advanced.message(id).issue_cycle,
                  stepped.message(id).issue_cycle);
        EXPECT_EQ(advanced.message(id).complete_cycle,
                  stepped.message(id).complete_cycle);
    }
    EXPECT_EQ(advanced.flitHopsMoved(), stepped.flitHopsMoved());
    EXPECT_EQ(advanced.now(), stepped.now());
}

TEST(Ring, AdvancingABusyRingIsRejected)
{
    RingNetwork ring(ring5());
    EXPECT_TRUE(ring.idle());
    ring.advanceIdle(5);
    ring.send(0, {2}, 128 * 4);
    EXPECT_DEATH(ring.advanceIdle(1), "busy ring");
    ring.step(); // the message injected: its flits are in the pipes
    EXPECT_DEATH(ring.advanceIdle(1), "busy ring");
}

TEST(Ring, SameCycleDeliveriesCompleteInIdOrder)
{
    // Message 0 goes counter-clockwise, message 1 clockwise; both land
    // one hop away in the same cycle. step() visits the clockwise ring
    // first, yet completed() lists them by id.
    RingNetwork ring(ring5());
    const size_t ccw = ring.send(0, {4}, 64);
    const size_t cw = ring.send(0, {1}, 64);
    ASSERT_LT(ccw, cw);
    while (ring.completed().empty())
        ring.step();
    EXPECT_EQ(ring.completed(), (std::vector<size_t>{ccw, cw}));
    EXPECT_EQ(ring.message(ccw).complete_cycle,
              ring.message(cw).complete_cycle);
    ring.step();
    EXPECT_TRUE(ring.completed().empty());
}

/** Step @p mni until nothing is in flight, so every posted transfer
 *  has completed. */
void
drainMni(MniFabric &mni)
{
    for (uint64_t steps = 0; !mni.idle(); ++steps) {
        ASSERT_LT(steps, 1000000u) << "MNI failed to drain";
        mni.step();
    }
}

TEST(Mni, SimpleLoadFromMemory)
{
    MniFabric mni(ring5(), MniConfig{});
    // Core 0 requests 1 KiB from memory (node 4), tag 7.
    ASSERT_TRUE(mni.recv(0, mni.memoryNode(), 7, 1024, 0x100));
    drainMni(mni);
    ASSERT_EQ(mni.completions().size(), 1u);
    const auto &c = mni.completions()[0];
    EXPECT_EQ(c.tag, 7u);
    EXPECT_EQ(c.consumer, 0u);
    EXPECT_EQ(c.local_addr, 0x100u);
    EXPECT_EQ(mni.outstandingLoads(0), 0u);
}

TEST(Mni, RequestAggregationMulticastsSharedData)
{
    // Figure 8: cores 1 and 2 both request tag 5 from memory; the
    // memory interface aggregates and sends ONE multicast.
    MniFabric mni(ring5(), MniConfig{});
    ASSERT_TRUE(mni.recv(1, mni.memoryNode(), 5, 128 * 32, 0xA,
                         /*n_consumers=*/2));
    ASSERT_TRUE(mni.recv(2, mni.memoryNode(), 5, 128 * 32, 0xB,
                         /*n_consumers=*/2));
    drainMni(mni);
    ASSERT_EQ(mni.completions().size(), 2u);
    // Each consumer got its own local address back.
    for (const auto &c : mni.completions()) {
        if (c.consumer == 1)
            EXPECT_EQ(c.local_addr, 0xAu);
        else
            EXPECT_EQ(c.local_addr, 0xBu);
    }
}

TEST(Mni, OutOfOrderReturns)
{
    MniFabric mni(ring5(), MniConfig{});
    // Tag 1 leaves memory only once its second consumer asks for it;
    // tag 2, requested after it, must complete first, matched by tag
    // to its scratchpad address.
    ASSERT_TRUE(mni.recv(0, mni.memoryNode(), 1, 128 * 20, 0x1000, 2));
    ASSERT_TRUE(mni.recv(0, mni.memoryNode(), 2, 128, 0x2000, 1));
    for (int i = 0; i < 100; ++i)
        mni.step();
    ASSERT_TRUE(mni.recv(1, mni.memoryNode(), 1, 128 * 20, 0x3000, 2));
    drainMni(mni);
    ASSERT_EQ(mni.completions().size(), 3u);
    EXPECT_EQ(mni.completions()[0].tag, 2u); // small one first
    EXPECT_EQ(mni.completions()[0].local_addr, 0x2000u);
    EXPECT_EQ(mni.completions()[1].tag, 1u);
    EXPECT_EQ(mni.completions()[1].local_addr, 0x1000u);
    EXPECT_EQ(mni.completions()[2].local_addr, 0x3000u);
}

TEST(Mni, LoadQueueLimitStalls)
{
    MniConfig cfg;
    cfg.max_outstanding_loads = 2;
    MniFabric mni(ring5(), cfg);
    EXPECT_TRUE(mni.recv(0, mni.memoryNode(), 1, 128, 0x0));
    EXPECT_TRUE(mni.recv(0, mni.memoryNode(), 2, 128, 0x10));
    // Third request exceeds the outstanding limit: the program stalls.
    EXPECT_FALSE(mni.recv(0, mni.memoryNode(), 3, 128, 0x20));
    drainMni(mni);
    // After draining there is room again.
    EXPECT_TRUE(mni.recv(0, mni.memoryNode(), 3, 128, 0x20));
    drainMni(mni);
    EXPECT_EQ(mni.completions().size(), 3u);
}

TEST(Mni, ManyConcurrentTransfersAllComplete)
{
    MniFabric mni(ring5(), MniConfig{});
    int posted = 0;
    for (unsigned c = 0; c < 4; ++c)
        for (uint64_t t = 0; t < 8; ++t)
            if (mni.recv(c, mni.memoryNode(), c * 100 + t, 512,
                         t * 64))
                ++posted;
    drainMni(mni);
    EXPECT_EQ(int(mni.completions().size()), posted);
    EXPECT_EQ(posted, 32);
}


TEST(Ring, RandomizedStressConservesFlitHops)
{
    // Property test: for any random message mix, everything delivers
    // and the total flit-hops equal the sum over messages of
    // flits * hops-to-furthest-destination in the chosen direction.
    Rng rng(1234);
    for (int trial = 0; trial < 10; ++trial) {
        RingConfig cfg;
        cfg.num_nodes = unsigned(rng.uniformInt(3, 9));
        RingNetwork ring(cfg);
        uint64_t expected_hops = 0;
        const int n_msgs = int(rng.uniformInt(5, 25));
        for (int m = 0; m < n_msgs; ++m) {
            unsigned src =
                unsigned(rng.uniformInt(0, cfg.num_nodes - 1));
            std::vector<unsigned> dsts;
            for (unsigned d = 0; d < cfg.num_nodes; ++d)
                if (d != src && rng.uniform() < 0.4)
                    dsts.push_back(d);
            if (dsts.empty())
                dsts.push_back((src + 1) % cfg.num_nodes);
            uint64_t bytes = uint64_t(rng.uniformInt(1, 128 * 40));
            uint64_t flits = (bytes + 127) / 128;
            RingDir dir = ring.chooseDirection(src, dsts);
            unsigned max_hops = 0;
            for (unsigned d : dsts)
                max_hops = std::max(max_hops,
                                    ring.hopDistance(src, d, dir));
            expected_hops += flits * max_hops;
            ring.send(src, dsts, bytes);
        }
        ring.drain();
        EXPECT_EQ(ring.flitHopsMoved(), expected_hops)
            << "trial=" << trial;
    }
}

TEST(Mni, RandomizedMemoryLoadsAllRetire)
{
    // Failure-injection-style stress: random consumers, sizes, and
    // stall-retry behaviour against the outstanding limit.
    Rng rng(77);
    MniConfig cfg;
    cfg.max_outstanding_loads = 4;
    MniFabric mni(ring5(), cfg);
    int retired_target = 0;
    uint64_t tag = 0;
    for (int i = 0; i < 60; ++i) {
        unsigned c = unsigned(rng.uniformInt(0, 3));
        uint64_t bytes = uint64_t(rng.uniformInt(32, 4096));
        ++tag;
        if (mni.recv(c, mni.memoryNode(), tag, bytes, tag * 64)) {
            ++retired_target;
        } else {
            // Stalled: make progress, then retry once.
            for (int s = 0; s < 50; ++s)
                mni.step();
            if (mni.recv(c, mni.memoryNode(), tag, bytes, tag * 64))
                ++retired_target;
        }
    }
    drainMni(mni);
    EXPECT_EQ(int(mni.completions().size()), retired_target);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(mni.outstandingLoads(c), 0u);
    // Every completion carries the address registered with its tag.
    for (const auto &done : mni.completions())
        EXPECT_EQ(done.local_addr, done.tag * 64);
}

} // namespace
} // namespace rapid
