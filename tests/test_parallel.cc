/**
 * @file
 * Tests for the deterministic fork-join pool behind the sweep engine.
 * The load-bearing property is replay determinism: every result a
 * parallel region produces must be bit-identical at any thread count,
 * because the figure regressions diff bench output verbatim. The
 * suite checks the pool mechanics (index coverage, exception
 * propagation, nesting rules) and then replays the real sweeps —
 * inference perf, training perf, and batched chip simulation — at
 * 1 vs 8 threads and compares the result structs field by field.
 */

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "runtime/session.hh"
#include "sim/chip_sim.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

/** Restore the ambient thread count after each test. */
class ParallelTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setDefaultThreads(0); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(8);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST_F(ParallelTest, EmptyRangeIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
    parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST_F(ParallelTest, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, [&](size_t i) { order.push_back(int(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(ParallelTest, ParallelMapGathersByIndex)
{
    ThreadPool::setDefaultThreads(8);
    const std::vector<uint64_t> out =
        parallelMap(257, [](size_t i) { return uint64_t(i) * i; });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], uint64_t(i) * i);
}

TEST_F(ParallelTest, FirstExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing batch and accepts new work.
    std::atomic<size_t> count{0};
    pool.parallelFor(50, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50u);
}

TEST_F(ParallelTest, NestedPoolRegionIsRejected)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(
            4, [&](size_t) { pool.parallelFor(2, [](size_t) {}); }),
        std::logic_error);
}

TEST_F(ParallelTest, NestedFreeParallelForSerializesInline)
{
    ThreadPool::setDefaultThreads(4);
    std::vector<std::atomic<int>> hits(64);
    parallelFor(8, [&](size_t outer) {
        EXPECT_TRUE(ThreadPool::inTask());
        // Library code underneath a parallel sweep (e.g. the mapper's
        // candidate scan) falls back to its serial path.
        parallelFor(8, [&](size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST_F(ParallelTest, DefaultThreadsHonoursOverride)
{
    ThreadPool::setDefaultThreads(3);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    ThreadPool::setDefaultThreads(0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

void
expectSameBreakdown(const CycleBreakdown &a, const CycleBreakdown &b)
{
    EXPECT_EQ(a.conv_gemm, b.conv_gemm);
    EXPECT_EQ(a.overhead, b.overhead);
    EXPECT_EQ(a.quantization, b.quantization);
    EXPECT_EQ(a.aux, b.aux);
    EXPECT_EQ(a.mem_stall, b.mem_stall);
}

void
expectSamePerf(const NetworkPerf &a, const NetworkPerf &b)
{
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.total_macs, b.total_macs);
    EXPECT_EQ(a.mem_bytes, b.mem_bytes);
    expectSameBreakdown(a.breakdown, b.breakdown);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].name, b.layers[i].name);
        EXPECT_EQ(a.layers[i].precision, b.layers[i].precision);
        EXPECT_EQ(a.layers[i].macs, b.layers[i].macs);
        EXPECT_EQ(a.layers[i].mem_bytes, b.layers[i].mem_bytes);
        EXPECT_EQ(a.layers[i].utilization, b.layers[i].utilization);
        EXPECT_EQ(a.layers[i].seconds, b.layers[i].seconds);
        expectSameBreakdown(a.layers[i].cycles, b.layers[i].cycles);
    }
}

NetworkPerf
runInference(const Network &net, unsigned threads)
{
    ThreadPool::setDefaultThreads(threads);
    InferenceSession session(makeInferenceChip(), net);
    InferenceOptions opts;
    opts.target = Precision::INT4;
    return session.run(opts).perf;
}

/**
 * Replay determinism for the inference stack: one evaluation is a
 * serial pass, so the pool size the caller configured must not reach
 * the result.
 */
TEST_F(ParallelTest, InferencePerfBitExactAcrossThreadCounts)
{
    for (const char *name : {"resnet50", "bert"}) {
        Network net = benchmarkByName(name);
        NetworkPerf serial = runInference(net, 1);
        NetworkPerf parallel8 = runInference(net, 8);
        expectSamePerf(serial, parallel8);
    }
}

TEST_F(ParallelTest, TrainingPerfBitExactAcrossThreadCounts)
{
    Network net = benchmarkByName("resnet50");
    auto run = [&](unsigned threads) {
        ThreadPool::setDefaultThreads(threads);
        TrainingSession session(makeTrainingSystem(4), net);
        TrainingOptions opts;
        opts.precision = Precision::HFP8;
        opts.minibatch = 512;
        return session.run(opts);
    };
    TrainingPerf serial = run(1);
    TrainingPerf parallel8 = run(8);
    EXPECT_EQ(serial.network, parallel8.network);
    EXPECT_EQ(serial.precision, parallel8.precision);
    EXPECT_EQ(serial.minibatch, parallel8.minibatch);
    EXPECT_EQ(serial.compute_seconds, parallel8.compute_seconds);
    EXPECT_EQ(serial.comm_seconds, parallel8.comm_seconds);
    EXPECT_EQ(serial.step_seconds, parallel8.step_seconds);
    EXPECT_EQ(serial.total_macs, parallel8.total_macs);
}

LayerProgram
compiledConv(int64_t co)
{
    Layer l;
    l.type = LayerType::Conv;
    l.name = "conv";
    l.ci = 64;
    l.co = co;
    l.h = 7;
    l.w = 7;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    CodeGenerator cg(makeInferenceChip());
    LayerPlan plan;
    plan.precision = Precision::INT4;
    return cg.generate(l, plan, 1);
}

/** Batched chip simulation: same stats as one-at-a-time serial runs. */
TEST_F(ParallelTest, ChipSimRunBatchMatchesSerialRuns)
{
    std::vector<LayerProgram> progs;
    for (int64_t co : {32, 64, 96, 128})
        progs.push_back(compiledConv(co));

    ChipSim sim(4, /*multicast=*/true);
    ThreadPool::setDefaultThreads(1);
    std::vector<ChipRunStats> serial;
    serial.reserve(progs.size());
    for (const LayerProgram &p : progs)
        serial.push_back(sim.run(p));

    ThreadPool::setDefaultThreads(8);
    const std::vector<ChipRunStats> batched = sim.runBatch(progs);

    ASSERT_EQ(batched.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(batched[i].makespan, serial[i].makespan);
        EXPECT_EQ(batched[i].ring_flit_hops, serial[i].ring_flit_hops);
        ASSERT_EQ(batched[i].cores.size(), serial[i].cores.size());
        for (size_t c = 0; c < serial[i].cores.size(); ++c) {
            EXPECT_EQ(batched[i].cores[c].finish_cycle,
                      serial[i].cores[c].finish_cycle);
            EXPECT_EQ(batched[i].cores[c].stall_cycles,
                      serial[i].cores[c].stall_cycles);
            EXPECT_EQ(batched[i].cores[c].fmma_issued,
                      serial[i].cores[c].fmma_issued);
            EXPECT_EQ(batched[i].cores[c].tiles_loaded,
                      serial[i].cores[c].tiles_loaded);
        }
    }
}

} // namespace
} // namespace rapid
