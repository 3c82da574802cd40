/**
 * @file
 * Deterministic fork-join parallelism for the sweep engine: a plain
 * thread pool (no work stealing) plus index-space parallelFor /
 * parallelMap helpers. The design rule that keeps every caller
 * ThreadSanitizer-clean and bit-reproducible by construction:
 *
 *  - Tasks are pure functions of their index. The pool hands out
 *    indices from a shared atomic counter, but results are always
 *    gathered *by index* (parallelMap writes out[i]), so the output
 *    is independent of which thread ran what and in which order.
 *  - No shared mutable state crosses tasks. Reductions (totals over
 *    sweep points, merged DES windows) happen serially at the barrier,
 *    in the same order a serial loop would use, so floating-point
 *    results are bit-identical at any thread count.
 *
 * ThreadPool::parallelFor is strict: calling it from inside a pool
 * task throws std::logic_error (nested fork-join on one pool would
 * deadlock or oversubscribe). The free rapid::parallelFor helper is
 * what library code uses: it degrades to a serial loop when already
 * inside a task, so e.g. a DES window advanced inside a sweep task
 * runs its domains inline. The analytical model (compiler, perf,
 * power, runtime) uses neither: one evaluation is a serial pass, and
 * the sweep grids that call it are the parallel regions.
 */

#ifndef RAPID_COMMON_PARALLEL_HH
#define RAPID_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rapid {

/** Fixed-size fork-join pool; one shared instance drives all sweeps. */
class ThreadPool
{
  public:
    /**
     * @param threads Total threads participating in parallelFor,
     *        including the calling thread (so N-1 workers are
     *        spawned). 0 means defaultThreads().
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads participating in a parallelFor, caller included. */
    unsigned numThreads() const { return numThreads_; }

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * The caller participates. The first exception thrown by any task
     * is rethrown here after the barrier. Throws std::logic_error if
     * called from inside a pool task (see rapid::parallelFor for the
     * nesting-tolerant variant).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /** True while the calling thread is executing a pool task. */
    static bool inTask();

    /** std::thread::hardware_concurrency, never 0. */
    static unsigned hardwareThreads();

    /**
     * Thread count new pools default to: the setDefaultThreads
     * override if set, else the RAPID_THREADS environment variable,
     * else hardwareThreads().
     */
    static unsigned defaultThreads();

    /**
     * Set the process-wide thread count (the --threads flag). Resets
     * the shared pool if its size changes; 0 restores the
     * environment/hardware default. Not safe to call concurrently
     * with parallelFor on the shared pool — configure at startup.
     */
    static void setDefaultThreads(unsigned n);

    /** The shared pool, created on first use at defaultThreads(). */
    static ThreadPool &global();

  private:
    /** One fork-join region; lives until every participant leaves. */
    struct Batch
    {
        uint64_t seq = 0;
        size_t n = 0;
        const std::function<void(size_t)> *fn = nullptr;
        std::atomic<size_t> next{0};
        std::atomic<unsigned> live{0};
        std::mutex mu;
        std::condition_variable done_cv;
        bool finished = false;
        std::exception_ptr first_error;
    };

    void workerLoop();
    static void runSome(Batch &batch);

    unsigned numThreads_;
    std::vector<std::thread> workers_;
    std::mutex mu_;                 ///< guards batch_ / stop_
    std::condition_variable workCv_;
    std::shared_ptr<Batch> batch_;
    uint64_t nextSeq_ = 1;
    bool stop_ = false;
    std::mutex submitMu_;           ///< serializes parallelFor callers
};

/**
 * Run fn(i) for i in [0, n) on the shared pool; when the calling
 * thread is already inside a pool task the loop runs serially inline
 * (nested regions collapse, they do not reject). Results must be
 * gathered by index for determinism.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

/**
 * Evaluate fn(i) for i in [0, n) in parallel and gather the results
 * into a vector indexed by i — the deterministic-by-construction
 * sweep primitive. The element type must be default-constructible.
 */
template <typename Fn>
auto
parallelMap(size_t n, Fn &&fn)
{
    using R = std::decay_t<decltype(fn(size_t{0}))>;
    std::vector<R> out(n);
    parallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace rapid

#endif // RAPID_COMMON_PARALLEL_HH
