/**
 * @file
 * Shared pieces of the repo benchmark: the host clock, the span
 * tracer, the FNV-1a result digest, and the interface every workload
 * implements.
 *
 * Every host-clock read of the benchmark lives in this directory,
 * outside the directories the determinism lints scan; the library never
 * sees a host time. Every simulated result the library returns
 * (virtual-clock latencies, chip cycles, accuracies) is checked for
 * identity here, never graded.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds since an arbitrary fixed origin. */
inline double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/** Nanoseconds since an arbitrary fixed origin (span timestamps). */
inline int64_t
nowNs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Incremental FNV-1a over the bytes of simulated results. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void i64(int64_t v) { bytes(&v, sizeof v); }

    /** Doubles and floats digest by bit pattern: identity, not
     *  closeness, is the contract. */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One recorded span: a benchmark-side call into a library layer. */
struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;   ///< index of the enclosing span, -1 at root
    int64_t scenario = -1; ///< scenario / cell id, -1 when not per-scenario
    uint32_t thread = 0;   ///< dense id of the recording thread
};

/**
 * In-memory span recorder. Off, begin() returns -1 and costs one
 * branch. Spans nest per thread: a span's parent is the innermost span
 * open on its own thread, and a span with none open there is a root.
 * Pool tasks run on whichever thread picks them up (the caller
 * included), so a span inside a task never takes a parent from another
 * thread.
 */
class Tracer
{
  public:
    explicit Tracer(bool on);

    int64_t begin(const char *name, int64_t scenario = -1);
    void end(int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of self time (s) and call count per span name. A span's
     *  self time is its duration minus the union of the intervals its
     *  child spans cover (clipped to the span). */
    struct Total
    {
        double self_s = 0;
        uint64_t calls = 0;
    };
    std::map<std::string, Total> totals() const;

    /** Write every span as Chrome Trace Event JSON ("X" events). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<int64_t> selfTimesNs() const;

    bool on_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, int64_t scenario = -1)
        : t_(t), id_(t.begin(name, scenario))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int64_t id_;
};

/** One end-to-end rate of a workload, measured over one round. */
struct PartSample
{
    double work = 0;    ///< units completed (steps, requests, cycles...)
    double seconds = 0; ///< host seconds spent producing them
};

/** Outcome of one fixed unit of workload work. */
struct RoundResult
{
    /// One entry per end-to-end rate of the workload, in part order.
    std::vector<PartSample> parts;
    uint64_t digest = 0;   ///< FNV-1a over every simulated result
    uint64_t attempted = 0; ///< scenarios / cells / sessions run
    uint64_t failed = 0;    ///< open ledgers and thrown rapid::Errors
    /// Deterministic work counters (identical every round and at any
    /// thread count for a given seed).
    std::map<std::string, uint64_t> counters;
    std::vector<std::string> errors; ///< first few failure messages
    /// Host speed during the round relative to nominal (hostSpeed());
    /// set by the runner, not the workload.
    double host_speed = 1;
};

/** An end-to-end rate: its issue name, its unit, and what it counts. */
struct PartInfo
{
    const char *name;
    const char *unit;
};

/** One per-layer metric of the traced run. */
struct LayerMetric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::string base;      ///< name of the work counter it is based on
    double base_value = 0; ///< that counter's value
};

/** A benchmark workload: set-up once, then repeated fixed rounds. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** The workload's end-to-end rates, in RoundResult::parts order. */
    virtual std::vector<PartInfo> parts() const = 0;

    /** Seconds of one-time per-process set-up (lazy library fits)
     *  already paid by the time the first setup() returns. */
    virtual double oneTimeSetupSeconds() const { return 0; }

    /** Build inputs, simulators and latency tables from the seed.
     *  May be called again; each call replaces the previous state. */
    virtual void setup(Tracer &tr) = 0;

    /** Run one fixed unit of work on the state setup() built. */
    virtual RoundResult round(Tracer &tr) = 0;

    /** Traced-run replays of the layers that sit inside library
     *  calls; appends per-layer metrics. Default: none. */
    virtual void probe(Tracer &, std::vector<LayerMetric> &) {}
};

std::unique_ptr<Workload> makeTrainLowprec(uint64_t seed);
std::unique_ptr<Workload> makeServing(uint64_t seed);
std::unique_ptr<Workload> makeChipModel(uint64_t seed);

/** Per-seed derived 64-bit stream value (splitmix64 of seed ^ salt). */
uint64_t seedMix(uint64_t seed, uint64_t salt);

/**
 * Speed of the host right now relative to the VM the bounds were tuned
 * on (1.0 there): a fixed integer/float/branch loop timed on every pool
 * thread at once. The host's speed wanders by 15-35% within minutes,
 * and every timed metric moves with it; dividing a rate by the speed
 * measured around it (multiplying a time) restates it at the nominal
 * speed and cancels most of that drift. Library changes cannot move
 * this loop.
 */
double hostSpeed();

/** Median of @p v (copy); 0 when empty. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
