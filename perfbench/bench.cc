#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "bench.hh"
#include "common/parallel.hh"

namespace perfbench {

namespace {

/// Spans opened on this thread and not yet closed (innermost last).
thread_local std::vector<int64_t> t_stack;

uint32_t
threadIndex()
{
    static std::mutex mu;
    static std::map<std::thread::id, uint32_t> ids;
    std::lock_guard<std::mutex> lock(mu);
    auto it = ids.find(std::this_thread::get_id());
    if (it == ids.end())
        it = ids.emplace(std::this_thread::get_id(), uint32_t(ids.size()))
                 .first;
    return it->second;
}

} // namespace

Tracer::Tracer(bool on) : on_(on) {}

int64_t
Tracer::begin(const char *name, int64_t scenario)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.scenario = scenario;
    s.thread = threadIndex();
    if (!t_stack.empty())
        s.parent = t_stack.back();
    int64_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = int64_t(spans_.size());
        spans_.push_back(std::move(s));
    }
    t_stack.push_back(id);
    // Stamp last so the bookkeeping above is not charged to the span.
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[size_t(id)].start_ns = t;
    return id;
}

void
Tracer::end(int64_t id)
{
    if (id < 0)
        return;
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[size_t(id)].end_ns = t;
    if (!t_stack.empty() && t_stack.back() == id)
        t_stack.pop_back();
}

std::vector<int64_t>
Tracer::selfTimesNs() const
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            children[size_t(s.parent)].push_back({s.start_ns, s.end_ns});
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                covered += std::max<int64_t>(0, cur_hi - cur_lo);
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        covered += std::max<int64_t>(0, cur_hi - cur_lo);
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::map<std::string, Tracer::Total>
Tracer::totals() const
{
    const std::vector<int64_t> self = selfTimesNs();
    std::map<std::string, Total> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Total &t = out[spans_[i].name];
        t.self_s += 1e-9 * double(self[i]);
        ++t.calls;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %u",
                      1e-3 * double(s.start_ns - origin),
                      1e-3 * double(s.end_ns - s.start_ns), s.thread);
        out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", " << buf
            << ", \"args\": {\"span\": " << i << ", \"parent\": "
            << s.parent << ", \"scenario\": " << s.scenario << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

uint64_t
seedMix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/// hostSpeed()'s loop rate, iterations per second on each thread, on
/// the 4-vCPU VM the bounds were tuned on.
constexpr double kNominalIterationsPerS = 1.5e8;
constexpr int kSpeedIterations = 2'000'000;

/// Keeps the speed loop's results observable so it is not elided.
volatile double g_speed_sink = 0;

} // namespace

double
hostSpeed()
{
    const unsigned n = rapid::ThreadPool::global().numThreads();
    std::vector<double> sinks(n);
    const double t0 = nowSeconds();
    rapid::parallelFor(n, [&](size_t t) {
        uint64_t h = 0x9e3779b97f4a7c15ULL + t;
        double x = 1.0;
        uint32_t bits = 0;
        for (int i = 0; i < kSpeedIterations; ++i) {
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
            if ((h >> 33) & 1)
                x = x * 0.999999 + double(h >> 40) * 1e-15;
            else
                bits ^= uint32_t(h >> 20) & 0x7fffu;
        }
        sinks[t] = x + double(bits);
    });
    const double dt = nowSeconds() - t0;
    for (double v : sinks)
        g_speed_sink = g_speed_sink + v;
    return kSpeedIterations / dt / kNominalIterationsPerS;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
