/**
 * @file
 * The repo benchmark's entry point.
 *
 *   perfbench --workload {train_lowprec|serving|chip_model} --seed N
 *             --seconds S --trace {0|1} [--pins FILE]
 *             [--trace-out FILE] [--print-digest]
 *
 * Untraced (--trace 0): set the workload up several times (median is
 * setup_s), then repeat fixed rounds of work for S seconds and report
 * the median per-round rate of each of the workload's three end-to-end
 * parts, plus setup_s and peak_rss_mb. Rates and setup_s are stated at
 * nominal host speed (see hostSpeed()); the raw values print above
 * the JSON. Traced (--trace 1): set every
 * workload up under the span tracer, alternate untraced and traced
 * rounds of the selected workload (their gap is the tracing overhead),
 * run one traced round of each other workload, the per-layer replay
 * probes, and a 1-thread replay whose counters and digests must match;
 * report every per-layer metric with its work counter.
 *
 * Every round's FNV-1a digest of simulated results must equal the
 * first round's and, when one is pinned for the seed, the pinned one;
 * every ledger must close. A mismatch, an open ledger or a thrown
 * rapid::Error counts as a failed operation and the run exits 1. The
 * last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/error.hh"
#include "common/parallel.hh"

using namespace perfbench;

namespace {

constexpr int kSetupReps = 9;
constexpr size_t kMinRounds = 4;
const char *const kWorkloads[] = {"train_lowprec", "serving",
                                  "chip_model"};
/// End-to-end rate slots: every workload reports its three parts
/// under these names, in its parts() order.
const char *const kRateSlots[] = {"rate_a_per_s", "rate_b_per_s",
                                  "rate_c_per_s"};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string pins;
    std::string trace_out;
    bool print_digest = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{train_lowprec|serving|chip_model} --seed N --seconds S "
                 "--trace {0|1} [--pins FILE] [--trace-out FILE] "
                 "[--print-digest]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + k);
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = val();
            else if (k == "--seed")
                a.seed = std::stoull(val());
            else if (k == "--seconds")
                a.seconds = std::stod(val());
            else if (k == "--trace")
                a.trace = std::stoi(val());
            else if (k == "--pins")
                a.pins = val();
            else if (k == "--trace-out")
                a.trace_out = val();
            else if (k == "--print-digest")
                a.print_digest = true;
            else
                usage("unknown argument " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known |= a.workload == w;
    if (!known)
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be positive and --trace 0 or 1");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "train_lowprec")
        return makeTrainLowprec(seed);
    if (name == "serving")
        return makeServing(seed);
    return makeChipModel(seed);
}

/** Pinned digest of (workload, seed), or 0 when none is pinned. */
uint64_t
pinnedDigest(const std::string &path, const std::string &workload,
             uint64_t seed)
{
    std::ifstream in(path);
    std::string w;
    uint64_t s;
    std::string hex;
    while (in >> w >> s >> hex)
        if (w == workload && s == seed)
            return std::stoull(hex, nullptr, 16);
    return 0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Correctness bookkeeping across every round of a run. */
struct Gate
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    note(const std::string &msg)
    {
        if (errors.size() < 8)
            errors.push_back(msg);
    }

    /** Account @p r against the reference round @p ref. */
    void
    check(const std::string &wl, const RoundResult &r,
          const RoundResult &ref)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors)
            note(wl + ": " + e);
        if (r.digest != ref.digest || r.counters != ref.counters) {
            failed += r.attempted;
            note(wl + ": round digest/counters differ from the first "
                      "round (" + hex(r.digest) + " vs " +
                 hex(ref.digest) + ")");
        }
    }
};

/** One round, with the host speed measured around it. */
RoundResult
speedRound(Workload &w, Tracer &tr)
{
    const double before = hostSpeed();
    RoundResult r = w.round(tr);
    r.host_speed = std::sqrt(before * hostSpeed());
    return r;
}

/** Repeat rounds of @p w for @p seconds (at least @p min_rounds). */
std::vector<RoundResult>
runRounds(Workload &w, Tracer &tr, double seconds, size_t min_rounds)
{
    std::vector<RoundResult> rounds;
    const double deadline = nowSeconds() + seconds;
    do {
        rounds.push_back(speedRound(w, tr));
    } while (nowSeconds() < deadline || rounds.size() < min_rounds);
    return rounds;
}

/** Median per-round rate of part @p p, skipping the warm-up round;
 *  at nominal host speed, or as measured when @p raw. */
double
partRate(const std::vector<RoundResult> &rounds, size_t p,
         bool raw = false)
{
    std::vector<double> v;
    for (size_t i = rounds.size() > 2 ? 1 : 0; i < rounds.size(); ++i)
        if (rounds[i].parts[p].seconds > 0)
            v.push_back(rounds[i].parts[p].work /
                        rounds[i].parts[p].seconds /
                        (raw ? 1.0 : rounds[i].host_speed));
    return median(v);
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<std::pair<std::string,
                                      std::pair<double, std::string>>> &m)
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < m.size(); ++i) {
        const double v = std::isfinite(m[i].second.first)
                             ? m[i].second.first
                             : 0.0;
        o << (i ? ", " : "") << "\"" << m[i].first << "\": {\"value\": "
          << v << ", \"unit\": \"" << m[i].second.second << "\"}";
    }
    o << "}}";
    std::printf("%s\n", o.str().c_str());
    std::fflush(stdout);
}

/** --print-digest: one set-up and one round; prints the digest line
 *  perfbench/digests.txt pins. */
int
printDigest(const Args &a)
{
    Tracer off(false);
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    w->setup(off);
    const RoundResult r = w->round(off);
    std::printf("%s %llu %s\n", a.workload.c_str(),
                (unsigned long long)a.seed, hex(r.digest).c_str());
    return r.failed == 0 ? 0 : 1;
}

int
runUntraced(const Args &a)
{
    Tracer off(false);
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    std::vector<double> setups, raw_setups, speeds;
    for (int k = 0; k < kSetupReps; ++k) {
        const double before = hostSpeed();
        const double t0 = nowSeconds();
        w->setup(off);
        raw_setups.push_back(nowSeconds() - t0);
        speeds.push_back(std::sqrt(before * hostSpeed()));
        setups.push_back(raw_setups.back() * speeds.back());
    }
    // The one-time process cost (lazy fits) is paid inside the first
    // set-up only; count it once, on top of the repeatable part.
    const double once = w->oneTimeSetupSeconds();
    setups[0] -= once * speeds[0];
    raw_setups[0] -= once;
    const double setup_s = median(setups) + once * speeds[0];
    const double raw_setup_s = median(raw_setups) + once;

    const std::vector<RoundResult> rounds =
        runRounds(*w, off, a.seconds, kMinRounds);

    Gate gate;
    for (const RoundResult &r : rounds)
        gate.check(a.workload, r, rounds.front());
    const uint64_t pin = pinnedDigest(a.pins, a.workload, a.seed);
    if (pin != 0 && pin != rounds.front().digest) {
        gate.failed += rounds.front().attempted;
        gate.note("digest " + hex(rounds.front().digest) +
                  " differs from the digest pinned for seed " +
                  std::to_string(a.seed) + " (" + hex(pin) + ")");
    }

    const std::vector<PartInfo> parts = w->parts();
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    std::printf("workload %s  seed %llu  threads %u  rounds %zu  "
                "digest %s (%s)\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                rapid::ThreadPool::global().numThreads(), rounds.size(),
                hex(rounds.front().digest).c_str(),
                pin == 0 ? "not pinned for this seed" : "pinned");
    std::vector<double> round_speeds;
    for (const RoundResult &r : rounds)
        round_speeds.push_back(r.host_speed);
    std::printf("  host speed %.3f of nominal (median over rounds); "
                "metrics are stated at nominal speed, raw values as "
                "measured\n",
                median(round_speeds));
    for (size_t p = 0; p < parts.size(); ++p) {
        const double v = partRate(rounds, p);
        std::vector<double> secs;
        for (const RoundResult &r : rounds)
            secs.push_back(r.parts[p].seconds);
        std::printf("  %-26s %16.3f %-10s [%s]  raw %.3f, %.3f s/round\n",
                    parts[p].name, v, parts[p].unit, kRateSlots[p],
                    partRate(rounds, p, true), median(secs));
        m.push_back({kRateSlots[p], {v, "1/s"}});
    }
    for (const auto &[k, v] : rounds.front().counters)
        std::printf("  counter %-30s %llu\n", k.c_str(),
                    (unsigned long long)v);
    const double rss = peakRssMb();
    std::printf("  %-26s %16.4f s           raw %.4f\n  %-26s %16.3f MB\n",
                "setup_s", setup_s, raw_setup_s, "peak_rss_mb", rss);
    m.push_back({"setup_s", {setup_s, "s"}});
    m.push_back({"peak_rss_mb", {rss, "MB"}});
    for (const std::string &e : gate.errors)
        std::printf("  FAILED: %s\n", e.c_str());
    printJson(gate.failed == 0, gate.attempted, gate.failed, m);
    return gate.failed == 0 ? 0 : 1;
}

/** Per-layer metrics derived from spans and round counters. */
void
spanMetrics(const Tracer &tr,
            const std::map<std::string, std::map<std::string, uint64_t>>
                &counters,
            const std::map<std::string, size_t> &traced_rounds,
            std::vector<LayerMetric> &out)
{
    const auto totals = tr.totals();
    auto tot = [&](const char *span) {
        auto it = totals.find(span);
        return it == totals.end() ? Tracer::Total{} : it->second;
    };
    auto cnt = [&](const char *wl, const char *c) {
        auto it = counters.at(wl).find(c);
        return it == counters.at(wl).end() ? 0.0 : double(it->second);
    };
    auto perCall = [&](const char *metric, const char *span,
                       const char *wl, const char *base) {
        const Tracer::Total t = tot(span);
        out.push_back({metric, "s", t.calls ? t.self_s / t.calls : 0.0,
                       base, cnt(wl, base)});
    };
    auto count = [&](const char *metric, const char *wl, const char *c,
                     const char *base) {
        out.push_back({metric, "count", cnt(wl, c), base, cnt(wl, base)});
    };
    const char *T = "train_lowprec", *S = "serving", *C = "chip_model";
    const double nt = double(traced_rounds.at(T));
    const double nc = double(traced_rounds.at(C));

    const double steps = cnt(T, "resilience.steps");
    out.push_back({"resilience.step_s", "s",
                   tot("resilience.run_steps").self_s / (nt * steps),
                   "resilience.steps", steps});
    perCall("resilience.checkpoint_s", "resilience.checkpoint", T,
            "resilience.checkpoint_bytes");
    out.push_back(
        {"resilience.useful_step_ratio", "ratio",
         steps / (steps + cnt(T, "resilience.retries") +
                  cnt(T, "resilience.replayed")),
         "resilience.steps", steps});
    count("fault.injected", T, "fault.injected", "train.grad_macs");
    perCall("func.evaluate_int_s", "func.evaluate_int", T, "int.samples");

    perCall("serve.table_build_s", "serve.table_build", S,
            "serve.requests");
    perCall("serve.run_s", "serve.run", S, "serve.requests");
    count("serve.requests", S, "serve.requests", "serve.requests");
    count("serve.batches", S, "serve.batches", "serve.requests");
    perCall("serve.metrics_s", "serve.metrics", S, "serve.requests");
    perCall("llm.table_build_s", "llm.table_build", S, "llm.tokens");
    perCall("llm.run_s", "llm.run", S, "llm.tokens");
    count("llm.decode_steps", S, "llm.decode_steps", "llm.tokens");
    count("llm.tokens", S, "llm.tokens", "llm.tokens");
    count("llm.spilled_steps", S, "llm.spilled_steps", "llm.decode_steps");
    perCall("llm.metrics_s", "llm.metrics", S, "llm.tokens");
    perCall("cluster.build_s", "cluster.build", S,
            "cluster.origin_requests");
    perCall("cluster.run_s", "cluster.run", S, "cluster.origin_requests");
    count("cluster.windows", S, "cluster.windows",
          "cluster.origin_requests");
    count("cluster.adoptions", S, "cluster.adoptions",
          "cluster.origin_requests");
    perCall("cluster.ledger_s", "cluster.ledger", S,
            "cluster.origin_requests");

    perCall("workloads.build_s", "workloads.build", C,
            "perf.layers_evaluated");
    // Session spans cover one (network, precision) group of runs each.
    out.push_back({"runtime.session_run_s", "s",
                   tot("runtime.session_run").self_s /
                       (nc * cnt(C, "runtime.session_runs")),
                   "runtime.session_runs", cnt(C, "runtime.session_runs")});
    perCall("compiler.codegen_s", "compiler.codegen", C,
            "sim.sampled_layers");
    perCall("sim.chipsim_run_s", "sim.chipsim_run", C,
            "sim.chipsim_cycles");
    count("sim.chipsim_cycles", C, "sim.chipsim_cycles",
          "sim.sampled_layers");
    count("sim.stall_cycles", C, "sim.stall_cycles", "sim.chipsim_cycles");
    out.push_back({"sim.corelet_cycles_per_s", "cycles/s",
                   nc * cnt(C, "sim.corelet_cycles") /
                       tot("sim.corelet_run").self_s,
                   "sim.corelet_cycles", cnt(C, "sim.corelet_cycles")});
    out.push_back({"sim.systolic_macs_per_s", "MAC/s",
                   nc * cnt(C, "sim.systolic_macs") /
                       tot("sim.systolic_gemm").self_s,
                   "sim.systolic_macs", cnt(C, "sim.systolic_macs")});
    count("interconnect.ring_flit_hops", C, "interconnect.ring_flit_hops",
          "sim.chipsim_cycles");
}

int
runTraced(const Args &a)
{
    Tracer tr(true);
    Tracer off(false);
    Gate gate;
    std::map<std::string, std::unique_ptr<Workload>> wls;
    std::map<std::string, RoundResult> ref;
    std::map<std::string, std::map<std::string, uint64_t>> counters;
    std::map<std::string, size_t> traced_rounds;
    for (const char *name : kWorkloads) {
        wls[name] = makeWorkload(name, a.seed);
        wls[name]->setup(tr);
    }

    // The selected workload: untraced and traced rounds alternate, so
    // host-speed drift hits both alike; their rate gap is the tracing
    // overhead.
    Workload &sel = *wls[a.workload];
    std::vector<RoundResult> plain, traced;
    const double deadline = nowSeconds() + a.seconds;
    do {
        plain.push_back(speedRound(sel, off));
        traced.push_back(speedRound(sel, tr));
    } while (nowSeconds() < deadline || plain.size() < kMinRounds);
    ref[a.workload] = plain.front();
    for (const RoundResult &r : plain)
        gate.check(a.workload, r, plain.front());
    for (const RoundResult &r : traced)
        gate.check(a.workload, r, plain.front());
    traced_rounds[a.workload] = traced.size();
    std::vector<double> overheads;
    for (size_t p = 0; p < sel.parts().size(); ++p) {
        const double u = partRate(plain, p), t = partRate(traced, p);
        overheads.push_back(100.0 * (u / t - 1.0));
    }

    // One traced round of every other workload.
    for (const char *name : kWorkloads) {
        if (name == a.workload)
            continue;
        ref[name] = wls[name]->round(tr);
        gate.check(name, ref[name], ref[name]);
        traced_rounds[name] = 1;
    }
    for (auto &[name, r] : ref) {
        counters[name] = r.counters;
        const uint64_t pin = pinnedDigest(a.pins, name, a.seed);
        if (pin != 0 && pin != r.digest) {
            gate.failed += r.attempted;
            gate.note(name + ": digest " + hex(r.digest) +
                      " differs from the pinned " + hex(pin));
        }
    }

    std::vector<LayerMetric> layers;
    for (const char *name : kWorkloads) {
        ++gate.attempted;
        try {
            wls[name]->probe(tr, layers);
        } catch (const rapid::Error &e) {
            ++gate.failed;
            gate.note(std::string(name) + ": probe: " + e.what());
        }
    }
    spanMetrics(tr, counters, traced_rounds, layers);
    layers.push_back({"trace.overhead_pct", "%", median(overheads),
                      "trace.rounds", double(traced.size())});

    // Counter self-check: one round of every workload at 1 thread must
    // repeat the counters and digests of the chosen thread count.
    const unsigned threads = rapid::ThreadPool::global().numThreads();
    rapid::ThreadPool::setDefaultThreads(1);
    for (const char *name : kWorkloads) {
        const RoundResult r = wls[name]->round(off);
        gate.attempted += r.attempted;
        if (r.digest != ref[name].digest ||
            r.counters != ref[name].counters) {
            gate.failed += r.attempted;
            gate.note(std::string(name) +
                      ": 1-thread round differs from the " +
                      std::to_string(threads) + "-thread round");
        }
    }
    rapid::ThreadPool::setDefaultThreads(threads);

    // Every base counter is itself a per-layer metric.
    std::set<std::string> names;
    for (const LayerMetric &l : layers)
        names.insert(l.name);
    const size_t n_timed = layers.size();
    for (size_t i = 0; i < n_timed; ++i)
        if (names.insert(layers[i].base).second)
            layers.push_back({layers[i].base, "count", layers[i].base_value,
                              layers[i].base, layers[i].base_value});

    std::printf("traced run: workload %s  seed %llu  threads %u  "
                "traced rounds %zu  spans %zu\n",
                a.workload.c_str(), (unsigned long long)a.seed, threads,
                traced.size(), tr.spans().size());
    const std::vector<PartInfo> parts = sel.parts();
    for (size_t p = 0; p < parts.size(); ++p)
        std::printf("  overhead %-24s %+8.2f%%  (untraced %.3f, traced "
                    "%.3f %s)\n",
                    parts[p].name, overheads[p], partRate(plain, p),
                    partRate(traced, p), parts[p].unit);
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    for (const LayerMetric &l : layers) {
        std::printf("  %-34s %18.6g %-9s base %s = %.0f\n", l.name.c_str(),
                    l.value, l.unit.c_str(), l.base.c_str(), l.base_value);
        m.push_back({l.name, {l.value, l.unit}});
    }
    if (!a.trace_out.empty()) {
        if (tr.writeChromeTrace(a.trace_out))
            std::printf("  chrome trace: %s\n", a.trace_out.c_str());
        else
            std::printf("  chrome trace: could not write %s\n",
                        a.trace_out.c_str());
    }
    for (const std::string &e : gate.errors)
        std::printf("  FAILED: %s\n", e.c_str());
    printJson(gate.failed == 0, gate.attempted, gate.failed, m);
    return gate.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    rapid::ThreadPool::setDefaultThreads(
        std::min(4u, rapid::ThreadPool::hardwareThreads()));
    try {
        if (a.print_digest)
            return printDigest(a);
        return a.trace ? runTraced(a) : runUntraced(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
