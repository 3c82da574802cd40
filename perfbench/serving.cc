/**
 * @file
 * serving: single-chip multi-tenant ServeSim scenarios (Poisson and
 * bursty, below / at / past the knee, some with overload control on),
 * FleetSim failover scenarios (fail-stop, degrade, retry budget), and
 * LlmSim decode scenarios with contexts on both sides of the KV-spill
 * point. The common/des, serve, cluster and llm layers do the work;
 * perf and compiler run only in set-up, while latency tables build.
 */

#include <string>
#include <vector>

#include "bench.hh"
#include "cluster/fleet.hh"
#include "cluster/fleet_metrics.hh"
#include "common/des.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "llm/llm_metrics.hh"
#include "llm/llm_sim.hh"
#include "serve/metrics.hh"
#include "serve/server_sim.hh"

using namespace rapid;

namespace perfbench {

namespace {

constexpr int64_t kMs = 1'000'000;
/// Virtual-time horizons: each sets how much simulated traffic one
/// round of its scenario family generates.
constexpr int64_t kServeHorizonNs = 8000 * kMs;
constexpr int64_t kFleetHorizonNs = 1600 * kMs;
constexpr int64_t kLlmHorizonNs = 15000 * kMs;
/// Each LLM scenario runs under this many independent arrival seeds.
/// Many short scenarios rather than a few long ones keep every result
/// vector small: a vector past glibc's mmap threshold is unmapped on
/// free and re-faulted every round, a cost that jumps with the seed as
/// its capacity crosses a doubling.
constexpr uint64_t kLlmReplicas = 4;
/// Mean prompt of the long LLM scenarios. llm-small's INT4 KV cache
/// holds 1024 tokens, so a batch of their ~800-token contexts spills
/// on most decode steps, while the short scenarios' ~150-token
/// contexts stay resident on almost all of them.
constexpr double kLongPrompt = 640;

/** The serve_sweep multi-tenant mix (three strict web frontends, a
 *  premium NLP tenant with an HFP8 floor, a background tenant) scaled
 *  by @p scale; @p bursty selects the background arrival pattern. */
ServeConfig
mixScenario(double scale, bool bursty, uint64_t seed)
{
    ServeConfig cfg;
    for (const char *name : {"web-a", "web-b", "web-c"}) {
        TenantConfig web;
        web.name = name;
        web.network = "resnet50";
        web.arrival_rps = 800.0 * scale / 3.0;
        web.deadline_ns = 20 * kMs;
        web.priority = 2;
        cfg.tenants.push_back(web);
    }
    TenantConfig nlp;
    nlp.name = "nlp-premium";
    nlp.network = "bert";
    nlp.arrival_rps = 40.0 * scale;
    nlp.deadline_ns = 60 * kMs;
    nlp.min_precision = Precision::HFP8;
    nlp.priority = 2;
    cfg.tenants.push_back(nlp);
    TenantConfig bg;
    bg.name = "background";
    bg.network = "mobilenetv1";
    bg.arrival_rps = 1500.0 * scale;
    bg.pattern = bursty ? ArrivalPattern::Bursty : ArrivalPattern::Poisson;
    bg.burst_mean = 16.0;
    bg.deadline_ns = 20 * kMs;
    bg.priority = 0;
    cfg.tenants.push_back(bg);
    cfg.batcher.max_batch = 8;
    cfg.batcher.max_wait_ns = 2 * kMs;
    cfg.horizon_ns = kServeHorizonNs;
    cfg.seed = seed;
    return cfg;
}

/** Which overload-control mechanism a scenario turns on. */
enum class Overload
{
    Off,
    Calibrated, ///< calibrated admission tier with its trust fuse
    Brownout,   ///< tenant-priority brownout ladder
    Breaker,    ///< per-queue circuit breakers
};

void
enableOverload(ServeConfig &cfg, Overload o)
{
    switch (o) {
      case Overload::Off:
        break;
      case Overload::Calibrated:
        cfg.overload.admission.enabled = true;
        cfg.overload.admission.safety_margin = 1.25;
        cfg.overload.admission.window = 512;
        break;
      case Overload::Brownout:
        cfg.overload.brownout.enabled = true;
        cfg.overload.brownout.depth_high = 48;
        cfg.overload.brownout.depth_low = 8;
        cfg.overload.brownout.escalate_ns = 10 * kMs;
        cfg.overload.brownout.recover_ns = 40 * kMs;
        break;
      case Overload::Breaker:
        cfg.overload.breaker.enabled = true;
        cfg.overload.breaker.depth_open = 32;
        cfg.overload.breaker.violations_open = 4;
        cfg.overload.breaker.open_ns = 30 * kMs;
        cfg.overload.breaker.probe_count = 4;
        break;
    }
}

std::vector<ServeConfig>
serveScenarios(uint64_t seed)
{
    // One mechanism per overload scenario, each at a load where its
    // regime is stable across seeds: mixing them past the knee flips
    // between regimes whose host cost differs several-fold. The
    // calibrated tier runs below its knee, where its fuse never trips;
    // it costs ~40x more host time per request than the bound-only
    // router, so its horizon is shorter to keep it from swamping the
    // event-core cost of the other scenarios.
    struct S
    {
        double scale;
        bool bursty;
        Overload overload;
        int64_t horizon_ns = kServeHorizonNs;
    };
    constexpr S kS[] = {{0.8, false, Overload::Off},
                        {0.8, true, Overload::Off},
                        {1.6, false, Overload::Off},
                        {1.6, true, Overload::Off},
                        {2.4, true, Overload::Off},
                        {1.0, false, Overload::Calibrated, 2000 * kMs},
                        {2.0, true, Overload::Brownout},
                        {2.4, false, Overload::Breaker}};
    std::vector<ServeConfig> out;
    for (size_t i = 0; i < std::size(kS); ++i) {
        ServeConfig cfg = mixScenario(kS[i].scale, kS[i].bursty,
                                      seedMix(seed, 100 + i));
        enableOverload(cfg, kS[i].overload);
        cfg.horizon_ns = kS[i].horizon_ns;
        out.push_back(cfg);
    }
    return out;
}

std::vector<ClusterConfig>
fleetScenarios(uint64_t seed)
{
    std::vector<ClusterConfig> out;
    for (int v = 0; v < 3; ++v) {
        ClusterConfig cfg;
        cfg.num_chips = 4;
        cfg.serve.horizon_ns = kFleetHorizonNs;
        cfg.serve.seed = seedMix(seed, 200 + uint64_t(v));
        for (int ti = 0; ti < 8; ++ti) {
            TenantConfig t;
            t.name = "tenant" + std::to_string(ti);
            t.network = ti % 2 == 0 ? "resnet50" : "mobilenetv1";
            t.arrival_rps = 500.0;
            t.deadline_ns = 15 * kMs;
            cfg.serve.tenants.push_back(t);
        }
        cfg.serve.batcher.max_batch = 8;
        cfg.serve.batcher.max_wait_ns = 2 * kMs;
        // Failures are scripted, not seeded: how many chips die changes
        // the work per request several-fold, so it must not vary with
        // the seed.
        if (v == 0) {
            // A fail-stop and a degrade under failover-restore.
            cfg.policy = FleetPolicy::FailoverRestore;
            cfg.failures.scripted = {{1, 300 * kMs, false},
                                     {3, 600 * kMs, true}};
        } else if (v == 1) {
            // Two fail-stops under a retry budget.
            cfg.policy = FleetPolicy::FailoverRestore;
            cfg.failures.scripted = {{1, 120 * kMs, false},
                                     {2, 150 * kMs, false}};
            cfg.failover.budget.enabled = true;
            cfg.failover.budget.tokens_per_s = 120.0;
            cfg.failover.budget.burst = 16.0;
        } else {
            // Drain-only with one fail-stop and one degrade.
            cfg.policy = FleetPolicy::DrainOnly;
            cfg.failures.scripted = {{0, 100 * kMs, false},
                                     {3, 200 * kMs, true}};
        }
        out.push_back(cfg);
    }
    return out;
}

std::vector<LlmServeConfig>
llmScenarios(uint64_t seed)
{
    // (mean prompt, mean output, policy): short contexts stay resident;
    // long ones spill the KV cache. The router takes the cheapest rung
    // that meets both SLAs, so both mostly run INT4 KV; the long
    // one-shot scenarios also send a few requests up to HFP8 and FP16.
    struct S
    {
        double prompt, output;
        BatchPolicy policy;
        double rps;
    };
    constexpr S kS[] = {{96, 48, BatchPolicy::Continuous, 200},
                        {96, 48, BatchPolicy::OneShot, 120},
                        {kLongPrompt, 160, BatchPolicy::Continuous, 60},
                        {kLongPrompt, 160, BatchPolicy::OneShot, 40}};
    std::vector<LlmServeConfig> out;
    for (size_t j = 0; j < std::size(kS) * kLlmReplicas; ++j) {
        const size_t i = j % std::size(kS);
        LlmServeConfig cfg;
        cfg.model = "llm-small";
        cfg.policy = kS[i].policy;
        cfg.max_batch = 8;
        cfg.horizon_ns = kLlmHorizonNs;
        cfg.seed = seedMix(seed, 300 + j);
        LlmTenantConfig chat;
        chat.name = "chat";
        chat.arrival_rps = kS[i].rps;
        chat.mean_prompt_tokens = kS[i].prompt;
        chat.mean_output_tokens = kS[i].output;
        chat.ttft_deadline_ns = 200 * kMs;
        chat.tpot_deadline_ns = 2 * kMs;
        cfg.tenants.push_back(chat);
        out.push_back(cfg);
    }
    return out;
}

void
digestServe(Digest &d, const ServeResult &r)
{
    for (const RequestRecord &q : r.requests) {
        d.u64(q.id);
        d.u64(q.tenant);
        d.u64(uint64_t(q.precision));
        d.i64(q.arrival_ns);
        d.i64(q.launch_ns);
        d.i64(q.completion_ns);
        d.i64(q.predicted_ns);
        d.u64(uint64_t(q.tier) | uint64_t(q.shed_reason) << 8 |
              uint64_t(q.probe) << 16 | uint64_t(q.shed) << 17 |
              uint64_t(q.failed) << 18);
    }
    for (const BatchRecord &b : r.batches) {
        d.u64(b.network);
        d.u64(uint64_t(b.precision));
        d.i64(b.size);
        d.i64(b.launch_ns);
        d.i64(b.completion_ns);
        d.f64(b.energy_j);
        d.u64(b.forced_by_timeout);
    }
    d.i64(r.end_ns);
    d.f64(r.queue_depth_integral);
    d.i64(r.max_queue_depth);
    for (const BrownoutTransition &t : r.brownout_transitions) {
        d.i64(t.time_ns);
        d.i64(t.level);
    }
}

bool
serveLedgersClosed(const ServeMetrics &m)
{
    if (!m.total.accountingClosed() || !m.total.tierAccountingClosed())
        return false;
    for (const TenantMetrics &t : m.tenants)
        if (!t.accountingClosed() || !t.tierAccountingClosed())
            return false;
    return true;
}

bool
llmLedgersClosed(const LlmMetrics &m)
{
    auto ok = [](const LlmTenantMetrics &t) {
        return t.requestAccountingClosed() && t.tierAccountingClosed() &&
               t.tokenAccountingClosed();
    };
    if (!ok(m.total))
        return false;
    for (const LlmTenantMetrics &t : m.tenants)
        if (!ok(t))
            return false;
    return true;
}

class Serving : public Workload
{
  public:
    explicit Serving(uint64_t seed) : seed_(seed) {}

    std::vector<PartInfo>
    parts() const override
    {
        return {{"serve_requests_per_s", "requests/s"},
                {"fleet_requests_per_s", "requests/s"},
                {"llm_tokens_per_s", "tokens/s"}};
    }

    void
    setup(Tracer &tr) override
    {
        serve_cfgs_ = serveScenarios(seed_);
        fleet_cfgs_ = fleetScenarios(seed_);
        llm_cfgs_ = llmScenarios(seed_);
        const ChipConfig chip = makeInferenceChip();
        // Tables build one simulator at a time; each build is itself
        // parallel over its (network, precision, batch) points.
        serve_.clear();
        for (size_t i = 0; i < serve_cfgs_.size(); ++i) {
            Scope s(tr, "serve.table_build", int64_t(i));
            serve_.push_back(
                std::make_unique<ServeSim>(chip, serve_cfgs_[i]));
        }
        fleet_.clear();
        for (size_t i = 0; i < fleet_cfgs_.size(); ++i) {
            Scope s(tr, "cluster.build", int64_t(i));
            fleet_.push_back(
                std::make_unique<FleetSim>(chip, fleet_cfgs_[i]));
        }
        llm_.clear();
        for (size_t i = 0; i < llm_cfgs_.size(); ++i) {
            Scope s(tr, "llm.table_build", int64_t(i));
            llm_.push_back(std::make_unique<LlmSim>(chip, llm_cfgs_[i]));
        }
    }

    RoundResult
    round(Tracer &tr) override
    {
        RoundResult r;
        r.parts.resize(3);
        Digest dg;
        auto fail = [&](const std::string &msg) {
            ++r.failed;
            if (r.errors.size() < 4)
                r.errors.push_back(msg);
        };

        // Single-chip serving scenarios: one engine, one window.
        std::vector<const ServeSim *> sp;
        for (const auto &s : serve_)
            sp.push_back(s.get());
        double t0 = nowSeconds();
        std::vector<ServeResult> sres;
        std::vector<ServeMetrics> smet;
        try {
            {
                Scope s(tr, "serve.run");
                sres = runServeBatch(sp);
            }
            for (size_t i = 0; i < sres.size(); ++i) {
                Scope s(tr, "serve.metrics", int64_t(i));
                smet.push_back(computeMetrics(serve_cfgs_[i], sres[i]));
            }
        } catch (const Error &e) {
            fail(std::string("serve: ") + e.what());
        }
        r.parts[0].seconds = nowSeconds() - t0;
        uint64_t offered = 0, batches = 0;
        r.attempted += serve_.size();
        for (size_t i = 0; i < smet.size(); ++i) {
            if (!serveLedgersClosed(smet[i]))
                fail("serve scenario " + std::to_string(i) +
                     ": ledger open");
            offered += smet[i].total.offered;
            batches += sres[i].batches.size();
            digestServe(dg, sres[i]);
        }
        r.parts[0].work = double(offered);
        r.counters["serve.requests"] = offered;
        r.counters["serve.batches"] = batches;

        // Fleet failover scenarios: coupled domains, many windows.
        std::vector<const FleetSim *> fp;
        for (const auto &f : fleet_)
            fp.push_back(f.get());
        t0 = nowSeconds();
        std::vector<FleetResult> fres;
        std::vector<FleetLedger> led;
        try {
            {
                Scope s(tr, "cluster.run");
                fres = runFleetBatch(fp);
            }
            for (size_t i = 0; i < fres.size(); ++i) {
                Scope s(tr, "cluster.ledger", int64_t(i));
                led.push_back(buildFleetLedger(fleet_cfgs_[i], fres[i]));
            }
        } catch (const Error &e) {
            fail(std::string("fleet: ") + e.what());
        }
        r.parts[1].seconds = nowSeconds() - t0;
        uint64_t origins = 0, adoptions = 0, windows = 0;
        r.attempted += fleet_.size();
        for (size_t i = 0; i < led.size(); ++i) {
            if (!led[i].closed())
                fail("fleet scenario " + std::to_string(i) +
                     ": ledger open");
            origins += led[i].offered;
            adoptions += fres[i].adoptions.size();
            windows += fres[i].windows;
            for (const ServeResult &c : fres[i].chips)
                digestServe(dg, c);
            for (const AdoptionMeta &a : fres[i].adoptions) {
                dg.u64(a.host_chip);
                dg.u64(a.local_id);
                dg.u64(a.origin_chip);
                dg.u64(a.origin_id);
                dg.u64(uint64_t(a.attempts));
            }
            for (uint64_t v : {led[i].offered, led[i].completed,
                               led[i].shed, led[i].failed,
                               led[i].shed_budget, led[i].failed_over,
                               led[i].retries, led[i].sla_met})
                dg.u64(v);
            dg.u64(fres[i].windows);
        }
        r.parts[1].work = double(origins);
        r.counters["cluster.origin_requests"] = origins;
        r.counters["cluster.adoptions"] = adoptions;
        r.counters["cluster.windows"] = windows;

        // LLM decode scenarios.
        std::vector<const LlmSim *> lp;
        for (const auto &l : llm_)
            lp.push_back(l.get());
        t0 = nowSeconds();
        std::vector<LlmResult> lres;
        std::vector<LlmMetrics> lmet;
        try {
            {
                Scope s(tr, "llm.run");
                lres = runLlmBatch(lp);
            }
            for (size_t i = 0; i < lres.size(); ++i) {
                Scope s(tr, "llm.metrics", int64_t(i));
                lmet.push_back(computeLlmMetrics(llm_cfgs_[i], lres[i]));
            }
        } catch (const Error &e) {
            fail(std::string("llm: ") + e.what());
        }
        r.parts[2].seconds = nowSeconds() - t0;
        uint64_t tokens = 0, decode_steps = 0, spilled = 0;
        r.attempted += llm_.size();
        for (size_t i = 0; i < lmet.size(); ++i) {
            if (!llmLedgersClosed(lmet[i]))
                fail("llm scenario " + std::to_string(i) +
                     ": ledger open");
            // Each scenario must sit on its side of the spill point.
            const bool long_ctx =
                llm_cfgs_[i].tenants[0].mean_prompt_tokens >= kLongPrompt;
            const uint64_t dec = lmet[i].decode_steps,
                           spill = lmet[i].spilled_steps;
            if (long_ctx ? 4 * spill < dec : 10 * spill > dec)
                fail("llm scenario " + std::to_string(i) + ": " +
                     std::to_string(spill) + " of " + std::to_string(dec) +
                     " decode steps spilled, expected " +
                     (long_ctx ? "at least a quarter" : "under a tenth"));
            tokens += uint64_t(lmet[i].total.generated_tokens);
            decode_steps += dec;
            spilled += spill;
            for (const LlmRequestRecord &q : lres[i].requests) {
                dg.u64(q.id);
                dg.i64(q.arrival_ns);
                dg.i64(q.prompt_tokens);
                dg.i64(q.output_tokens);
                dg.i64(q.mode);
                dg.i64(q.first_token_ns);
                dg.i64(q.completion_ns);
                dg.i64(q.generated_tokens);
            }
            for (const LlmStepRecord &st : lres[i].steps) {
                dg.u64(uint64_t(st.kind));
                dg.i64(st.mode);
                dg.i64(st.batch);
                dg.i64(st.live);
                dg.i64(st.context_tokens);
                dg.i64(st.launch_ns);
                dg.i64(st.completion_ns);
                dg.i64(st.spill_ns);
            }
            dg.i64(lres[i].end_ns);
        }
        r.parts[2].work = double(tokens);
        r.counters["llm.tokens"] = tokens;
        r.counters["llm.decode_steps"] = decode_steps;
        r.counters["llm.spilled_steps"] = spilled;
        r.digest = dg.value();
        return r;
    }

    void probe(Tracer &tr, std::vector<LayerMetric> &out) override;

  private:
    uint64_t seed_;
    std::vector<ServeConfig> serve_cfgs_;
    std::vector<ClusterConfig> fleet_cfgs_;
    std::vector<LlmServeConfig> llm_cfgs_;
    std::vector<std::unique_ptr<ServeSim>> serve_;
    std::vector<std::unique_ptr<FleetSim>> fleet_;
    std::vector<std::unique_ptr<LlmSim>> llm_;
};

/**
 * The DES probe drives DesEngine directly with serving's event shape:
 * per domain, self-rescheduling arrival / completion / timeout lanes
 * whose callbacks capture a few words, on seeded integer-ns gaps.
 * Local mode: independent domains (one parallel window). Channel mode:
 * a ring of domains that hand every completion to their successor
 * over a lookahead channel, so the engine crosses many barriers.
 */
struct DesProbe
{
    uint64_t events = 0;
    uint64_t windows = 0;
    double seconds = 0;
};

DesProbe
runDesProbe(Tracer &tr, uint64_t seed, bool channels)
{
    constexpr size_t kDomains = 16;
    constexpr uint64_t kChainEvents = 20000; ///< per lane per domain
    constexpr SimTime kLookahead = 50'000;
    DesEngine engine;
    std::vector<DomainId> ids;
    for (size_t d = 0; d < kDomains; ++d)
        ids.push_back(engine.addDomain("probe" + std::to_string(d)));
    if (channels)
        for (size_t d = 0; d < kDomains; ++d)
            engine.connect(ids[d], ids[(d + 1) % kDomains], kLookahead);

    struct Lane
    {
        DesEngine *engine;
        DomainId dom, next;
        int32_t prio;
        uint64_t left;
        uint64_t state;
        bool channels;
    };
    std::vector<Lane> lanes;
    lanes.reserve(kDomains * 3);
    for (size_t d = 0; d < kDomains; ++d)
        for (int32_t p = 0; p < 3; ++p)
            lanes.push_back({&engine, ids[d], ids[(d + 1) % kDomains], p,
                             kChainEvents, seedMix(seed, d * 3 + size_t(p)),
                             channels});

    struct Step
    {
        static void
        fire(Lane *l)
        {
            if (l->left == 0)
                return;
            --l->left;
            l->state = l->state * 6364136223846793005ULL +
                       1442695040888963407ULL;
            const SimTime gap = SimTime(1000 + (l->state >> 40) % 20000);
            DesDomain &d = l->engine->domain(l->dom);
            if (l->channels && l->prio == 1 && l->left % 8 == 0) {
                // A completion handed to the ring successor.
                d.send(l->next, d.now() + kLookahead + gap, 3, [] {});
            }
            d.scheduleIn(gap, l->prio, [l] { fire(l); });
        }
    };
    for (Lane &l : lanes) {
        Lane *lp = &l;
        engine.domain(l.dom).schedule(0, l.prio, [lp] { Step::fire(lp); });
    }
    const double t0 = nowSeconds();
    {
        Scope s(tr, channels ? "des.run_channels" : "des.run_local");
        engine.run();
    }
    DesProbe p;
    p.seconds = nowSeconds() - t0;
    p.events = engine.totalExecuted();
    p.windows = engine.windows();
    return p;
}

void
Serving::probe(Tracer &tr, std::vector<LayerMetric> &out)
{
    const DesProbe local = runDesProbe(tr, seed_, false);
    const DesProbe chan = runDesProbe(tr, seed_, true);
    out.push_back({"des.local_events_per_s", "events/s",
                   double(local.events) / local.seconds,
                   "des.local_events", double(local.events)});
    out.push_back({"des.channel_events_per_s", "events/s",
                   double(chan.events) / chan.seconds,
                   "des.channel_events", double(chan.events)});
    out.push_back({"des.windows", "count", double(chan.windows),
                   "des.channel_events", double(chan.events)});
}

} // namespace

std::unique_ptr<Workload>
makeServing(uint64_t seed)
{
    return std::make_unique<Serving>(seed);
}

} // namespace perfbench
