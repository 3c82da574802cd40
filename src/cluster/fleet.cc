#include "cluster/fleet.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/des.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "func/datasets.hh"
#include "resilience/checkpoint.hh"
#include "resilience/resilient_trainer.hh"
#include "serve/serve_domain.hh"
#include "workloads/networks.hh"

namespace rapid {

namespace {

/// Replication payload bandwidth of the fabric, in Gbit/s.
constexpr double kFabricGbps = 128.0;
/// A request stranded on a dead chip is presumed lost this long after
/// its arrival; its retry fires at
/// max(detection, arrival + timeout) + attempts * backoff.
constexpr int64_t kRequestTimeoutNs = 20'000'000;
constexpr int64_t kRetryBackoffNs = 1'000'000;
/// Failover hops any one request may take before it is written off
/// (each adoption or bounce re-dispatch consumes one).
constexpr int kMaxRetries = 3;
/// The training tenant's minibatch, spiral set size per class (the
/// set holds twice this), and data seed.
constexpr int64_t kTrainingBatchSize = 32;
constexpr int64_t kTrainingSamplesPerClass = 128;
constexpr uint64_t kTrainingDataSeed = 7;

/** One request stranded by a halting chip. The chip reports it in its
 *  death manifest; the router then updates it in place each time it
 *  offers it to a failover target. */
struct StrandedRequest
{
    size_t origin_chip = 0;
    uint64_t origin_id = 0;
    int64_t origin_arrival_ns = 0;
    unsigned tenant = 0;
    /// Arrival on the halted chip; once dispatched, the planned
    /// arrival on the target (clamped at injection).
    int64_t when = 0;
    int attempts = 0; ///< failover hops consumed
    bool admitted = false; ///< admitted by the halted chip
};

struct FleetCell;

/** One chip of a cell: the serving core plus the failure, failover
 *  and training overlays. Event callbacks mutate only this host's
 *  state (cross-host effects travel through channels), which keeps
 *  every domain race-free by construction. */
struct ChipHost
{
    FleetCell &cell;
    size_t idx;
    DesDomain &dom;
    ServeDomainCore core;

    ChipStatus status;
    /// Ascending local_id: injectArrival hands out increasing ids.
    std::vector<AdoptionMeta> adoptions;

    // Training tenant state (home and replica chips only).
    std::unique_ptr<ResilientTrainer> trainer;
    Dataset train_data;
    bool trainer_active = false;
    uint64_t steps_at_death = 0;
    uint64_t checkpoints_replicated = 0;
    bool restored = false;
    uint64_t restore_step = 0;
    std::vector<uint8_t> replica_ckpt; ///< empty until one arrives

    ChipHost(FleetCell &c, size_t i, DesDomain &d, const ServeSim &s)
        : cell(c), idx(i), dom(d), core(s, d)
    {
    }

    void heartbeat();
    void onFailure(bool degrade);
    void onAdopt(std::vector<StrandedRequest> items);
    void buildTrainingData();
    void trainTick();
    void replicate();
    void onReplicaCheckpoint(std::vector<uint8_t> bytes);
    void adoptTraining();
};

/** The global SLA router: liveness sweep, manifest collection, and
 *  policy dispatch. Lane 0 receives (heartbeats, manifests, bounces)
 *  ahead of the lane-1 liveness check at the same instant, so a
 *  heartbeat landing exactly at a sweep never reads as missed. */
struct RouterHost
{
    static constexpr int32_t kPriRecv = 0;
    static constexpr int32_t kPriCheck = 1;

    /** What the router knows of one chip. */
    struct ChipView
    {
        int64_t last_heard = 0;
        /// When the router declared the chip dead; -1 while it is
        /// believed alive (the first sweep runs at one heartbeat
        /// period, so a declaration is always later than 0).
        int64_t detect_ns = -1;
        bool manifest_seen = false;
        std::vector<StrandedRequest> manifest;
        /// Retry-budget token bucket of this chip as a failover
        /// target, refilled on the virtual clock. Starts full.
        double tokens = 0;
        int64_t tokens_ns = 0;

        bool declared() const { return detect_ns >= 0; }
    };

    FleetCell &cell;
    DesDomain &dom;
    std::vector<ChipView> chips;
    std::vector<RetryDenial> denials;

    RouterHost(FleetCell &c, DesDomain &d, size_t num_chips,
               double burst)
        : cell(c), dom(d), chips(num_chips)
    {
        for (ChipView &v : chips)
            v.tokens = burst;
    }

    void onHeartbeat(size_t chip) { chips[chip].last_heard = dom.now(); }
    void onManifest(size_t chip, std::vector<StrandedRequest> manifest);
    void onBounce(size_t from, std::vector<StrandedRequest> items);
    void onCheck();
    void tryProcess(size_t chip);
    size_t successor(size_t from) const;
    void dispatchTo(size_t target, std::vector<StrandedRequest> items);
    bool budgetAllow(size_t target);
};

/** One fleet instance wired into a shared engine. */
struct FleetCell
{
    const FleetSim &sim;
    const ClusterConfig &cfg;
    DesEngine &engine;
    std::vector<DomainId> chip_dom;
    DomainId router_dom = 0;
    std::vector<std::unique_ptr<ChipHost>> chips;
    std::unique_ptr<RouterHost> router;
    /// Heartbeats and liveness sweeps stop here so the engine drains:
    /// failures are confined to the horizon, so nothing can need
    /// detection later.
    int64_t stop_ns = 0;

    FleetCell(DesEngine &eng, const FleetSim &fleet_sim,
              size_t cell_index);

    int64_t
    payloadNs(size_t bytes) const
    {
        return int64_t(std::ceil(double(bytes) * 8.0 / kFabricGbps));
    }
};

void
ChipHost::heartbeat()
{
    if (status.failed_stop)
        return;
    ++status.heartbeats_sent;
    const size_t n = cell.cfg.num_chips;
    dom.send(cell.router_dom, dom.now() + fabricDelayNs(n, idx, n),
             RouterHost::kPriRecv,
             [r = cell.router.get(), chip = idx] {
                 r->onHeartbeat(chip);
             });
    const int64_t next = dom.now() + kHeartbeatIntervalNs;
    if (next <= cell.stop_ns)
        dom.schedule(next, ServeDomainCore::kPriOverlay,
                     [this] { heartbeat(); });
}

void
ChipHost::onFailure(bool degrade)
{
    if (status.failed_stop)
        return;
    if (degrade) {
        // Degraded mode: dead cores / MPE rows stretch every future
        // batch through the degraded latency table; the chip keeps
        // serving and heartbeating.
        core.setTable(&cell.sim.degradedTable());
        status.degraded = true;
        return;
    }
    status.failed_stop = true;
    if (trainer) {
        trainer_active = false;
        steps_at_death = trainer->step();
    }
    const std::vector<OrphanRequest> orphans = core.halt();
    status.orphans = orphans.size();

    // The death manifest: the front-end's request ledger for this
    // chip, transferred lazily — stranded requests joined with their
    // failover history so retry hops stay bounded across chained
    // deaths.
    std::vector<StrandedRequest> manifest;
    manifest.reserve(orphans.size());
    for (const OrphanRequest &o : orphans) {
        StrandedRequest s{idx,          o.id, o.arrival_ns, o.tenant,
                          o.arrival_ns, 0,    o.admitted};
        const auto it = std::lower_bound(
            adoptions.begin(), adoptions.end(), o.id,
            [](const AdoptionMeta &m, uint64_t id) {
                return m.local_id < id;
            });
        if (it != adoptions.end() && it->local_id == o.id) {
            s.origin_chip = it->origin_chip;
            s.origin_id = it->origin_id;
            s.origin_arrival_ns = it->origin_arrival_ns;
            s.attempts = it->attempts;
        }
        manifest.push_back(s);
    }
    const size_t n = cell.cfg.num_chips;
    dom.send(cell.router_dom, dom.now() + fabricDelayNs(n, idx, n),
             RouterHost::kPriRecv,
             [r = cell.router.get(), chip = idx,
              moved = std::move(manifest)] {
                 r->onManifest(chip, moved);
             });
}

void
ChipHost::onAdopt(std::vector<StrandedRequest> items)
{
    if (status.failed_stop) {
        // The router raced a death it had not detected yet: bounce
        // the batch back so it can walk to the next successor.
        const size_t n = cell.cfg.num_chips;
        dom.send(cell.router_dom, dom.now() + fabricDelayNs(n, idx, n),
                 RouterHost::kPriRecv,
                 [r = cell.router.get(), chip = idx,
                  moved = std::move(items)] {
                     r->onBounce(chip, moved);
                 });
        return;
    }
    for (const StrandedRequest &it : items) {
        // A retried request gets a fresh serving budget on the new
        // chip; the fleet ledger still measures its SLA from the
        // original arrival.
        const uint64_t lid = core.injectArrival(
            it.when, it.tenant,
            cell.cfg.serve.tenants[it.tenant].deadline_ns);
        adoptions.push_back({idx, lid, it.origin_chip, it.origin_id,
                             it.origin_arrival_ns, it.attempts});
    }
}

void
ChipHost::buildTrainingData()
{
    Rng rng(kTrainingDataSeed);
    train_data = makeSpirals(rng, kTrainingSamplesPerClass);
}

void
ChipHost::trainTick()
{
    if (status.failed_stop || !trainer_active)
        return;
    const TrainingTenantConfig &t = cell.cfg.training;
    trainer->runSteps(train_data, kTrainingBatchSize, 1);
    const bool is_home = idx == t.home_chip;
    if (is_home &&
        trainer->step() % uint64_t(t.checkpoint_interval) == 0)
        replicate();
    if (trainer->step() < t.steps)
        dom.scheduleIn(t.step_ns, ServeDomainCore::kPriOverlay,
                       [this] { trainTick(); });
    else
        trainer_active = false; // done
}

void
ChipHost::replicate()
{
    const TrainingTenantConfig &t = cell.cfg.training;
    const TrainerCheckpoint ckpt = trainer->checkpointNow();
    std::vector<uint8_t> bytes = serializeCheckpoint(ckpt);
    // Checkpoint payloads ride the same fabric as control messages,
    // charged byte-by-byte at the configured bandwidth.
    const int64_t delay =
        fabricDelayNs(cell.cfg.num_chips, idx, t.replica_chip) +
        cell.payloadNs(bytes.size());
    ++checkpoints_replicated;
    dom.send(cell.chip_dom[t.replica_chip], dom.now() + delay,
             ServeDomainCore::kPriOverlay,
             [r = cell.chips[t.replica_chip].get(),
              moved = std::move(bytes)] { r->onReplicaCheckpoint(moved); });
}

void
ChipHost::onReplicaCheckpoint(std::vector<uint8_t> bytes)
{
    if (status.failed_stop)
        return;
    replica_ckpt = std::move(bytes);
}

void
ChipHost::adoptTraining()
{
    if (status.failed_stop || trainer)
        return;
    const TrainingTenantConfig &t = cell.cfg.training;
    trainer = std::make_unique<ResilientTrainer>(t.model,
                                                 t.resilience);
    buildTrainingData();
    if (!replica_ckpt.empty()) {
        const TrainerCheckpoint ckpt =
            deserializeCheckpoint(replica_ckpt);
        trainer->rollbackTo(ckpt);
        restore_step = ckpt.step;
    }
    // No replicated checkpoint yet: restart from step 0 — every step
    // the home chip completed is rework.
    restored = true;
    if (trainer->step() < t.steps) {
        trainer_active = true;
        dom.scheduleIn(t.step_ns, ServeDomainCore::kPriOverlay,
                       [this] { trainTick(); });
    }
}

void
RouterHost::onManifest(size_t chip,
                       std::vector<StrandedRequest> manifest)
{
    chips[chip].manifest = std::move(manifest);
    chips[chip].manifest_seen = true;
    tryProcess(chip);
}

void
RouterHost::onCheck()
{
    const int64_t now = dom.now();
    const int64_t window =
        int64_t(kHeartbeatMissThreshold) * kHeartbeatIntervalNs;
    const size_t n = chips.size();
    for (size_t chip = 0; chip < n; ++chip) {
        ChipView &v = chips[chip];
        if (v.declared() || now - v.last_heard < window)
            continue;
        v.detect_ns = now;
        tryProcess(chip);
        const TrainingTenantConfig &t = cell.cfg.training;
        if (t.enabled && chip == t.home_chip &&
            cell.cfg.policy == FleetPolicy::FailoverRestore)
            dom.send(cell.chip_dom[t.replica_chip],
                     now + fabricDelayNs(n, n, t.replica_chip),
                     ServeDomainCore::kPriOverlay,
                     [r = cell.chips[t.replica_chip].get()] {
                         r->adoptTraining();
                     });
    }
    const int64_t next = now + kHeartbeatIntervalNs;
    if (next <= cell.stop_ns)
        dom.schedule(next, kPriCheck, [this] { onCheck(); });
}

/**
 * Draw one retry token from @p target's bucket; true when the retry
 * may dispatch. A dry bucket converts the retry into an accounted
 * shed — the caller records the denial — so a mass failure cannot
 * amplify into a retry storm against the survivor chip.
 */
bool
RouterHost::budgetAllow(size_t target)
{
    const RetryBudgetConfig &b = cell.cfg.failover.budget;
    if (!b.enabled)
        return true;
    ChipView &v = chips[target];
    const int64_t now = dom.now();
    v.tokens = std::min(b.burst,
                        v.tokens + double(now - v.tokens_ns) * 1e-9 *
                                       b.tokens_per_s);
    v.tokens_ns = now;
    if (v.tokens < 1.0)
        return false;
    v.tokens -= 1.0;
    return true;
}

size_t
RouterHost::successor(size_t from) const
{
    const size_t n = chips.size();
    for (size_t k = 1; k < n; ++k) {
        const size_t chip = (from + k) % n;
        if (!chips[chip].declared())
            return chip;
    }
    return SIZE_MAX; // nobody the router believes alive
}

void
RouterHost::dispatchTo(size_t target,
                       std::vector<StrandedRequest> items)
{
    if (items.empty())
        return;
    const size_t n = chips.size();
    dom.send(cell.chip_dom[target], dom.now() + fabricDelayNs(n, n, target),
             ServeDomainCore::kPriOverlay,
             [h = cell.chips[target].get(),
              moved = std::move(items)] { h->onAdopt(moved); });
}

/**
 * Dispatch a dead chip's manifest once the router holds both it and
 * the declaration. Each arrives once per chip (a chip halts at most
 * once, and a declared chip is never swept again), so this runs at
 * most twice per chip and only the second call can act.
 */
void
RouterHost::tryProcess(size_t chip)
{
    ChipView &v = chips[chip];
    if (!v.declared() || !v.manifest_seen)
        return;
    std::vector<StrandedRequest> items = std::exchange(v.manifest, {});
    if (cell.cfg.policy == FleetPolicy::NoFailover)
        return; // written off wholesale
    const size_t target = successor(chip);
    if (target == SIZE_MAX)
        return;
    const int64_t t_detect = v.detect_ns;
    size_t kept = 0;
    for (StrandedRequest &s : items) {
        // Traffic arriving after detection is a clean redirect; the
        // rest was stranded inside the failure and (under
        // FailoverRestore) retries once its per-request timeout has
        // expired, plus backoff per hop already consumed.
        const bool future = !s.admitted && s.when >= t_detect;
        if (cell.cfg.policy == FleetPolicy::DrainOnly && !future)
            continue;
        if (++s.attempts > kMaxRetries)
            continue;
        // Clean redirects of post-detection traffic ride free; only
        // stranded-request retries draw from the target's budget.
        if (!future && !budgetAllow(target)) {
            denials.push_back({s.origin_chip, s.origin_id, dom.now()});
            continue;
        }
        if (!future)
            s.when = std::max(t_detect, s.origin_arrival_ns +
                                            kRequestTimeoutNs) +
                     int64_t(s.attempts) * kRetryBackoffNs;
        items[kept++] = s;
    }
    items.resize(kept);
    dispatchTo(target, std::move(items));
}

void
RouterHost::onBounce(size_t from, std::vector<StrandedRequest> items)
{
    const size_t target = successor(from);
    if (target == SIZE_MAX)
        return;
    size_t kept = 0;
    for (StrandedRequest &s : items) {
        if (++s.attempts > kMaxRetries) // the bounced hop was consumed
            continue;
        if (!budgetAllow(target)) {
            denials.push_back({s.origin_chip, s.origin_id, dom.now()});
            continue;
        }
        s.when = std::max(s.when, dom.now()) + kRetryBackoffNs;
        items[kept++] = s;
    }
    items.resize(kept);
    dispatchTo(target, std::move(items));
}

FleetCell::FleetCell(DesEngine &eng, const FleetSim &fleet_sim,
                     size_t cell_index)
    : sim(fleet_sim), cfg(fleet_sim.config()), engine(eng)
{
    const size_t n = cfg.num_chips;
    const std::string prefix =
        "fleet" + std::to_string(cell_index) + ".";

    chip_dom.reserve(n);
    for (size_t i = 0; i < n; ++i)
        chip_dom.push_back(
            engine.addDomain(prefix + "chip" + std::to_string(i)));
    router_dom = engine.addDomain(prefix + "router");

    // Each channel's lookahead is the fabric latency of its direction
    // (chips at ring nodes 0..N-1, router at node N).
    for (size_t i = 0; i < n; ++i) {
        engine.connect(chip_dom[i], router_dom, fabricDelayNs(n, i, n));
        engine.connect(router_dom, chip_dom[i], fabricDelayNs(n, n, i));
    }
    if (cfg.training.enabled)
        engine.connect(chip_dom[cfg.training.home_chip],
                       chip_dom[cfg.training.replica_chip],
                       fabricDelayNs(n, cfg.training.home_chip,
                                     cfg.training.replica_chip));

    stop_ns = cfg.serve.horizon_ns +
              int64_t(kHeartbeatMissThreshold) * kHeartbeatIntervalNs +
              maxFabricDelayNs(n) + kHeartbeatIntervalNs;

    router = std::make_unique<RouterHost>(
        *this, engine.domain(router_dom), n, cfg.failover.budget.burst);
    for (size_t i = 0; i < n; ++i) {
        chips.push_back(std::make_unique<ChipHost>(
            *this, i, engine.domain(chip_dom[i]),
            fleet_sim.chipSim(i)));
        ChipHost &host = *chips.back();
        host.core.start();
        // Pretend a boot heartbeat is already in flight so a chip
        // failing before its first one is still detected on time.
        router->chips[i].last_heard = fabricDelayNs(n, i, n);
        host.dom.schedule(0, ServeDomainCore::kPriOverlay,
                          [h = &host] { h->heartbeat(); });
    }
    for (const PlannedFailure &f : fleet_sim.plan()) {
        ChipHost &host = *chips[f.chip];
        host.status.planned_ns = f.time_ns;
        host.dom.schedule(f.time_ns, ServeDomainCore::kPriOverlay,
                          [h = &host, degrade = f.degrade] {
                              h->onFailure(degrade);
                          });
    }
    engine.domain(router_dom)
        .schedule(kHeartbeatIntervalNs, RouterHost::kPriCheck,
                  [r = router.get()] { r->onCheck(); });

    if (cfg.training.enabled) {
        ChipHost &home = *chips[cfg.training.home_chip];
        home.trainer = std::make_unique<ResilientTrainer>(
            cfg.training.model, cfg.training.resilience);
        home.buildTrainingData();
        home.trainer_active = true;
        home.dom.schedule(cfg.training.step_ns,
                          ServeDomainCore::kPriOverlay,
                          [h = &home] { h->trainTick(); });
    }
}

/** Assemble one cell's FleetResult after the engine ran dry. */
FleetResult
collectCell(FleetCell &cell, uint64_t windows)
{
    const ClusterConfig &cfg = cell.cfg;
    FleetResult out;
    out.windows = windows;
    out.chips.reserve(cfg.num_chips);
    out.status.reserve(cfg.num_chips);
    for (size_t i = 0; i < cfg.num_chips; ++i) {
        ChipHost &host = *cell.chips[i];
        out.chips.push_back(host.core.finish());
        ChipStatus st = host.status;
        st.detect_ns = cell.router->chips[i].detect_ns;
        out.status.push_back(st);
        out.adoptions.insert(out.adoptions.end(),
                             host.adoptions.begin(),
                             host.adoptions.end());
    }
    out.budget_denials = std::move(cell.router->denials);

    TrainingOutcome &t = out.training;
    t.enabled = cfg.training.enabled;
    if (t.enabled) {
        ChipHost &home = *cell.chips[cfg.training.home_chip];
        ChipHost &rep = *cell.chips[cfg.training.replica_chip];
        t.steps_target = cfg.training.steps;
        t.home_failed = home.status.failed_stop;
        t.steps_at_death = home.steps_at_death;
        t.restored = rep.restored;
        t.restore_step = rep.restore_step;
        t.checkpoints_replicated = home.checkpoints_replicated;
        ResilientTrainer *survivor = nullptr;
        if (!home.status.failed_stop && home.trainer)
            survivor = home.trainer.get();
        else if (rep.restored && !rep.status.failed_stop &&
                 rep.trainer)
            survivor = rep.trainer.get();
        if (survivor) {
            t.steps_completed = survivor->step();
            t.final_checkpoint =
                serializeCheckpoint(survivor->checkpointNow());
        }
        if (t.home_failed)
            t.lost_steps = t.restored
                               ? t.steps_at_death - t.restore_step
                               : t.steps_at_death;
    }
    return out;
}

} // namespace

FleetSim::FleetSim(const ChipConfig &chip, const ClusterConfig &cfg)
    // Validate before any member does real work; the comma operator
    // keeps the always-on checks ahead of the field copies.
    : chip_((validateClusterConfig(cfg), validateChipConfig(chip),
             chip)),
      cfg_(cfg), plan_(buildFailurePlan(cfg_)),
      degraded_chip_(degradeChip(chip_, cfg_.failures.degrade_dead_cores))
{
    sims_.reserve(cfg_.num_chips);
    for (size_t i = 0; i < cfg_.num_chips; ++i)
        sims_.push_back(std::make_unique<ServeSim>(
            chip_, shardServeConfig(cfg_, i)));

    // The degraded-mode table: the same chip with the configured
    // dead-core mask. Shard tables are identical across chips (every
    // shard carries the full tenant list), so one degraded table
    // serves the whole fleet.
    const ServeSim &shard0 = *sims_[0];
    std::vector<Network> nets;
    nets.reserve(shard0.networkNames().size());
    for (const std::string &name : shard0.networkNames())
        nets.push_back(benchmarkByName(name));
    degraded_table_ = std::make_unique<LatencyTable>(
        degraded_chip_, nets, tablePrecisions(shard0.config()),
        cfg_.serve.batcher.max_batch, cfg_.serve.fault);
}

const ServeSim &
FleetSim::chipSim(size_t chip) const
{
    RAPID_CHECK_ARG(chip < sims_.size(), "chipSim: chip ", chip,
                    " out of range for ", sims_.size(), " chips");
    return *sims_[chip];
}

FleetResult
FleetSim::run() const
{
    return runFleetBatch({this}).front();
}

std::vector<FleetResult>
runFleetBatch(const std::vector<const FleetSim *> &sims)
{
    DesEngine engine;
    std::vector<std::unique_ptr<FleetCell>> cells;
    cells.reserve(sims.size());
    for (size_t i = 0; i < sims.size(); ++i) {
        RAPID_CHECK_ARG(sims[i] != nullptr,
                        "runFleetBatch: null fleet at index ", i);
        cells.push_back(
            std::make_unique<FleetCell>(engine, *sims[i], i));
    }
    engine.run();
    std::vector<FleetResult> out;
    out.reserve(cells.size());
    for (auto &cell : cells)
        out.push_back(collectCell(*cell, engine.windows()));
    return out;
}

} // namespace rapid
