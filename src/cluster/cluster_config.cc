#include "cluster/cluster_config.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/random.hh"
#include "interconnect/ring.hh"

namespace rapid {

const char *
fleetPolicyName(FleetPolicy policy)
{
    switch (policy) {
      case FleetPolicy::NoFailover:
        return "no-failover";
      case FleetPolicy::DrainOnly:
        return "drain-only";
      case FleetPolicy::FailoverRestore:
        return "failover-restore";
    }
    return "?";
}

namespace {

/// Fabric message cost per ring hop, on top of FabricConfig::base_ns.
constexpr int64_t kFabricPerHopNs = 10'000;

/** The fleet's ring geometry: chips at 0..N-1, router at node N. */
RingConfig
fleetRing(const FabricConfig &fabric, size_t num_chips)
{
    RingConfig ring;
    ring.num_nodes = unsigned(num_chips) + 1;
    ring.bytes_per_flit = fabric.bytes_per_flit;
    return ring;
}

} // namespace

int64_t
fabricDelayNs(const FabricConfig &fabric, size_t num_chips, size_t src,
              size_t dst)
{
    RAPID_CHECK_ARG(src <= num_chips && dst <= num_chips && src != dst,
                    "fabricDelayNs: bad ring endpoints ", src, " -> ",
                    dst, " on ", num_chips, " chips");
    const RingNetwork ring(fleetRing(fabric, num_chips));
    const std::vector<unsigned> dsts{unsigned(dst)};
    const RingDir dir = ring.chooseDirection(unsigned(src), dsts);
    const unsigned hops =
        ring.hopDistance(unsigned(src), unsigned(dst), dir);
    return fabric.base_ns + int64_t(hops) * kFabricPerHopNs;
}

int64_t
maxFabricDelayNs(const FabricConfig &fabric, size_t num_chips)
{
    // The shortest-direction hop count is at most half the ring.
    const int64_t max_hops = int64_t((num_chips + 1) / 2);
    return fabric.base_ns + max_hops * kFabricPerHopNs;
}

void
validateClusterConfig(const ClusterConfig &cfg)
{
    RAPID_CHECK_ARG(cfg.num_chips >= 1,
                    "ClusterConfig.num_chips must be >= 1");
    validateServeConfig(cfg.serve);

    RAPID_CHECK_CONFIG(cfg.heartbeat.interval_ns > 0,
                       "heartbeat interval_ns must be positive, got ",
                       cfg.heartbeat.interval_ns);
    RAPID_CHECK_CONFIG(cfg.heartbeat.miss_threshold >= 2,
                       "heartbeat miss_threshold must be >= 2 (one "
                       "period always elapses between receipts), got ",
                       cfg.heartbeat.miss_threshold);

    RAPID_CHECK_CONFIG(cfg.failover.request_timeout_ns > 0,
                       "failover request_timeout_ns must be positive, "
                       "got ", cfg.failover.request_timeout_ns);
    RAPID_CHECK_CONFIG(cfg.failover.retry_backoff_ns >= 0,
                       "failover retry_backoff_ns must be >= 0, got ",
                       cfg.failover.retry_backoff_ns);
    RAPID_CHECK_CONFIG(cfg.failover.max_retries >= 1,
                       "failover max_retries must be >= 1, got ",
                       cfg.failover.max_retries);
    if (cfg.failover.budget.enabled) {
        RAPID_CHECK_CONFIG(
            std::isfinite(cfg.failover.budget.tokens_per_s) &&
                cfg.failover.budget.tokens_per_s > 0,
            "retry budget tokens_per_s must be positive, got ",
            cfg.failover.budget.tokens_per_s);
        RAPID_CHECK_CONFIG(std::isfinite(cfg.failover.budget.burst) &&
                               cfg.failover.budget.burst >= 1.0,
                           "retry budget burst must be >= 1 (a dry "
                           "bucket could never retry), got ",
                           cfg.failover.budget.burst);
    }

    RAPID_CHECK_CONFIG(cfg.fabric.base_ns > 0,
                       "fabric base_ns must be positive (channels "
                       "need strictly positive lookahead), got ",
                       cfg.fabric.base_ns);
    RAPID_CHECK_CONFIG(cfg.fabric.bytes_per_flit >= 1,
                       "fabric bytes_per_flit must be >= 1");

    // The detection window must be wider than one heartbeat period
    // plus the worst-case delivery delay, or a live chip whose
    // heartbeat is merely in flight would be declared dead.
    const int64_t window = int64_t(cfg.heartbeat.miss_threshold) *
                           cfg.heartbeat.interval_ns;
    const int64_t worst = cfg.heartbeat.interval_ns +
                          maxFabricDelayNs(cfg.fabric, cfg.num_chips);
    RAPID_CHECK_CONFIG(window > worst,
                       "heartbeat detection window ", window,
                       " ns must exceed one period plus the "
                       "worst-case fabric delay (", worst,
                       " ns): a live chip's in-flight heartbeat "
                       "would be a false positive");

    RAPID_CHECK_CONFIG(std::isfinite(cfg.failures.rate) &&
                           cfg.failures.rate >= 0.0 &&
                           cfg.failures.rate <= 1.0,
                       "failure rate must be in [0, 1], got ",
                       cfg.failures.rate);
    RAPID_CHECK_CONFIG(std::isfinite(cfg.failures.degraded_fraction) &&
                           cfg.failures.degraded_fraction >= 0.0 &&
                           cfg.failures.degraded_fraction <= 1.0,
                       "degraded_fraction must be in [0, 1], got ",
                       cfg.failures.degraded_fraction);
    RAPID_CHECK_CONFIG(std::isfinite(cfg.failures.strike_window_lo) &&
                           std::isfinite(cfg.failures.strike_window_hi) &&
                           cfg.failures.strike_window_lo >= 0.0 &&
                           cfg.failures.strike_window_lo <
                               cfg.failures.strike_window_hi &&
                           cfg.failures.strike_window_hi <= 1.0,
                       "failure strike window must satisfy 0 <= lo < "
                       "hi <= 1, got [", cfg.failures.strike_window_lo,
                       ", ", cfg.failures.strike_window_hi, "]");
    std::vector<bool> seen(cfg.num_chips, false);
    for (const ScriptedFailure &f : cfg.failures.scripted) {
        RAPID_CHECK_CONFIG(f.chip < cfg.num_chips,
                           "scripted failure chip ", f.chip,
                           " out of range for ", cfg.num_chips,
                           " chips");
        RAPID_CHECK_CONFIG(f.time_ns > 0 &&
                               f.time_ns < cfg.serve.horizon_ns,
                           "scripted failure time ", f.time_ns,
                           " must lie strictly inside the horizon (0, ",
                           cfg.serve.horizon_ns, ")");
        RAPID_CHECK_CONFIG(!seen[f.chip],
                           "chip ", f.chip,
                           " has more than one scripted failure");
        seen[f.chip] = true;
    }

    const TrainingTenantConfig &t = cfg.training;
    if (t.enabled) {
        RAPID_CHECK_CONFIG(cfg.num_chips >= 2,
                           "a replicated training tenant needs at "
                           "least 2 chips, got ", cfg.num_chips);
        RAPID_CHECK_CONFIG(t.home_chip < cfg.num_chips &&
                               t.replica_chip < cfg.num_chips,
                           "training home/replica chip out of range");
        RAPID_CHECK_CONFIG(t.home_chip != t.replica_chip,
                           "training replica must differ from its "
                           "home chip ", t.home_chip);
        RAPID_CHECK_CONFIG(t.step_ns > 0,
                           "training step_ns must be positive, got ",
                           t.step_ns);
        RAPID_CHECK_CONFIG(t.steps >= 1,
                           "training steps must be >= 1");
        RAPID_CHECK_CONFIG(t.checkpoint_interval >= 1,
                           "training checkpoint_interval must be "
                           ">= 1 (replication cadence), got ",
                           t.checkpoint_interval);
        validateResilienceConfig(t.resilience);
    }
}

ServeConfig
shardServeConfig(const ClusterConfig &cfg, size_t chip)
{
    RAPID_CHECK_ARG(chip < cfg.num_chips, "shardServeConfig: chip ",
                    chip, " out of range for ", cfg.num_chips,
                    " chips");
    ServeConfig shard = cfg.serve;
    for (size_t ti = 0; ti < shard.tenants.size(); ++ti)
        if (ti % cfg.num_chips != chip)
            shard.tenants[ti].arrival_rps = 0.0;
    return shard;
}

std::vector<PlannedFailure>
buildFailurePlan(const ClusterConfig &cfg)
{
    std::vector<PlannedFailure> plan;
    if (!cfg.failures.scripted.empty()) {
        for (const ScriptedFailure &f : cfg.failures.scripted)
            plan.push_back({f.chip, f.time_ns, f.degrade});
    } else if (cfg.failures.rate > 0.0) {
        for (size_t chip = 0; chip < cfg.num_chips; ++chip) {
            Rng rng(mixSeed(cfg.failures.seed, chip));
            if (rng.uniform() >= cfg.failures.rate)
                continue;
            // Strike inside the configured window of the horizon so
            // detection and drain always have room on both sides.
            const double lo = cfg.failures.strike_window_lo *
                              double(cfg.serve.horizon_ns);
            const double hi = cfg.failures.strike_window_hi *
                              double(cfg.serve.horizon_ns);
            const int64_t when =
                std::max<int64_t>(1, int64_t(rng.uniform(lo, hi)));
            const bool degrade =
                rng.uniform() < cfg.failures.degraded_fraction;
            plan.push_back({chip, when, degrade});
        }
    }
    std::sort(plan.begin(), plan.end(),
              [](const PlannedFailure &a, const PlannedFailure &b) {
                  if (a.time_ns != b.time_ns)
                      return a.time_ns < b.time_ns;
                  return a.chip < b.chip;
              });
    return plan;
}

} // namespace rapid
