#include "cluster/cluster_config.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/random.hh"

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

/// Fabric message cost: a software/RPC floor plus a cost per ring hop.
constexpr int64_t kFabricBaseNs = 100'000;
constexpr int64_t kFabricPerHopNs = 10'000;

/// Seeded strikes land uniformly inside this fraction of the horizon,
/// so detection and drain always have room on both sides.
constexpr double kStrikeWindowLo = 0.1;
constexpr double kStrikeWindowHi = 0.9;

} // namespace

int64_t
fabricDelayNs(size_t num_chips, size_t src, size_t dst)
{
    RAPID_CHECK_ARG(src <= num_chips && dst <= num_chips && src != dst,
                    "fabricDelayNs: bad ring endpoints ", src, " -> ",
                    dst, " on ", num_chips, " chips");
    // Each message goes the shorter way round the ring of chips plus
    // the router.
    const size_t nodes = num_chips + 1;
    const size_t clockwise = (dst + nodes - src) % nodes;
    const size_t hops = std::min(clockwise, nodes - clockwise);
    return kFabricBaseNs + int64_t(hops) * kFabricPerHopNs;
}

int64_t
maxFabricDelayNs(size_t num_chips)
{
    // The shortest-direction hop count is at most half the ring.
    const int64_t max_hops = int64_t((num_chips + 1) / 2);
    return kFabricBaseNs + max_hops * kFabricPerHopNs;
}

void
validateClusterConfig(const ClusterConfig &cfg)
{
    RAPID_CHECK_ARG(cfg.num_chips >= 1,
                    "ClusterConfig.num_chips must be >= 1");
    // Bound the chip count before any hop arithmetic, so that
    // num_chips + 1 (chips plus the router) and the hop-delay
    // products cannot wrap.
    RAPID_CHECK_CONFIG(
        cfg.num_chips < std::numeric_limits<unsigned>::max(),
        "ClusterConfig.num_chips ", cfg.num_chips,
        " does not fit the fleet ring with its router");
    // The detection window must be wider than one heartbeat period
    // plus the worst-case delivery delay, or a live chip whose
    // heartbeat is merely in flight would be declared dead. The
    // delay grows with the ring, so this caps the fleet size.
    const int64_t window =
        int64_t(kHeartbeatMissThreshold) * kHeartbeatIntervalNs;
    const int64_t worst =
        kHeartbeatIntervalNs + maxFabricDelayNs(cfg.num_chips);
    RAPID_CHECK_CONFIG(window > worst,
                       "heartbeat detection window ", window,
                       " ns must exceed one period plus the "
                       "worst-case fabric delay on ", cfg.num_chips,
                       " chips (", worst,
                       " ns): a live chip's in-flight heartbeat "
                       "would be a false positive");
    validateServeConfig(cfg.serve);

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
            const double lo =
                kStrikeWindowLo * double(cfg.serve.horizon_ns);
            const double hi =
                kStrikeWindowHi * double(cfg.serve.horizon_ns);
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
