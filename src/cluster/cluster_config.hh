/**
 * @file
 * Configuration of a simulated RaPiD serving datacenter: N ServeSim
 * chips behind a global SLA router, a heartbeat failure detector, a
 * drain/failover policy, a ring-fabric latency model, a deterministic
 * chip-failure plan, and an optional co-scheduled training tenant
 * whose checkpoints replicate to a peer chip.
 *
 * Tenant sharding and model replication: shardServeConfig(cfg, chip)
 * keeps the *global* tenant list on every chip (so every chip's
 * latency table covers every tenant's network and quality floor —
 * the model-replication assumption that makes any chip a valid
 * failover target) but zeroes arrival_rps for tenants whose home is
 * another chip (home = tenant index mod num_chips). Because the
 * per-tenant arrival streams are seeded by (serve.seed, tenant
 * index), the fleet at failure rate 0 serves exactly the global
 * workload partitioned by home chip, and each chip is provably an
 * independent ServeSim run of its shard.
 */

#ifndef RAPID_CLUSTER_CLUSTER_CONFIG_HH
#define RAPID_CLUSTER_CLUSTER_CONFIG_HH

#include <cstdint>
#include <vector>

#include "func/trainer.hh"
#include "resilience/resilient_trainer.hh"
#include "serve/serve_config.hh"

namespace rapid {

/** What the fleet does about a dead chip. */
enum class FleetPolicy
{
    /// Detect only: every stranded and future request of a dead chip
    /// is lost (the collapse baseline).
    NoFailover,
    /// Re-route the dead chip's future traffic to a live successor;
    /// requests already admitted or in the detection blackout are
    /// lost, and training state is not restored.
    DrainOnly,
    /// Drain plus bounded retry of stranded requests (per-request
    /// timeout + backoff) and checkpoint-replica training restore.
    FailoverRestore,
};

const char *fleetPolicyName(FleetPolicy policy);

/// Period of each chip's heartbeat to the router (and of the
/// router's liveness sweep).
inline constexpr int64_t kHeartbeatIntervalNs = 5'000'000;
/// Missed intervals before the router declares a chip dead. The
/// detection window must stay wider than one heartbeat period plus
/// the worst-case fabric delay, which caps the fleet size
/// (validated).
inline constexpr int kHeartbeatMissThreshold = 3;

/**
 * Fleet-level retry budget: a token bucket per failover target chip.
 * Every stranded-retry or bounce re-dispatch aimed at a chip consumes
 * one token from that chip's bucket; when the bucket is dry the retry
 * converts to an accounted shed (FleetLedger.shed_budget) instead of
 * joining the storm hammering the survivor. Buckets refill on the
 * virtual clock at tokens_per_s, capped at burst. Defaults off —
 * bit-identical to the unbudgeted router.
 */
struct RetryBudgetConfig
{
    bool enabled = false;
    double tokens_per_s = 50.0;
    double burst = 10.0;
};

/** Failover knobs; the retry timeout, backoff and hop limit are fixed
 *  (fleet.hh). */
struct FailoverConfig
{
    RetryBudgetConfig budget;
};

/** One scripted chip transition for tests and kill-sequence fuzzing. */
struct ScriptedFailure
{
    size_t chip = 0;
    int64_t time_ns = 0;  ///< must be positive and inside the horizon
    bool degrade = false; ///< degraded-mode transition vs fail-stop
};

/** Deterministic seeded failure plan: at most one transition per
 *  chip, drawn at config time so every run of the same config sees
 *  the same deaths at any thread count. */
struct FailureModel
{
    /// Per-chip probability of a failure within the serve horizon.
    double rate = 0.0;
    /// Of the failing chips, the fraction that degrade (dead cores /
    /// MPE rows via the existing chip masks) instead of fail-stop.
    double degraded_fraction = 0.0;
    /// Lowest cores masked dead on a degrade (no MPE rows die).
    unsigned degrade_dead_cores = 1;
    uint64_t seed = 0xfa11edULL;
    /// When non-empty, overrides the seeded draw entirely.
    std::vector<ScriptedFailure> scripted;
};

/** The co-scheduled training tenant: lives on home_chip, replicates
 *  every checkpoint_interval-step snapshot to replica_chip, and under
 *  FailoverRestore resumes there bit-exactly after a home death. It
 *  trains on a fixed 256-sample spiral set (data seed 7) in
 *  minibatches of 32. */
struct TrainingTenantConfig
{
    bool enabled = false;
    size_t home_chip = 0;
    size_t replica_chip = 1;
    MlpConfig model;
    ResilienceConfig resilience;
    /// Virtual time per optimizer step on the fleet clock.
    int64_t step_ns = 2'000'000;
    uint64_t steps = 200;
    /// Steps between replicated checkpoints.
    int checkpoint_interval = 25;
};

/** A full fleet scenario. */
struct ClusterConfig
{
    size_t num_chips = 4;
    /// Global serving scenario; tenants shard across chips by index
    /// mod num_chips (see shardServeConfig).
    ServeConfig serve;
    FleetPolicy policy = FleetPolicy::FailoverRestore;
    FailoverConfig failover;
    FailureModel failures;
    TrainingTenantConfig training;
};

/**
 * Throw rapid::Error (InvalidArgument / InvalidConfig) on a
 * non-runnable fleet: zero chips, more chips than the fleet ring
 * holds, a detection window narrower than one heartbeat period plus
 * the worst-case fabric delay (more than 1,978 chips), bad retry
 * budget knobs, failure rates outside [0, 1], scripted failures out
 * of range or duplicated per chip, or a training tenant whose
 * home/replica placement is invalid.
 */
void validateClusterConfig(const ClusterConfig &cfg);

/** Per-chip shard of the global serving scenario (see file docs). */
ServeConfig shardServeConfig(const ClusterConfig &cfg, size_t chip);

/** One planned chip transition of a run. */
struct PlannedFailure
{
    size_t chip = 0;
    int64_t time_ns = 0;
    bool degrade = false;
};

/**
 * The deterministic failure plan of @p cfg: the scripted list when
 * set, otherwise per-chip seeded draws (fail with probability rate,
 * uniformly inside the middle [10%, 90%] of the horizon, degrade with
 * probability degraded_fraction). Sorted by (time, chip); at most one
 * entry per chip.
 */
std::vector<PlannedFailure> buildFailurePlan(const ClusterConfig &cfg);

/**
 * Chip-to-chip/router fabric latency model: the chips (nodes 0..N-1)
 * and the router (node N) sit on one bidirectional ring, and each
 * message takes the shorter way round it, as RaPiD's ring routes:
 * min(d, N + 1 - d) hops for nodes d apart. A message costs a
 * 100 us software/RPC floor plus a fixed 10 us per hop; the
 * per-channel DES lookahead is exactly this message latency.
 * Checkpoint payloads add their bytes at a fixed 128 Gbit/s.
 *
 * maxFabricDelayNs is the worst-case one-way latency between any two
 * of the num_chips + 1 ring nodes — the heartbeat feasibility bound
 * and the channel-lookahead ceiling.
 */
int64_t maxFabricDelayNs(size_t num_chips);

/** One-way fabric latency between ring nodes @p src and @p dst
 *  (chips at 0..num_chips-1, router at num_chips). */
int64_t fabricDelayNs(size_t num_chips, size_t src, size_t dst);

} // namespace rapid

#endif // RAPID_CLUSTER_CLUSTER_CONFIG_HH
