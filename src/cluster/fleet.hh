/**
 * @file
 * The fleet simulator: N ServeDomainCore-backed chips and one global
 * SLA router as domains of a DesEngine, wired with connect() channels
 * whose lookahead is the ring-hop fabric latency (chips at ring nodes
 * 0..N-1, router at node N). The serving data plane stays entirely
 * chip-local — each chip generates and serves its own tenant shard —
 * while the router runs the control plane: heartbeat liveness,
 * death-manifest collection, drain/failover dispatch, and training
 * adoption.
 *
 * Failure protocol (all times on the shared virtual clock):
 *
 *  1. Every chip heartbeats the router every kHeartbeatIntervalNs
 *     (5 ms); the router sweeps liveness at the same period and
 *     declares a chip dead once now - last_heard >=
 *     kHeartbeatMissThreshold (3) periods (the config validator
 *     guarantees a live chip can never trip this).
 *  2. A fail-stop chip halts its serving core at the failure instant;
 *     every unfinished request becomes `failed` locally and is sent
 *     to the router as an orphan manifest (the front-end's request
 *     ledger, transferred lazily). A degraded chip instead swaps its
 *     latency table for the degraded-chip table and keeps serving
 *     and heartbeating.
 *  3. When a chip is both declared dead and its manifest has arrived,
 *     the router dispatches per policy: NoFailover writes everything
 *     off; DrainOnly re-routes only traffic arriving after detection
 *     to the ring successor; FailoverRestore also retries stranded
 *     requests at max(detection, arrival + 20 ms timeout) +
 *     attempts * 1 ms backoff, each request taking at most 3
 *     failover hops (a hop onto a chip that died meanwhile bounces
 *     back and consumes another hop).
 *  4. Adopted requests are fresh records on the target chip
 *     (injectArrival), linked to their origin by AdoptionMeta; the
 *     fleet ledger (fleet_metrics) resolves every origin request to
 *     exactly one terminal record, closing the global accounting.
 *  5. The training tenant steps on its home chip every step_ns and
 *     replicates serialized checkpoints to its replica chip with a
 *     payload-size-dependent fabric delay. Under FailoverRestore the
 *     router tells the replica to adopt on home death: it restores
 *     the latest replicated checkpoint and replays to the target
 *     step count, bit-exact versus an unfailed run.
 *
 * Determinism: every decision runs inside domain events whose order
 * is the engine's stable (time, lane, seq) order, all randomness is
 * drawn from mixSeed streams at config time, and cross-domain effects
 * travel only through channels — so fleet results are bit-identical
 * at any --threads N, which the schedule-fuzz tests pin.
 */

#ifndef RAPID_CLUSTER_FLEET_HH
#define RAPID_CLUSTER_FLEET_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "cluster/cluster_config.hh"
#include "serve/latency_table.hh"
#include "serve/server_sim.hh"

namespace rapid {

/** Links an adopted (failover) request record to its origin. */
struct AdoptionMeta
{
    size_t host_chip = 0;  ///< chip holding the new record
    uint64_t local_id = 0; ///< record id on host_chip
    size_t origin_chip = 0;
    uint64_t origin_id = 0;
    int64_t origin_arrival_ns = 0;
    int attempts = 0; ///< failover hops consumed (1 = first)
};

/** Per-chip outcome of one fleet run. */
struct ChipStatus
{
    int64_t planned_ns = -1;
    bool failed_stop = false; ///< chip actually halted
    bool degraded = false;    ///< chip actually degraded
    int64_t detect_ns = -1;   ///< router declared dead (fail-stop)
    uint64_t heartbeats_sent = 0;
    uint64_t orphans = 0; ///< requests stranded by the halt
};

/** Outcome of the co-scheduled training tenant. */
struct TrainingOutcome
{
    bool enabled = false;
    bool home_failed = false;
    bool restored = false; ///< replica adopted and resumed
    uint64_t steps_target = 0;
    uint64_t steps_completed = 0; ///< by the surviving trainer
    uint64_t steps_at_death = 0;  ///< home progress when it died
    uint64_t restore_step = 0;    ///< checkpoint step resumed from
    uint64_t lost_steps = 0;      ///< rework replayed on the replica
    uint64_t checkpoints_replicated = 0;
    /// Serialized final checkpoint of the surviving trainer; empty
    /// when training was lost (home died without restore).
    std::vector<uint8_t> final_checkpoint;
};

/** One retry converted to an accounted shed by a dry retry budget
 *  (cfg.failover.budget): the origin request takes no further hops. */
struct RetryDenial
{
    size_t origin_chip = 0;
    uint64_t origin_id = 0;
    int64_t time_ns = 0; ///< router decision instant
};

/** Raw outcome of one fleet run; fleet_metrics aggregates it. */
struct FleetResult
{
    std::vector<ServeResult> chips; ///< chip-local serving results
    std::vector<ChipStatus> status;
    /// Every failover adoption, in (host chip, local id) order.
    std::vector<AdoptionMeta> adoptions;
    /// Retries the budget denied, in router decision order (empty
    /// when the budget is off).
    std::vector<RetryDenial> budget_denials;
    TrainingOutcome training;
    uint64_t windows = 0; ///< engine windows (determinism metric)
};

/**
 * The fleet simulator: builds one ServeSim per chip from its tenant
 * shard (plus the degraded-mode latency table) at construction, then
 * runs the failure/failover protocol on the DES engine per run().
 */
class FleetSim
{
  public:
    /** Validates the config and compiles every chip's latency
     *  tables. Throws rapid::Error on an invalid scenario. */
    FleetSim(const ChipConfig &chip, const ClusterConfig &cfg);

    const ClusterConfig &config() const { return cfg_; }
    const std::vector<PlannedFailure> &plan() const { return plan_; }
    /** The chip's shard simulator (what an independent run uses). */
    const ServeSim &chipSim(size_t chip) const;
    /** The degraded-mode latency table shared by every chip. */
    const LatencyTable &degradedTable() const
    {
        return *degraded_table_;
    }

    /** Run the fleet to drain (single engine; use runFleetBatch to
     *  advance many fleets in parallel). */
    FleetResult run() const;

  private:
    friend std::vector<FleetResult> runFleetBatch(
        const std::vector<const FleetSim *> &sims);

    ChipConfig chip_;
    ClusterConfig cfg_;
    std::vector<PlannedFailure> plan_;
    std::vector<std::unique_ptr<ServeSim>> sims_; ///< per chip
    ChipConfig degraded_chip_;
    std::unique_ptr<LatencyTable> degraded_table_;
};

/**
 * Run many independent fleets as domain groups of one DesEngine:
 * cells share the conservative windows but exchange no messages, so
 * the whole batch advances in parallel on the shared ThreadPool and
 * every entry is bit-identical to sims[i]->run() at any --threads N.
 * Throws rapid::Error on a null entry.
 */
std::vector<FleetResult> runFleetBatch(
    const std::vector<const FleetSim *> &sims);

} // namespace rapid

#endif // RAPID_CLUSTER_FLEET_HH
