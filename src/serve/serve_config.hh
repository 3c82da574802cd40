/**
 * @file
 * Configuration of the multi-tenant serving simulator (`rapid_serve`):
 * per-tenant traffic and SLA descriptions, dynamic-batcher knobs, and
 * the precision ladder the SLA router may draw from.
 *
 * Determinism contract: the simulator runs on a virtual clock in
 * nanoseconds derived from PerfModel cycle counts — never wall time —
 * and every random decision derives from (seed, tenant) streams via
 * mixSeed, so a run is bit-identical across processes and at any
 * --threads N.
 */

#ifndef RAPID_SERVE_SERVE_CONFIG_HH
#define RAPID_SERVE_SERVE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "precision/precision.hh"
#include "serve/overload.hh"

namespace rapid {

/** Shape of a tenant's open-loop arrival process. */
enum class ArrivalPattern
{
    Poisson, ///< exponential inter-arrival times
    Bursty,  ///< Poisson burst epochs, geometric burst sizes
};

/** One tenant: a traffic stream against one network with one SLA. */
struct TenantConfig
{
    std::string name;
    /// Benchmark network served to this tenant (benchmarkByName).
    std::string network = "resnet50";
    /// Offered load in requests per second (open loop: arrivals do
    /// not slow down when the server falls behind).
    double arrival_rps = 1000.0;
    ArrivalPattern pattern = ArrivalPattern::Poisson;
    /// Mean burst size (requests per burst epoch) when Bursty.
    double burst_mean = 8.0;
    /// Per-request deadline: arrival-to-completion budget.
    int64_t deadline_ns = 10'000'000;
    /// Quality floor: the router never serves this tenant below this
    /// precision (INT4 accepts the full ladder, FP16 pins DLFloat16).
    Precision min_precision = Precision::INT4;
    /// Brownout priority class (>= 0, higher = more important). The
    /// brownout ladder's shedding rungs drop the lowest class first
    /// and never shed the highest class present in the scenario.
    int priority = 1;
};

/** Dynamic batcher knobs, shared by every (network, precision) queue. */
struct BatcherConfig
{
    /// Largest coalesced batch; also the batch the router's latency
    /// prediction conservatively assumes.
    int64_t max_batch = 8;
    /// Longest a queue head may wait for co-batching before the batch
    /// is forced out (executor permitting).
    int64_t max_wait_ns = 2'000'000;
};

/** A full serving scenario. A tenant with arrival_rps == 0 offers no
 *  local traffic but still shapes the latency table and queue set —
 *  fleet shards use this to replicate every tenant's model on every
 *  chip while arrivals stay partitioned by home chip. */
struct ServeConfig
{
    std::vector<TenantConfig> tenants;
    BatcherConfig batcher;
    /// Precisions the router may choose from, cheapest first. The
    /// router walks this ladder and picks the first entry at or above
    /// the tenant's quality floor whose predicted latency meets the
    /// deadline; if none does, the request is shed at admission.
    std::vector<Precision> ladder{Precision::INT4, Precision::HFP8,
                                  Precision::FP16};
    /// Open-loop generation horizon on the virtual clock; queued work
    /// drains to completion past it.
    int64_t horizon_ns = 1'000'000'000;
    /// Root seed of every per-tenant arrival stream.
    uint64_t seed = 0x5e77eULL;
    /// Fault scenario charged into the latency table via PerfModel:
    /// detected-uncorrected faults lengthen batch latencies through
    /// CycleBreakdown::retry and so surface in the serving tails.
    FaultConfig fault;
    /// Overload control: calibrated admission tier, circuit breakers,
    /// brownout ladder. Defaults off — a default OverloadConfig runs
    /// bit-identical to the pre-overload scheduler, and the serial
    /// reference scheduler in tests/test_serve.cc (the executable
    /// spec) covers only overload-off scenarios.
    OverloadConfig overload;
};

/**
 * Serving-quality rank of a precision (higher = better fidelity):
 * FP16 > HFP8 > INT4 > INT2. FP32 is not a servable MPE mode.
 */
int servingQuality(Precision p);

/**
 * Throw rapid::Error (InvalidArgument / InvalidConfig) on a
 * non-runnable scenario: no tenants, non-positive rates/deadlines/
 * horizon, empty or FP32-bearing ladder, zero max_batch, negative
 * max_wait, bad fault knobs. Runs in every build type.
 */
void validateServeConfig(const ServeConfig &cfg);

/**
 * The precisions a chip's latency table must cover for @p cfg: the
 * router ladder plus every tenant quality floor, deduplicated in
 * first-appearance order.
 */
std::vector<Precision> tablePrecisions(const ServeConfig &cfg);

} // namespace rapid

#endif // RAPID_SERVE_SERVE_CONFIG_HH
