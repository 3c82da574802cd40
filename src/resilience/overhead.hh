/**
 * @file
 * Checkpoint/rollback cost model: what resilience charges the
 * accelerator. A checkpoint streams the serialized training state to
 * external memory, so its cost is bytes / memory bandwidth, converted
 * to core cycles and charged into the CycleBreakdown's checkpoint
 * lane. The Young/Daly first-order optimum
 *
 *     interval* = sqrt(2 x checkpoint_cost x MTBF)
 *
 * picks the checkpoint interval that minimizes total lost time
 * (snapshot overhead + expected rework after a failure).
 */

#ifndef RAPID_RESILIENCE_OVERHEAD_HH
#define RAPID_RESILIENCE_OVERHEAD_HH

#include <cstdint>

#include "arch/config.hh"
#include "perf/perf_model.hh"

namespace rapid {

/** Seconds to stream a @p bytes checkpoint to external memory. */
double checkpointSeconds(uint64_t bytes, const ChipConfig &chip);

/** The same cost in core-clock cycles. */
double checkpointCycles(uint64_t bytes, const ChipConfig &chip);

/**
 * Young/Daly optimal checkpoint interval (seconds between
 * checkpoints) for a snapshot costing @p checkpoint_seconds on a
 * system with @p mtbf_seconds mean time between failures. Throws on
 * non-positive inputs.
 */
double youngDalyInterval(double checkpoint_seconds,
                         double mtbf_seconds);

/**
 * The Young/Daly interval expressed in optimizer steps of
 * @p step_seconds each (rounded to >= 1).
 */
uint64_t youngDalyIntervalSteps(double checkpoint_seconds,
                                double mtbf_seconds,
                                double step_seconds);

/**
 * Fraction of wall time spent snapshotting when a @p
 * checkpoint_seconds checkpoint is taken every @p interval_steps
 * steps of @p step_seconds each: ckpt / (interval x step + ckpt).
 */
double checkpointOverheadFraction(double step_seconds,
                                  uint64_t interval_steps,
                                  double checkpoint_seconds);

/**
 * Expected fraction of computed steps that are replayed rework:
 * a failure strikes uniformly within a checkpoint interval, losing
 * half of it on average, at a rate of one failure per @p mtbf_seconds.
 */
double expectedReworkFraction(double step_seconds,
                              uint64_t interval_steps,
                              double mtbf_seconds);

/** Charge @p cycles of snapshot traffic into @p b's checkpoint lane. */
void chargeCheckpoint(CycleBreakdown &b, double cycles);

} // namespace rapid

#endif // RAPID_RESILIENCE_OVERHEAD_HH
