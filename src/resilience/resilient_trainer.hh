/**
 * @file
 * The resilient training runtime: wraps the Mlp trainer in the full
 * recovery ladder the paper's deployment story needs when ultra-low
 * precision meets unreliable silicon.
 *
 * Per optimizer step:
 *
 *   1. Gradients are computed at the dynamic loss scale; faults are
 *      injected at FaultSite::TrainerGemm when a nonzero-rate
 *      FaultConfig is supplied.
 *   2. Health sentinels vet the attempt: a finiteness scan of the
 *      loss and gradients, a catch of structured NumericFault errors
 *      from the checked accumulation datapath, and a windowed
 *      loss-spike detector for huge-but-finite corruptions.
 *   3. An unhealthy attempt climbs the policy ladder:
 *      retry-the-step (fresh fault draws — the exposure counter is
 *      time-like and never rewound) -> rollback to the last
 *      checkpoint -> escalate precision HFP8 -> FP16 ->
 *      force-skip the update (AMP semantics) as the terminal guard.
 *      Escalation is once per run: FP16 stays for the rest of it.
 *   4. Healthy attempts apply the update; periodic checkpoints
 *      snapshot the complete training state.
 *
 * Accounting is closed by construction: every completed step carries
 * exactly one final classification, so
 * steps == clean + retried + rolled_back + escalated + skipped.
 *
 * With a zero fault rate, the scaler disabled, and no detections, the
 * runtime is provably pass-through: each step is exactly
 * computeGradients + applyStep at scale 1, bit-identical to
 * Mlp::trainStep (the tests assert this).
 */

#ifndef RAPID_RESILIENCE_RESILIENT_TRAINER_HH
#define RAPID_RESILIENCE_RESILIENT_TRAINER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/fault.hh"
#include "func/trainer.hh"
#include "resilience/checkpoint.hh"
#include "resilience/loss_scaler.hh"
#include "resilience/sentinel.hh"

namespace rapid {

/** Knobs of the resilient training runtime. */
struct ResilienceConfig
{
    LossScalerConfig scaler;
    SentinelConfig sentinel;
    /// Fault scenario for the training GEMMs. The trainer enables
    /// FaultSite::TrainerGemm itself (it is default-disabled so
    /// hardware-site scenarios are unaffected); rate 0 keeps the
    /// injection path provably inert.
    FaultConfig fault;
    /// Steps between checkpoints; 0 disables checkpointing (and with
    /// it the rollback rung of the ladder).
    int checkpoint_interval = 25;
    /// Retries of one step before the ladder climbs past retry.
    int max_retries = 2;
    /// Rollbacks any one failing step may trigger before the ladder
    /// climbs to escalation (the budget is per step, so a
    /// deterministic failure cannot rollback-loop forever while
    /// healthy steps keep resetting a global counter).
    int max_rollbacks = 2;
    bool enable_retry = true;
    bool enable_rollback = true;
    bool enable_escalation = true; ///< HFP8 -> FP16 precision bump
    /// When false the runtime is blind: every computed update is
    /// applied, healthy or not — the baseline the sentinel + ladder
    /// configurations are measured against.
    bool enable_sentinels = true;
};

/** Throw rapid::Error when @p cfg holds out-of-range knobs. */
void validateResilienceConfig(const ResilienceConfig &cfg);

/** Final classification of one completed optimizer step. */
enum class StepClass
{
    Clean = 0,  ///< first attempt applied, no recovery machinery
    Retried,    ///< applied after >= 1 in-place retries
    RolledBack, ///< replayed after a rollback rewound past it
    Escalated,  ///< the step that triggered HFP8 -> FP16
    Skipped,    ///< ladder exhausted: update dropped (AMP skip)
};

/** Closed per-run recovery accounting. */
struct RecoveryStats
{
    uint64_t steps = 0;       ///< completed optimizer steps
    uint64_t clean = 0;
    uint64_t retried = 0;
    uint64_t rolled_back = 0;
    uint64_t escalated = 0;
    uint64_t skipped = 0;
    uint64_t retries = 0;     ///< individual retry attempts
    uint64_t rollbacks = 0;   ///< rollback events
    uint64_t escalations = 0; ///< HFP8 -> FP16 bumps (at most 1)
    uint64_t checkpoints = 0; ///< snapshots taken
    uint64_t replayed = 0;    ///< completed steps recomputed by rollback

    /** Every step has exactly one classification. */
    bool
    closed() const
    {
        return steps ==
               clean + retried + rolled_back + escalated + skipped;
    }
};

/**
 * Drives an Mlp through fault-aware training. The minibatch schedule
 * matches Mlp::train exactly: step k trains on full batch
 * (k mod steps_per_epoch) of the dataset, so a fault-free resilient
 * run reproduces the plain trainer bit-for-bit.
 */
class ResilientTrainer
{
  public:
    ResilientTrainer(const MlpConfig &model_cfg,
                     const ResilienceConfig &cfg);

    /** Run @p steps optimizer steps over @p train. */
    void runSteps(const Dataset &train, int64_t batch_size,
                  uint64_t steps);

    double evaluate(const Dataset &test) { return model_.evaluate(test); }

    Mlp &model() { return model_; }
    const Mlp &model() const { return model_; }
    const ResilienceConfig &config() const { return cfg_; }
    const HealthSentinel &sentinel() const { return sentinel_; }
    const LossScaler &scaler() const { return scaler_; }
    const FaultStats &faultStats() const { return model_.faultStats(); }
    float lastLoss() const { return last_loss_; }
    uint64_t step() const { return step_; }

    /** Aggregate the closed recovery accounting. */
    RecoveryStats stats() const;

    /** Snapshot the complete current training state. */
    TrainerCheckpoint checkpointNow() const;

    /** Restore @p ckpt: model, scaler, loss window, step cursor. */
    void rollbackTo(const TrainerCheckpoint &ckpt);

  private:
    void takeCheckpoint();
    /** Rollback rung: returns false when no checkpoint exists. */
    bool tryRollback(uint64_t failed_step);
    void finishStep(StepClass attempt_class);
    void raiseFloor(uint64_t step, StepClass cls);

    ResilienceConfig cfg_;
    Mlp model_;
    FaultInjector injector_;
    LossScaler scaler_;
    HealthSentinel sentinel_;

    uint64_t step_ = 0;        ///< completed optimizer steps
    float last_loss_ = 0.0f;
    TrainerCheckpoint ckpt_;   ///< last periodic snapshot
    bool have_ckpt_ = false;
    /// Rollbacks triggered by each not-yet-completed step (the
    /// per-incident budget); erased when the step completes.
    std::map<uint64_t, int> step_rollbacks_;
    /// After a rollback, re-checkpoint as soon as replay passes the
    /// step that failed, so one incident is never paid for twice and
    /// forward progress is guaranteed even under sustained faults.
    bool reckpt_pending_ = false;
    uint64_t reckpt_after_ = 0;

    /// Final class of step i; truncated on rollback so replayed steps
    /// re-classify.
    std::vector<StepClass> classes_;
    /// Floors raised by rollback/escalation on steps being replayed.
    std::map<uint64_t, StepClass> floors_;

    uint64_t retries_ = 0;
    uint64_t rollbacks_ = 0;
    uint64_t escalations_ = 0;
    uint64_t checkpoints_ = 0;
    uint64_t replayed_ = 0;
};

} // namespace rapid

#endif // RAPID_RESILIENCE_RESILIENT_TRAINER_HH
