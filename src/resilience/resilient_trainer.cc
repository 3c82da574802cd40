#include "resilience/resilient_trainer.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"

namespace rapid {
namespace {

/// Copy of the scenario with the training site switched on.
FaultConfig
trainerFaultConfig(FaultConfig fault)
{
    fault.site_enabled[unsigned(FaultSite::TrainerGemm)] = true;
    return fault;
}

/// Unscaled-gradient magnitude ceiling: a finite gradient above this
/// is an outlier (a flipped exponent bit produces huge values far
/// more often than NaN).
constexpr double kGradLimit = 1e3;

} // namespace

void
validateResilienceConfig(const ResilienceConfig &cfg)
{
    validateLossScalerConfig(cfg.scaler);
    validateSentinelConfig(cfg.sentinel);
    validateFaultConfig(cfg.fault);
    RAPID_CHECK_ARG(cfg.checkpoint_interval >= 0,
                    "ResilienceConfig.checkpoint_interval must be >= 0, "
                    "got ", cfg.checkpoint_interval);
    RAPID_CHECK_ARG(cfg.max_retries >= 0,
                    "ResilienceConfig.max_retries must be >= 0, got ",
                    cfg.max_retries);
    RAPID_CHECK_ARG(cfg.max_rollbacks >= 0,
                    "ResilienceConfig.max_rollbacks must be >= 0, got ",
                    cfg.max_rollbacks);
}

ResilientTrainer::ResilientTrainer(const MlpConfig &model_cfg,
                                   const ResilienceConfig &cfg)
    : cfg_(cfg), model_(model_cfg),
      injector_(trainerFaultConfig(cfg.fault)), scaler_(cfg.scaler),
      sentinel_(cfg.sentinel)
{
    validateResilienceConfig(cfg);
    model_.setFaultInjector(&injector_);
}

TrainerCheckpoint
ResilientTrainer::checkpointNow() const
{
    TrainerCheckpoint ckpt;
    ckpt.step = step_;
    ckpt.data_cursor = step_;
    ckpt.model = model_.exportState();
    ckpt.scaler = scaler_.state();
    ckpt.loss_window = sentinel_.lossWindow();
    return ckpt;
}

void
ResilientTrainer::takeCheckpoint()
{
    ckpt_ = checkpointNow();
    have_ckpt_ = true;
    ++checkpoints_;
}

void
ResilientTrainer::rollbackTo(const TrainerCheckpoint &ckpt)
{
    model_.importState(ckpt.model);
    scaler_.restore(ckpt.scaler);
    sentinel_.restoreLossWindow(ckpt.loss_window);
    step_ = ckpt.step;
    if (classes_.size() > size_t(step_))
        classes_.resize(size_t(step_));
}

bool
ResilientTrainer::tryRollback(uint64_t failed_step)
{
    if (!have_ckpt_)
        return false;
    if (step_rollbacks_[failed_step] >= cfg_.max_rollbacks)
        return false; // this incident's budget is spent
    ++step_rollbacks_[failed_step];
    ++rollbacks_;
    replayed_ += failed_step - ckpt_.step;
    for (uint64_t s = ckpt_.step; s <= failed_step; ++s)
        raiseFloor(s, StepClass::RolledBack);
    reckpt_pending_ = true;
    reckpt_after_ = std::max(reckpt_after_, failed_step);
    rollbackTo(ckpt_);
    return true;
}

void
ResilientTrainer::raiseFloor(uint64_t step, StepClass cls)
{
    auto it = floors_.find(step);
    if (it == floors_.end())
        floors_.emplace(step, cls);
    else
        it->second = std::max(it->second, cls);
}

void
ResilientTrainer::finishStep(StepClass attempt_class)
{
    StepClass final_class = attempt_class;
    if (final_class != StepClass::Skipped) {
        auto it = floors_.find(step_);
        if (it != floors_.end())
            final_class = std::max(final_class, it->second);
    }
    classes_.push_back(final_class);
    step_rollbacks_.erase(step_);
    ++step_;
    if (reckpt_pending_ && step_ > reckpt_after_) {
        reckpt_pending_ = false;
        takeCheckpoint();
    } else if (cfg_.checkpoint_interval > 0 &&
               step_ % uint64_t(cfg_.checkpoint_interval) == 0) {
        takeCheckpoint();
    }
}

void
ResilientTrainer::runSteps(const Dataset &train, int64_t batch_size,
                           uint64_t steps)
{
    RAPID_CHECK_ARG(batch_size > 0, "batch_size must be positive, got ",
                    batch_size);
    const int64_t steps_per_epoch = train.size() / batch_size;
    RAPID_CHECK_ARG(steps_per_epoch > 0, "dataset of ", train.size(),
                    " rows holds no full batch of ", batch_size);

    if (!have_ckpt_ && cfg_.checkpoint_interval > 0)
        takeCheckpoint(); // step-0 snapshot anchors the first rollback

    const uint64_t target = step_ + steps;
    while (step_ < target) {
        const Dataset mb = train.slice(
            int64_t(step_ % uint64_t(steps_per_epoch)) * batch_size,
            batch_size);
        int attempts = 0;
        bool step_done = false;
        while (!step_done) {
            const float scale = scaler_.scale();
            GradHealth health;
            bool numeric_fault = false;
            std::string fault_detail;
            try {
                health = model_.computeGradients(mb.features, mb.labels,
                                                 scale);
            } catch (const Error &e) {
                if (e.code() != ErrorCode::NumericFault)
                    throw;
                numeric_fault = true;
                fault_detail = e.message();
            }
            const bool finite_ok = !numeric_fault && health.healthy();
            const bool spike = cfg_.enable_sentinels && finite_ok &&
                               sentinel_.isSpike(health.loss);
            // A flipped exponent bit yields a huge finite gradient far
            // more often than a NaN; the magnitude sentinel catches it
            // before the update is applied (compare unscaled).
            const bool outlier =
                cfg_.enable_sentinels && finite_ok &&
                double(health.grad_max_abs) > kGradLimit * double(scale);
            const bool apply =
                cfg_.enable_sentinels
                    ? finite_ok && !spike && !outlier
                    : !numeric_fault; // blind: apply whatever computed

            if (apply) {
                scaler_.update(true);
                model_.applyStep(1.0f / scale);
                if (cfg_.enable_sentinels && !model_.weightsFinite()) {
                    sentinel_.record(step_,
                                     HealthEventKind::NonFiniteWeight,
                                     "master weights non-finite after "
                                     "update");
                    if (cfg_.enable_rollback && tryRollback(step_))
                        break; // replay from the checkpoint
                    // No rollback available: nothing can undo an
                    // applied update, so complete the step as-is.
                }
                if (health.loss_finite) {
                    sentinel_.recordLoss(health.loss);
                    last_loss_ = health.loss;
                }
                finishStep(attempts > 0 ? StepClass::Retried
                                        : StepClass::Clean);
                step_done = true;
                continue;
            }

            // Unhealthy attempt: log what the sentinels saw.
            if (numeric_fault)
                sentinel_.record(step_, HealthEventKind::NumericFault,
                                 fault_detail);
            else if (!health.loss_finite)
                sentinel_.record(step_, HealthEventKind::NonFiniteLoss,
                                 "non-finite batch loss");
            else if (!health.grads_finite)
                sentinel_.record(step_,
                                 HealthEventKind::NonFiniteGradient,
                                 "non-finite gradient");
            else if (outlier)
                sentinel_.record(step_,
                                 HealthEventKind::GradientOutlier,
                                 "finite gradient beyond the sentinel "
                                 "magnitude limit");
            else
                sentinel_.record(step_, HealthEventKind::LossSpike,
                                 "finite loss far above recent window");
            if (!spike && !outlier)
                scaler_.update(false); // back the scale off

            // Climb the ladder: retry -> rollback -> escalate -> skip.
            ++attempts;
            if (cfg_.enable_retry && attempts <= cfg_.max_retries) {
                ++retries_;
                continue; // fresh fault draws: exposure counter moved on
            }
            if (cfg_.enable_rollback && tryRollback(step_))
                break; // replay from the checkpoint
            if (cfg_.enable_escalation &&
                model_.precision() == TrainPrecision::HFP8) {
                model_.setPrecision(TrainPrecision::FP16);
                ++escalations_;
                raiseFloor(step_, StepClass::Escalated);
                attempts = 0; // the new precision gets a fresh ladder
                continue;
            }
            // Terminal guard: drop the update (AMP skip semantics).
            // A finite observed loss still banks into the spike
            // window: after a real regime change (e.g. an applied
            // silent corruption degraded the model) the detector
            // re-bases instead of flagging every later step forever.
            if (!numeric_fault && health.loss_finite) {
                sentinel_.recordLoss(health.loss);
                last_loss_ = health.loss;
            }
            finishStep(StepClass::Skipped);
            step_done = true;
        }
    }
}

RecoveryStats
ResilientTrainer::stats() const
{
    RecoveryStats s;
    s.steps = classes_.size();
    for (StepClass cls : classes_) {
        switch (cls) {
          case StepClass::Clean:
            ++s.clean;
            break;
          case StepClass::Retried:
            ++s.retried;
            break;
          case StepClass::RolledBack:
            ++s.rolled_back;
            break;
          case StepClass::Escalated:
            ++s.escalated;
            break;
          case StepClass::Skipped:
            ++s.skipped;
            break;
        }
    }
    s.retries = retries_;
    s.rollbacks = rollbacks_;
    s.escalations = escalations_;
    s.checkpoints = checkpoints_;
    s.replayed = replayed_;
    return s;
}

} // namespace rapid
