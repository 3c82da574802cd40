/**
 * @file
 * Dynamic loss scaling for reduced-precision training — the AMP-style
 * grow/backoff state machine that keeps HFP8's backward-format
 * gradients out of the FP8 (1,5,2) underflow region without manual
 * tuning. The loss gradient is multiplied by the current scale before
 * backpropagation and the weight gradients divided back out before
 * the optimizer update; both factors are powers of two, so scaling
 * costs no precision in the FP32 master copies.
 *
 * State machine: a step whose gradients scan non-finite is *skipped*
 * (no weight update) and the scale halves; after growth_interval
 * consecutive healthy steps the scale doubles. The full state is a
 * plain struct that the checkpoint engine serializes, so a rollback
 * restores the scaler to the exact point of the snapshot.
 */

#ifndef RAPID_RESILIENCE_LOSS_SCALER_HH
#define RAPID_RESILIENCE_LOSS_SCALER_HH

#include <cstdint>

namespace rapid {

/** Knobs of the dynamic loss scaler. */
struct LossScalerConfig
{
    /// Disabled (the default) pins the scale to exactly 1, making the
    /// scaled training path bit-identical to the unscaled trainer.
    bool enabled = false;
    float init_scale = 256.0f;
    int growth_interval = 100;    ///< consecutive healthy steps to grow
    float min_scale = 1.0f;
    /// Conservative ceiling: DLFloat16 chunk accumulation saturates
    /// (rather than overflowing to Inf), so unbounded growth would
    /// silently clip instead of tripping the non-finite backoff.
    float max_scale = 4096.0f;
};

/** Throw rapid::Error when @p cfg holds out-of-range knobs. */
void validateLossScalerConfig(const LossScalerConfig &cfg);

/** Serializable scaler state (checkpointed alongside the weights). */
struct LossScalerState
{
    float scale = 1.0f;
    int good_steps = 0;     ///< healthy steps since the last change
    uint64_t growths = 0;
    uint64_t backoffs = 0;
    uint64_t skips = 0;     ///< steps skipped on non-finite gradients
};

/** The grow/backoff state machine. */
class LossScaler
{
  public:
    explicit LossScaler(const LossScalerConfig &cfg = {});

    const LossScalerConfig &config() const { return cfg_; }

    /** The factor to multiply the loss gradient by this step. */
    float scale() const { return state_.scale; }

    /**
     * Record the outcome of one gradient computation. @p healthy
     * means every gradient scanned finite and the update was applied;
     * unhealthy steps back the scale off and count as skips.
     * Returns true when the update should be applied.
     */
    bool update(bool healthy);

    const LossScalerState &state() const { return state_; }
    void restore(const LossScalerState &state) { state_ = state; }

  private:
    LossScalerConfig cfg_;
    LossScalerState state_;
};

} // namespace rapid

#endif // RAPID_RESILIENCE_LOSS_SCALER_HH
