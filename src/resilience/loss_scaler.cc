#include "resilience/loss_scaler.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace rapid {

namespace {

/// Scale multipliers after a healthy run and after a bad step.
constexpr float kGrowthFactor = 2.0f;
constexpr float kBackoffFactor = 0.5f;

} // namespace

void
validateLossScalerConfig(const LossScalerConfig &cfg)
{
    RAPID_CHECK_ARG(std::isfinite(cfg.init_scale) && cfg.init_scale > 0,
                    "LossScalerConfig.init_scale must be finite and "
                    "positive, got ", cfg.init_scale);
    RAPID_CHECK_ARG(cfg.growth_interval > 0,
                    "LossScalerConfig.growth_interval must be positive, "
                    "got ", cfg.growth_interval);
    RAPID_CHECK_ARG(std::isfinite(cfg.min_scale) && cfg.min_scale > 0 &&
                        cfg.min_scale <= cfg.max_scale,
                    "LossScalerConfig.min_scale must be positive and "
                    "<= max_scale, got ", cfg.min_scale);
    RAPID_CHECK_ARG(cfg.init_scale >= cfg.min_scale &&
                        cfg.init_scale <= cfg.max_scale,
                    "LossScalerConfig.init_scale ", cfg.init_scale,
                    " outside [min_scale, max_scale]");
}

LossScaler::LossScaler(const LossScalerConfig &cfg) : cfg_(cfg)
{
    validateLossScalerConfig(cfg);
    state_.scale = cfg.enabled ? cfg.init_scale : 1.0f;
}

bool
LossScaler::update(bool healthy)
{
    if (!cfg_.enabled)
        return healthy; // fixed scale 1: skip still protects weights
    if (healthy) {
        if (++state_.good_steps >= cfg_.growth_interval) {
            const float grown = std::min(
                cfg_.max_scale, state_.scale * kGrowthFactor);
            if (grown > state_.scale)
                ++state_.growths;
            state_.scale = grown;
            state_.good_steps = 0;
        }
        return true;
    }
    ++state_.skips;
    ++state_.backoffs;
    state_.scale = std::max(cfg_.min_scale,
                            state_.scale * kBackoffFactor);
    state_.good_steps = 0;
    return false;
}

} // namespace rapid
