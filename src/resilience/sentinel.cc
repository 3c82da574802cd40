#include "resilience/sentinel.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace rapid {

void
validateSentinelConfig(const SentinelConfig &cfg)
{
    RAPID_CHECK_ARG(cfg.window > 0,
                    "SentinelConfig.window must be positive, got ",
                    cfg.window);
    RAPID_CHECK_ARG(std::isfinite(cfg.spike_factor) &&
                        cfg.spike_factor > 1.0,
                    "SentinelConfig.spike_factor must be > 1, got ",
                    cfg.spike_factor);
    RAPID_CHECK_ARG(cfg.min_history > 0 && cfg.min_history <= cfg.window,
                    "SentinelConfig.min_history must be in [1, window], "
                    "got ", cfg.min_history);
    RAPID_CHECK_ARG(std::isfinite(cfg.abs_floor) && cfg.abs_floor >= 0,
                    "SentinelConfig.abs_floor must be finite and >= 0, "
                    "got ", cfg.abs_floor);
}

HealthSentinel::HealthSentinel(const SentinelConfig &cfg) : cfg_(cfg)
{
    validateSentinelConfig(cfg);
}

bool
HealthSentinel::isSpike(float loss) const
{
    if (!std::isfinite(loss))
        return false; // non-finite is the finiteness scan's verdict
    if (int(window_.size()) < cfg_.min_history)
        return false;
    std::vector<float> sorted = window_;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double threshold =
        std::max(cfg_.abs_floor, cfg_.spike_factor * median);
    return double(loss) > threshold;
}

void
HealthSentinel::recordLoss(float loss)
{
    window_.push_back(loss);
    if (int(window_.size()) > cfg_.window)
        window_.erase(window_.begin());
}

void
HealthSentinel::record(uint64_t step, HealthEventKind kind,
                       std::string detail)
{
    events_.push_back({step, kind, std::move(detail)});
}

uint64_t
HealthSentinel::count(HealthEventKind kind) const
{
    uint64_t n = 0;
    for (const HealthEvent &e : events_)
        if (e.kind == kind)
            ++n;
    return n;
}

void
HealthSentinel::restoreLossWindow(const std::vector<float> &window)
{
    window_ = window;
    if (int(window_.size()) > cfg_.window)
        window_.erase(window_.begin(),
                      window_.end() - size_t(cfg_.window));
}

} // namespace rapid
