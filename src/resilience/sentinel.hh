/**
 * @file
 * Training health sentinels: the per-step sensors that decide whether
 * an optimizer step is trustworthy. Two mechanisms:
 *
 *   - Finiteness scans of the loss, the pending gradients, and the
 *     master weights (the gradient scan itself lives in
 *     Mlp::computeGradients; the sentinel classifies and records it).
 *   - A windowed loss-spike detector: a step whose loss exceeds
 *     spike_factor x the median of the recent accepted-loss window is
 *     flagged. Silent data corruptions that evade the finiteness scan
 *     (a flipped exponent bit producing a huge-but-finite value)
 *     surface here.
 *
 * Every detection is recorded as a structured HealthEvent carrying
 * the same step/kind/detail shape a rapid::Error(NumericFault) would,
 * so callers can log, count, or escalate uniformly.
 */

#ifndef RAPID_RESILIENCE_SENTINEL_HH
#define RAPID_RESILIENCE_SENTINEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rapid {

/** What a sentinel detected. */
enum class HealthEventKind
{
    NonFiniteLoss,     ///< loss scanned NaN/Inf
    NonFiniteGradient, ///< a pending gradient scanned NaN/Inf
    NonFiniteWeight,   ///< a master weight scanned NaN/Inf post-update
    LossSpike,         ///< finite loss far above the recent window
    GradientOutlier,   ///< finite gradient far beyond plausible range
    NumericFault,      ///< a checked datapath threw rapid::Error
};

/** One structured sentinel detection. */
struct HealthEvent
{
    uint64_t step = 0;      ///< optimizer step index of the detection
    HealthEventKind kind = HealthEventKind::NonFiniteLoss;
    std::string detail;     ///< human-readable specifics
};

/** Knobs of the loss-spike detector. */
struct SentinelConfig
{
    /// Accepted losses retained for the spike baseline.
    int window = 16;
    /// A loss above spike_factor x median(window) is a spike.
    double spike_factor = 8.0;
    /// No spike verdicts until this many losses are banked (early
    /// training is legitimately noisy).
    int min_history = 8;
    /// Losses below this are never spike *baselines* of zero: the
    /// threshold is max(spike_factor x median, abs_floor).
    double abs_floor = 1e-3;
};

/** Throw rapid::Error when @p cfg holds out-of-range knobs. */
void validateSentinelConfig(const SentinelConfig &cfg);

/**
 * The loss-window spike detector plus the event log. Finiteness
 * verdicts are computed by the caller (they need the gradients);
 * record() centralizes the structured bookkeeping.
 */
class HealthSentinel
{
  public:
    explicit HealthSentinel(const SentinelConfig &cfg = {});

    const SentinelConfig &config() const { return cfg_; }

    /** True when @p loss spikes against the accepted-loss window. */
    bool isSpike(float loss) const;

    /** Bank an accepted step's loss into the window. */
    void recordLoss(float loss);

    /** Append a structured event to the log. */
    void record(uint64_t step, HealthEventKind kind, std::string detail);

    const std::vector<HealthEvent> &events() const { return events_; }

    /** Count of logged events of @p kind. */
    uint64_t count(HealthEventKind kind) const;

    /** The accepted-loss window (exposed for checkpointing). */
    const std::vector<float> &lossWindow() const { return window_; }
    void restoreLossWindow(const std::vector<float> &window);

  private:
    SentinelConfig cfg_;
    std::vector<float> window_; ///< ring of the last accepted losses
    std::vector<HealthEvent> events_;
};

} // namespace rapid

#endif // RAPID_RESILIENCE_SENTINEL_HH
