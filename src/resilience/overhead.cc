#include "resilience/overhead.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/units.hh"

namespace rapid {

double
checkpointSeconds(uint64_t bytes, const ChipConfig &chip)
{
    RAPID_CHECK_ARG(chip.mem_gbps > 0,
                    "checkpoint cost model needs positive memory "
                    "bandwidth, got ", chip.mem_gbps, " GB/s");
    return double(bytes) / chip.memBytesPerSecond();
}

double
checkpointCycles(uint64_t bytes, const ChipConfig &chip)
{
    return checkpointSeconds(bytes, chip) * ghz(chip.core_freq_ghz);
}

double
youngDalyInterval(double checkpoint_seconds, double mtbf_seconds)
{
    RAPID_CHECK_ARG(std::isfinite(checkpoint_seconds) &&
                        checkpoint_seconds > 0,
                    "checkpoint_seconds must be finite and positive, "
                    "got ", checkpoint_seconds);
    RAPID_CHECK_ARG(std::isfinite(mtbf_seconds) && mtbf_seconds > 0,
                    "mtbf_seconds must be finite and positive, got ",
                    mtbf_seconds);
    return std::sqrt(2.0 * checkpoint_seconds * mtbf_seconds);
}

uint64_t
youngDalyIntervalSteps(double checkpoint_seconds, double mtbf_seconds,
                       double step_seconds)
{
    RAPID_CHECK_ARG(std::isfinite(step_seconds) && step_seconds > 0,
                    "step_seconds must be finite and positive, got ",
                    step_seconds);
    const double interval =
        youngDalyInterval(checkpoint_seconds, mtbf_seconds);
    return std::max(uint64_t(1), uint64_t(interval / step_seconds));
}

double
checkpointOverheadFraction(double step_seconds, uint64_t interval_steps,
                           double checkpoint_seconds)
{
    RAPID_CHECK_ARG(interval_steps > 0,
                    "interval_steps must be positive");
    RAPID_CHECK_ARG(std::isfinite(step_seconds) && step_seconds > 0,
                    "step_seconds must be finite and positive, got ",
                    step_seconds);
    RAPID_CHECK_ARG(std::isfinite(checkpoint_seconds) &&
                        checkpoint_seconds >= 0,
                    "checkpoint_seconds must be finite and >= 0, got ",
                    checkpoint_seconds);
    const double work = double(interval_steps) * step_seconds;
    return checkpoint_seconds / (work + checkpoint_seconds);
}

double
expectedReworkFraction(double step_seconds, uint64_t interval_steps,
                       double mtbf_seconds)
{
    RAPID_CHECK_ARG(interval_steps > 0,
                    "interval_steps must be positive");
    RAPID_CHECK_ARG(std::isfinite(step_seconds) && step_seconds > 0,
                    "step_seconds must be finite and positive, got ",
                    step_seconds);
    RAPID_CHECK_ARG(std::isfinite(mtbf_seconds) && mtbf_seconds > 0,
                    "mtbf_seconds must be finite and positive, got ",
                    mtbf_seconds);
    // One failure per MTBF loses half an interval of completed work
    // on average; cap at 1 (beyond that the run makes no progress).
    const double interval_seconds = double(interval_steps) * step_seconds;
    return std::min(1.0, 0.5 * interval_seconds / mtbf_seconds);
}

void
chargeCheckpoint(CycleBreakdown &b, double cycles)
{
    RAPID_CHECK_ARG(std::isfinite(cycles) && cycles >= 0,
                    "checkpoint cycles must be finite and >= 0, got ",
                    cycles);
    b.checkpoint += cycles;
}

} // namespace rapid
