#include "runtime/session.hh"

#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

void
validateInferenceOptions(const InferenceOptions &opts)
{
    RAPID_CHECK_ARG(opts.batch >= 1,
                    "inference batch must be >= 1, got ", opts.batch);
    RAPID_CHECK_ARG(std::isfinite(opts.power_report_freq_ghz) &&
                        opts.power_report_freq_ghz >= 0.0,
                    "power_report_freq_ghz must be 0 (chip default) "
                    "or a positive frequency, got ",
                    opts.power_report_freq_ghz);
    validateFaultConfig(opts.fault);
}

void
validateTrainingOptions(const TrainingOptions &opts)
{
    RAPID_CHECK_ARG(opts.minibatch >= 1,
                    "training minibatch must be >= 1, got ",
                    opts.minibatch);
    RAPID_CHECK_ARG(opts.precision == Precision::FP16 ||
                        opts.precision == Precision::HFP8,
                    "training supports FP16/HFP8 only, got ",
                    precisionName(opts.precision));
}

InferenceSession::InferenceSession(const ChipConfig &chip,
                                   const Network &net)
    : chip_(chip), net_(&net)
{
    validateChipConfig(chip);
}

ExecutionPlan
InferenceSession::compile(const InferenceOptions &opts) const
{
    PrecisionOptions popts;
    popts.target = opts.target;
    ExecutionPlan plan = assignPrecision(*net_, popts);
    if (opts.sparsity_throttling) {
        PowerModel power(chip_);
        ThrottlePlanner planner(power);
        planner.planThrottle(*net_, plan);
    }
    return plan;
}

InferenceResult
InferenceSession::run(const InferenceOptions &opts) const
{
    validateInferenceOptions(opts);
    InferenceResult result;
    result.plan = compile(opts);
    rapid_dassert(result.plan.layers.size() == net_->layers.size(),
                  "execution plan covers ", result.plan.layers.size(),
                  " of ", net_->layers.size(), " layers");
    PerfModel perf(chip_, opts.fault);
    result.perf = perf.evaluate(*net_, result.plan, opts.batch);
    rapid_dassert(result.perf.total_seconds > 0.0,
                  "non-positive inference time");
    PowerModel power(chip_, opts.power_report_freq_ghz);
    result.energy = power.evaluate(result.perf, *net_);
    return result;
}

TrainingSession::TrainingSession(const SystemConfig &sys,
                                 const Network &net)
    : sys_(sys), net_(&net)
{
    validateSystemConfig(sys);
}

TrainingPerf
TrainingSession::run(const TrainingOptions &opts) const
{
    validateTrainingOptions(opts);
    TrainingPerfModel model(sys_);
    return model.evaluate(*net_, opts.precision, opts.minibatch);
}

} // namespace rapid
