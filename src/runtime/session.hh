/**
 * @file
 * Top-level public API: compile-and-evaluate sessions that mirror the
 * paper's software stack (Section IV-B) — the graph compiler assigns
 * precisions, plans sparsity-aware throttling, and maps work; the
 * bandwidth-centric performance/power models then report end-to-end
 * latency, throughput, and efficiency.
 *
 * Sessions borrow their network: they hold a pointer to it, never a
 * copy, so the network must outlive the session. Constructing one
 * from a temporary network does not compile.
 *
 * Typical use:
 * @code
 *   const Network net = makeResnet50();
 *   InferenceSession session(makeInferenceChip(), net);
 *   InferenceOptions opts;
 *   opts.target = Precision::INT4;
 *   InferenceResult r = session.run(opts);
 *   // r.perf.samplesPerSecond(), r.energy.tops_per_w, ...
 * @endcode
 */

#ifndef RAPID_RUNTIME_SESSION_HH
#define RAPID_RUNTIME_SESSION_HH

#include "arch/config.hh"
#include "compiler/precision_assign.hh"
#include "common/fault.hh"
#include "perf/perf_model.hh"
#include "power/power_model.hh"
#include "power/throttle.hh"
#include "workloads/layer.hh"

namespace rapid {

/** Inference compilation/evaluation knobs. */
struct InferenceOptions
{
    Precision target = Precision::INT4;
    int64_t batch = 1;
    /// Plan sparsity-aware frequency throttling from the network's
    /// per-layer weight sparsity profile (Section III-C.2).
    bool sparsity_throttling = false;
    /// Operating point for the efficiency report; 0 keeps the chip's
    /// configured frequency.
    double power_report_freq_ghz = 0.0;
    /// Fault scenario: detected-but-uncorrected faults charge retry
    /// cycles into the reported performance and power. The default
    /// (rate 0) is exactly the fault-free model.
    FaultConfig fault;
};

/**
 * Throw rapid::Error (InvalidArgument) on out-of-range inference
 * options (non-positive batch, negative or non-finite report
 * frequency, bad fault knobs). Runs in every build type.
 */
void validateInferenceOptions(const InferenceOptions &opts);

/** Everything an inference run produces. */
struct InferenceResult
{
    ExecutionPlan plan;
    NetworkPerf perf;
    EnergyReport energy;
};

/**
 * Compile-and-evaluate session for one network on one chip. Borrows
 * the network, which must outlive the session.
 */
class InferenceSession
{
  public:
    InferenceSession(const ChipConfig &chip, const Network &net);
    /// A temporary network would dangle; hold it in a local instead.
    InferenceSession(const ChipConfig &chip, Network &&net) = delete;

    const Network &network() const { return *net_; }
    const ChipConfig &chip() const { return chip_; }

    /** Compile only: the plan the run would use. */
    ExecutionPlan compile(const InferenceOptions &opts) const;

    /** Compile, evaluate performance, and integrate power. */
    InferenceResult run(const InferenceOptions &opts) const;

  private:
    ChipConfig chip_;
    const Network *net_;
};

/** Training evaluation knobs. */
struct TrainingOptions
{
    Precision precision = Precision::HFP8;
    int64_t minibatch = 512;
};

/**
 * Throw rapid::Error (InvalidArgument) on out-of-range training
 * options (non-positive minibatch, a precision the training datapath
 * does not support). Runs in every build type.
 */
void validateTrainingOptions(const TrainingOptions &opts);

/**
 * Session for a multi-chip training system. Borrows the network,
 * which must outlive the session.
 */
class TrainingSession
{
  public:
    TrainingSession(const SystemConfig &sys, const Network &net);
    /// A temporary network would dangle; hold it in a local instead.
    TrainingSession(const SystemConfig &sys, Network &&net) = delete;

    TrainingPerf run(const TrainingOptions &opts) const;

    const Network &network() const { return *net_; }
    const SystemConfig &system() const { return sys_; }

  private:
    SystemConfig sys_;
    const Network *net_;
};

} // namespace rapid

#endif // RAPID_RUNTIME_SESSION_HH
