/**
 * @file
 * A small from-scratch training framework with pluggable GEMM
 * precision, used to reproduce the paper's algorithmic foundations.
 * Every trained layer is a DenseLayer, and every training GEMM runs
 * through one TrainGemm:
 *
 *   - HFP8 training (Section II-B): forward GEMMs run with both
 *     operands in FP8 (1,4,3); the backward data-gradient and weight-
 *     gradient GEMMs mix FP8 (1,5,2) error operands with FP8 (1,4,3)
 *     weight/activation operands, exactly as Figure 3 prescribes.
 *     Accumulation is chunked DLFloat16; master weights stay FP32.
 *   - PACT (Section II-C): the activation is a clipped ReLU whose clip
 *     alpha is learned jointly with the weights via the straight-
 *     through estimator.
 *   - INT4/INT2 deployment: a trained model is quantized with SaWB
 *     weights + PACT activations and evaluated through the FXU
 *     executors.
 */

#ifndef RAPID_FUNC_TRAINER_HH
#define RAPID_FUNC_TRAINER_HH

#include <string>
#include <vector>

#include "common/fault.hh"
#include "func/datasets.hh"
#include "func/quantized_ops.hh"
#include "tensor/tensor.hh"

namespace rapid {

/** GEMM execution precision during training. */
enum class TrainPrecision
{
    FP32, ///< golden baseline
    FP16, ///< DLFloat16 GEMMs with chunked accumulation
    HFP8, ///< hybrid FP8 GEMMs per Figure 3
};

/** The training GEMM: its precision, execution knobs and fault site. */
struct TrainGemm
{
    TrainPrecision precision;
    ExecConfig exec;
    /// Makes every output element a FaultSite::TrainerGemm exposure,
    /// keyed by fault_item (mixSeed discipline: deterministic across
    /// runs and thread counts). Optional; must outlive this GEMM.
    const FaultInjector *injector = nullptr;
    FaultStats fault_stats{}; ///< cumulative TrainerGemm outcomes
    /// Per-element exposure counter. Time-like: never rewound by
    /// rollback, so a retried step sees fresh, independent fault draws
    /// the way a re-executed step on real silicon would.
    uint64_t fault_item = 0;

    /** (M,K) x (K,N) at @c precision; @p a_kind / @p b_kind select
     *  each operand's FP8 flavour under HFP8 (Figure 3). */
    Tensor operator()(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
                      Fp8Kind b_kind);
};

/**
 * One fully connected layer, y = x W^T + b, with FP32 master weights
 * trained by momentum SGD. The forward GEMM takes both operands in the
 * FP8 forward format; the weight- and data-gradient GEMMs take errors
 * in the backward format against forward-format activations/weights.
 */
struct DenseLayer
{
    /** Kaiming (@p out, @p in) weights drawn from @p rng; zero bias. */
    DenseLayer(int64_t in, int64_t out, Rng &rng);

    /** (N, in) -> (N, out); caches @p x for backward(). */
    Tensor forward(TrainGemm &gemm, const Tensor &x);

    /** Set w_grad and b_grad from the output error (N, out); returns
     *  the input error (N, in). */
    Tensor backward(TrainGemm &gemm, const Tensor &dy);

    /** Momentum SGD on the pending gradients times @p inv_scale. */
    void sgdStep(float lr, float mom, float inv_scale);

    Tensor w;       ///< (out, in) FP32 master weights
    Tensor b;       ///< (out)
    Tensor w_vel;   ///< momentum buffers
    Tensor b_vel;
    Tensor x_cache; ///< forward input
    Tensor w_grad;
    Tensor b_grad;
};

/** Hyper-parameters of the MLP and its training run. */
struct MlpConfig
{
    std::vector<int64_t> dims;   ///< e.g. {2, 48, 48, 2}
    TrainPrecision precision = TrainPrecision::FP32;
    ExecConfig exec;             ///< chunking / FP8 bias knobs
    float pact_alpha_init = 6.0f;
    unsigned pact_bits = 4;      ///< quantized level count when deployed
    float learning_rate = 0.1f;
    float momentum = 0.9f;
    uint64_t seed = 1234;
};

/**
 * Throw rapid::Error if @p cfg is malformed: fewer than two dims or a
 * non-positive dim, a non-positive learning rate or PACT alpha init,
 * momentum outside [0, 1), or fewer than 2 PACT bits.
 */
void validateMlpConfig(const MlpConfig &cfg);

/** Human-readable training precision ("fp32" / "fp16" / "hfp8"). */
const char *trainPrecisionName(TrainPrecision precision);

/**
 * Numeric health of one gradient computation — the per-step sensor
 * the resilient training runtime reads before deciding whether the
 * pending update is safe to apply.
 */
struct GradHealth
{
    float loss = 0.0f;        ///< batch loss at the attempted step
    bool loss_finite = true;  ///< std::isfinite(loss)
    bool grads_finite = true; ///< every weight/bias/alpha grad finite
    float grad_max_abs = 0.0f; ///< largest |gradient| observed (finite)

    bool healthy() const { return loss_finite && grads_finite; }
};

/**
 * Bit-exact snapshot of one dense layer's trainable state (master
 * weights, momentum buffers, PACT clip) — the unit the checkpoint
 * engine serializes.
 */
struct DenseState
{
    std::vector<float> w, b, w_vel, b_vel;
    float alpha = 0.0f;
    float alpha_vel = 0.0f;
};

/**
 * Bit-exact snapshot of the whole model: every layer plus the
 * execution precision (which the recovery ladder may have escalated)
 * and the serialized RNG stream position, so a restored model resumes
 * the exact trajectory it would have taken uninterrupted.
 */
struct MlpState
{
    std::vector<DenseState> layers;
    TrainPrecision precision = TrainPrecision::FP32;
    std::string rng; ///< mt19937_64 stream state (textual, stable)

    bool operator==(const MlpState &o) const;
    bool operator!=(const MlpState &o) const { return !(*this == o); }
};

/**
 * Fully connected classifier with PACT-ReLU hidden activations and a
 * softmax cross-entropy head.
 */
class Mlp
{
  public:
    explicit Mlp(const MlpConfig &cfg);

    /** Forward pass at the configured training precision. */
    Tensor forward(const Tensor &x);

    /** One SGD step on a minibatch; returns the batch loss. */
    float trainStep(const Tensor &x, const std::vector<int> &labels);

    /**
     * Forward + backward only: compute and cache the gradients of a
     * minibatch without touching the weights. The loss gradient is
     * multiplied by @p loss_scale before backpropagation (dynamic
     * loss scaling lifts HFP8's small backward-format errors out of
     * the FP8 underflow region); gradients stay *scaled* until
     * applyStep() divides them back out. @p loss_scale 1 reproduces
     * the historical trainStep math bit-for-bit.
     */
    GradHealth computeGradients(const Tensor &x,
                                const std::vector<int> &labels,
                                float loss_scale = 1.0f);

    /**
     * Apply the pending (scaled) gradients as one SGD-with-momentum
     * update, unscaling by @p inv_scale (= 1 / loss_scale). Call at
     * most once per computeGradients().
     */
    void applyStep(float inv_scale = 1.0f);

    /** Run @p epochs of minibatch SGD over @p train; a non-positive
     *  @p batch_size throws InvalidArgument. */
    void train(const Dataset &train, int epochs, int64_t batch_size);

    /** Classification accuracy at the configured precision. */
    double evaluate(const Dataset &test);

    /**
     * Deploy-time INT quantized inference: SaWB-quantized weights and
     * PACT-quantized activations through the FXU executor at
     * @p width bits. First and last layers stay FP16, mirroring the
     * precision-assignment rule the compiler applies on RaPiD.
     */
    double evaluateInt(const Dataset &test, unsigned width);

    /** Learned PACT clip value of hidden layer @p i. */
    float pactAlpha(size_t i) const;

    size_t numLayers() const { return layers_.size(); }

    /** The GEMM precision currently executing. */
    TrainPrecision precision() const { return gemm_.precision; }

    /**
     * Switch the GEMM execution precision mid-run — the recovery
     * ladder's HFP8 -> FP16 escalation. Master weights, momentum and
     * PACT state carry over untouched.
     */
    void setPrecision(TrainPrecision precision)
    {
        gemm_.precision = precision;
    }

    /** Every master weight, bias, and PACT alpha is finite. */
    bool weightsFinite() const;

    /**
     * Bit-exact snapshot / restore of all trainable state, the model
     * half of the deterministic checkpoint format. importState
     * validates layer shapes against this model's configuration.
     */
    MlpState exportState() const;
    void importState(const MlpState &state);

    /** Attach a fault injector (TrainGemm::injector) to every GEMM, or
     *  detach with nullptr. The injector must outlive the model. */
    void setFaultInjector(const FaultInjector *injector)
    {
        gemm_.injector = injector;
    }

    /** Cumulative TrainerGemm fault outcomes. */
    const FaultStats &faultStats() const { return gemm_.fault_stats; }

  private:
    /** A dense layer with its PACT clip. */
    struct Dense : DenseLayer
    {
        Dense(int64_t in, int64_t out, Rng &rng, float alpha_init)
            : DenseLayer(in, out, rng), alpha(alpha_init)
        {
        }

        float alpha;        ///< PACT clip (hidden layers only)
        float alpha_vel = 0.0f;
        float alpha_grad = 0.0f;
        Tensor pre_act;     ///< pre-activation cache
    };

    void applyUpdates(Dense &d, float inv_scale);

    MlpConfig cfg_;
    TrainGemm gemm_;
    std::vector<Dense> layers_;
    Rng rng_;
};

/** Result of a precision-parity experiment. */
struct ParityResult
{
    double baseline_accuracy;  ///< FP32 training / FP32 inference
    double reduced_accuracy;   ///< reduced-precision counterpart
    double gap() const { return baseline_accuracy - reduced_accuracy; }
};

/**
 * Train at FP32 with PACT, then evaluate FP32 vs INT-@p width
 * PACT/SaWB inference (the Section II-C claim).
 */
ParityResult runInferenceParity(unsigned width, const Dataset &train,
                                const Dataset &test, int epochs = 30,
                                int64_t batch = 32);

} // namespace rapid

#endif // RAPID_FUNC_TRAINER_HH
