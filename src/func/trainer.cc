#include "func/trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hh"

namespace rapid {

void
validateMlpConfig(const MlpConfig &cfg)
{
    RAPID_CHECK_ARG(cfg.dims.size() >= 2,
                    "MlpConfig.dims needs at least 2 entries (input and "
                    "output width), got ", cfg.dims.size());
    for (size_t i = 0; i < cfg.dims.size(); ++i)
        RAPID_CHECK_ARG(cfg.dims[i] > 0, "MlpConfig.dims[", i,
                        "] must be positive, got ", cfg.dims[i]);
    RAPID_CHECK_ARG(std::isfinite(cfg.learning_rate) &&
                        cfg.learning_rate > 0.0f,
                    "MlpConfig.learning_rate must be finite and "
                    "positive, got ", cfg.learning_rate);
    RAPID_CHECK_ARG(std::isfinite(cfg.momentum) && cfg.momentum >= 0.0f &&
                        cfg.momentum < 1.0f,
                    "MlpConfig.momentum must be in [0, 1), got ",
                    cfg.momentum);
    RAPID_CHECK_ARG(std::isfinite(cfg.pact_alpha_init) &&
                        cfg.pact_alpha_init > 0.0f,
                    "MlpConfig.pact_alpha_init must be finite and "
                    "positive, got ", cfg.pact_alpha_init);
    RAPID_CHECK_ARG(cfg.pact_bits >= 2,
                    "MlpConfig.pact_bits must be at least 2, got ",
                    cfg.pact_bits);
    RAPID_CHECK_ARG(std::isfinite(cfg.alpha_lr_scale) &&
                        cfg.alpha_lr_scale >= 0.0f,
                    "MlpConfig.alpha_lr_scale must be finite and "
                    ">= 0, got ", cfg.alpha_lr_scale);
    RAPID_CHECK_ARG(std::isfinite(cfg.alpha_decay) &&
                        cfg.alpha_decay >= 0.0f,
                    "MlpConfig.alpha_decay must be finite and >= 0, "
                    "got ", cfg.alpha_decay);
}

const char *
trainPrecisionName(TrainPrecision precision)
{
    switch (precision) {
      case TrainPrecision::FP32:
        return "fp32";
      case TrainPrecision::FP16:
        return "fp16";
      case TrainPrecision::HFP8:
        return "hfp8";
    }
    return "?";
}

namespace {

/** IEEE equality (+0 equals -0, NaN equals nothing) spelled without
 *  ==, which -Wfloat-equal rejects. */
bool
sameValue(float a, float b)
{
    return a >= b && a <= b;
}

void
injectFaults(TrainGemm &g, Tensor &out)
{
    // Mirror of the systolic MacOutput model at the training GEMM
    // boundary: a struck output element has one bit of its DLFloat16
    // (south-bus) encoding flipped. Items advance monotonically so
    // each executed GEMM — including a replay of the same step after
    // retry or rollback — is an independent exposure window. The
    // Bernoulli is the hash pre-filter: the full mt19937 stream is
    // only built for struck elements, keeping the per-element cost at
    // a hash rather than an RNG construction.
    const int64_t n = out.numel();
    const uint64_t base = g.fault_item;
    g.fault_item += uint64_t(n);
    g.fault_stats.sampled += uint64_t(n);
    for (const uint64_t i : g.injector->hashEventHits(FaultSite::TrainerGemm,
                                                      base, uint64_t(n))) {
        const uint64_t item = base + i;
        ++g.fault_stats.injected;
        Rng rng = g.injector->stream(FaultSite::TrainerGemm, item);
        const FaultOutcome hit = g.injector->resolveProtection(
            FaultSite::TrainerGemm, rng, g.fault_stats);
        if (hit != FaultOutcome::Silent)
            continue; // corrected in place, or the GEMM tile replays
        const uint32_t word = dlfloat16().encode(out[i]);
        const float clean = dlfloat16().decode(word);
        const float bad = dlfloat16().decode(g.injector->flipOneBit(
            rng, dlfloat16().storageBits(), word));
        if (sameValue(bad, clean)) {
            ++g.fault_stats.masked; // e.g. a sign flip on zero
            continue;
        }
        ++g.fault_stats.sdc;
        out[i] = bad;
    }
}

} // namespace

Tensor
TrainGemm::operator()(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
                      Fp8Kind b_kind)
{
    Tensor out;
    switch (precision) {
      case TrainPrecision::FP32:
        out = matmul(a, b);
        break;
      case TrainPrecision::FP16:
        out = fp16Matmul(a, b, exec);
        break;
      case TrainPrecision::HFP8:
        out = hfp8Matmul(a, a_kind, b, b_kind, exec);
        break;
      default:
        rapid_panic("unknown training precision");
    }
    if (injector && injector->active(FaultSite::TrainerGemm))
        injectFaults(*this, out);
    return out;
}

DenseLayer::DenseLayer(int64_t in, int64_t out, Rng &rng)
    : w({out, in}), b({out}), w_vel({out, in}), b_vel({out})
{
    w.fillKaiming(rng, in);
}

Tensor
DenseLayer::forward(TrainGemm &gemm, const Tensor &x)
{
    x_cache = x;
    // Forward GEMM: both operands in the FP8 forward format (Fig 3).
    Tensor y = gemm(x, Fp8Kind::Forward, transpose(w), Fp8Kind::Forward);
    return biasAdd(y, b);
}

Tensor
DenseLayer::backward(TrainGemm &gemm, const Tensor &dy)
{
    // Weight-gradient GEMM: errors in the FP8 backward format, cached
    // activations in the forward format (Fig 3).
    w_grad = gemm(transpose(dy), Fp8Kind::Backward, x_cache,
                  Fp8Kind::Forward);
    // Bias gradient: column reduction, performed on the SFU in FP32.
    // Row by row, so each column still sums in ascending i.
    rapid_assert(dy.rank() == 2, "dense error must be rank-2");
    const int64_t rows = dy.dim(0), cols = dy.dim(1);
    std::vector<double> acc(size_t(cols), 0.0);
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = dy.data() + i * cols;
        for (int64_t j = 0; j < cols; ++j)
            acc[size_t(j)] += double(row[j]);
    }
    b_grad = Tensor({cols});
    for (int64_t j = 0; j < cols; ++j)
        b_grad[j] = float(acc[size_t(j)]);
    // Data-gradient GEMM: errors (backward format) x weights (forward).
    return gemm(dy, Fp8Kind::Backward, w, Fp8Kind::Forward);
}

void
DenseLayer::sgdStep(float lr, float mom, float inv_scale)
{
    // inv_scale un-scales loss-scaled gradients. Multiplication by
    // 1.0f is exact under IEEE 754, so an unscaled step stays
    // bit-identical to plain SGD.
    for (int64_t i = 0; i < w.numel(); ++i) {
        w_vel[i] = mom * w_vel[i] - lr * (w_grad[i] * inv_scale);
        w[i] += w_vel[i];
    }
    for (int64_t i = 0; i < b.numel(); ++i) {
        b_vel[i] = mom * b_vel[i] - lr * (b_grad[i] * inv_scale);
        b[i] += b_vel[i];
    }
}

bool
MlpState::operator==(const MlpState &o) const
{
    auto bitsEqual = [](const std::vector<float> &a,
                        const std::vector<float> &b) {
        if (a.size() != b.size())
            return false;
        // memcmp semantics: compare encodings, not float values, so
        // NaNs and signed zeros count as differences.
        return a.empty() ||
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(float)) == 0;
    };
    if (precision != o.precision || rng != o.rng ||
        layers.size() != o.layers.size())
        return false;
    for (size_t i = 0; i < layers.size(); ++i) {
        const DenseState &a = layers[i];
        const DenseState &b = o.layers[i];
        float av[2] = {a.alpha, a.alpha_vel};
        float bv[2] = {b.alpha, b.alpha_vel};
        if (!bitsEqual(a.w, b.w) || !bitsEqual(a.b, b.b) ||
            !bitsEqual(a.w_vel, b.w_vel) || !bitsEqual(a.b_vel, b.b_vel) ||
            std::memcmp(av, bv, sizeof(av)) != 0)
            return false;
    }
    return true;
}

Mlp::Mlp(const MlpConfig &cfg)
    : cfg_(cfg), gemm_{cfg.precision, cfg.exec}, rng_(cfg.seed)
{
    validateMlpConfig(cfg);
    for (size_t i = 0; i + 1 < cfg.dims.size(); ++i)
        layers_.emplace_back(cfg.dims[i], cfg.dims[i + 1], rng_,
                             cfg.pact_alpha_init);
}

Tensor
Mlp::forward(const Tensor &x)
{
    Tensor h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
        Dense &d = layers_[i];
        Tensor y = d.forward(gemm_, h);
        d.pre_act = y;
        if (i + 1 < layers_.size()) {
            if (cfg_.use_pact) {
                const float alpha = d.alpha;
                y.apply([alpha](float v) {
                    return std::clamp(v, 0.0f, alpha);
                });
            } else {
                y.apply([](float v) { return v > 0 ? v : 0.0f; });
            }
        }
        h = std::move(y);
    }
    return h;
}

void
Mlp::applyUpdates(Dense &d, float inv_scale)
{
    const float lr = cfg_.learning_rate;
    const float mom = cfg_.momentum;
    d.sgdStep(lr, mom, inv_scale);
    if (cfg_.use_pact) {
        d.alpha_vel = mom * d.alpha_vel
                      - lr * cfg_.alpha_lr_scale *
                            (d.alpha_grad * inv_scale);
        d.alpha = std::max(0.1f, d.alpha + d.alpha_vel);
    }
}

GradHealth
Mlp::computeGradients(const Tensor &x, const std::vector<int> &labels,
                      float loss_scale)
{
    Tensor logits = forward(x);
    GradHealth health;
    health.loss = softmaxCrossEntropy(logits, labels);
    health.loss_finite = std::isfinite(health.loss);
    Tensor dy = softmaxCrossEntropyGrad(logits, labels);
    if (!sameValue(loss_scale, 1.0f))
        dy.apply([loss_scale](float v) { return v * loss_scale; });

    for (size_t li = layers_.size(); li-- > 0;) {
        Dense &d = layers_[li];
        if (li + 1 < layers_.size()) {
            // Backprop through the PACT / ReLU activation (STE).
            Tensor gated = dy;
            float alpha_grad = 0.0f;
            if (cfg_.use_pact) {
                const PactQuantizer q(d.alpha, cfg_.pact_bits);
                for (int64_t i = 0; i < dy.numel(); ++i) {
                    const float pre = d.pre_act[i];
                    alpha_grad += dy[i] * q.gradAlpha(pre);
                    gated[i] = dy[i] * q.gradInput(pre);
                }
            } else {
                for (int64_t i = 0; i < dy.numel(); ++i)
                    gated[i] = d.pre_act[i] > 0 ? dy[i] : 0.0f;
            }
            d.alpha_grad = alpha_grad + cfg_.alpha_decay * d.alpha;
            dy = d.backward(gemm_, gated);
        } else {
            dy = d.backward(gemm_, dy);
        }
    }
    // Per-step finiteness scan over every pending gradient: the
    // sensor the loss scaler's skip-step decision and the recovery
    // ladder both read.
    for (const Dense &d : layers_) {
        for (int64_t i = 0; i < d.w_grad.numel(); ++i) {
            const float g = d.w_grad[i];
            if (!std::isfinite(g))
                health.grads_finite = false;
            else
                health.grad_max_abs =
                    std::max(health.grad_max_abs, std::abs(g));
        }
        for (int64_t i = 0; i < d.b_grad.numel(); ++i) {
            const float g = d.b_grad[i];
            if (!std::isfinite(g))
                health.grads_finite = false;
            else
                health.grad_max_abs =
                    std::max(health.grad_max_abs, std::abs(g));
        }
        if (cfg_.use_pact && !std::isfinite(d.alpha_grad))
            health.grads_finite = false;
    }
    return health;
}

void
Mlp::applyStep(float inv_scale)
{
    for (auto &d : layers_)
        applyUpdates(d, inv_scale);
}

float
Mlp::trainStep(const Tensor &x, const std::vector<int> &labels)
{
    const GradHealth health = computeGradients(x, labels);
    applyStep();
    return health.loss;
}

void
Mlp::train(const Dataset &train, int epochs, int64_t batch_size)
{
    RAPID_CHECK_ARG(batch_size > 0, "batch_size must be positive, got ",
                    batch_size);
    for (int e = 0; e < epochs; ++e) {
        for (int64_t b = 0; b + batch_size <= train.size();
             b += batch_size) {
            Dataset mb = train.slice(b, batch_size);
            trainStep(mb.features, mb.labels);
        }
    }
}

double
Mlp::evaluate(const Dataset &test)
{
    Tensor logits = forward(test.features);
    return accuracy(logits, test.labels);
}

double
Mlp::evaluateInt(const Dataset &test, unsigned width)
{
    rapid_assert(cfg_.use_pact, "INT deployment requires PACT training");
    Tensor h = test.features;
    for (size_t i = 0; i < layers_.size(); ++i) {
        Dense &d = layers_[i];
        Tensor y({h.dim(0), d.w.dim(0)});
        if (i == 0 || i + 1 == layers_.size()) {
            y = fp16Matmul(h, transpose(d.w), cfg_.exec);
        } else {
            // Input of a hidden layer is post-PACT of layer i-1:
            // bounded to [0, alpha_{i-1}] and safe to quantize.
            PactQuantizer act_q(layers_[i - 1].alpha, width);
            SawbQuantizer wt_q(d.w.storage(), width);
            y = intMatmul(h, act_q, transpose(d.w), wt_q, width,
                          cfg_.exec);
        }
        y = biasAdd(y, d.b);
        if (i + 1 < layers_.size()) {
            const float alpha = d.alpha;
            y.apply([alpha](float v) {
                return std::clamp(v, 0.0f, alpha);
            });
        }
        h = std::move(y);
    }
    return accuracy(h, test.labels);
}

float
Mlp::pactAlpha(size_t i) const
{
    rapid_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].alpha;
}

bool
Mlp::weightsFinite() const
{
    for (const Dense &d : layers_) {
        if (!allFinite(d.w.data(), d.w.numel()) ||
            !allFinite(d.b.data(), d.b.numel()))
            return false;
        if (cfg_.use_pact && !std::isfinite(d.alpha))
            return false;
    }
    return true;
}

MlpState
Mlp::exportState() const
{
    MlpState state;
    state.precision = gemm_.precision;
    // The textual mt19937_64 representation is stable across runs and
    // platforms with the same libstdc++ wording; it round-trips the
    // stream position exactly.
    std::ostringstream oss;
    Rng rng_copy = rng_;
    oss << rng_copy.engine();
    state.rng = oss.str();
    for (const Dense &d : layers_) {
        DenseState ls;
        ls.w = d.w.storage();
        ls.b = d.b.storage();
        ls.w_vel = d.w_vel.storage();
        ls.b_vel = d.b_vel.storage();
        ls.alpha = d.alpha;
        ls.alpha_vel = d.alpha_vel;
        state.layers.push_back(std::move(ls));
    }
    return state;
}

void
Mlp::importState(const MlpState &state)
{
    RAPID_CHECK_ARG(state.layers.size() == layers_.size(),
                    "MlpState holds ", state.layers.size(),
                    " layers but the model has ", layers_.size());
    for (size_t i = 0; i < layers_.size(); ++i) {
        const DenseState &ls = state.layers[i];
        Dense &d = layers_[i];
        RAPID_CHECK_ARG(
            ls.w.size() == size_t(d.w.numel()) &&
                ls.b.size() == size_t(d.b.numel()) &&
                ls.w_vel.size() == size_t(d.w_vel.numel()) &&
                ls.b_vel.size() == size_t(d.b_vel.numel()),
            "MlpState layer ", i, " shape mismatch");
    }
    gemm_.precision = state.precision;
    std::istringstream iss(state.rng);
    iss >> rng_.engine();
    RAPID_CHECK_ARG(!iss.fail(),
                    "MlpState.rng does not parse as an mt19937_64 "
                    "stream state");
    for (size_t i = 0; i < layers_.size(); ++i) {
        const DenseState &ls = state.layers[i];
        Dense &d = layers_[i];
        d.w.storage() = ls.w;
        d.b.storage() = ls.b;
        d.w_vel.storage() = ls.w_vel;
        d.b_vel.storage() = ls.b_vel;
        d.alpha = ls.alpha;
        d.alpha_vel = ls.alpha_vel;
        d.alpha_grad = 0.0f;
    }
}

ParityResult
runInferenceParity(unsigned width, const Dataset &train,
                   const Dataset &test, int epochs, int64_t batch)
{
    MlpConfig cfg;
    cfg.dims = {train.featureDim(), 48, 48,
                1 + *std::max_element(train.labels.begin(),
                                      train.labels.end())};
    cfg.precision = TrainPrecision::FP32;
    cfg.use_pact = true;
    cfg.pact_bits = width;
    cfg.seed = 99;

    Mlp model(cfg);
    model.train(train, epochs, batch);
    return {model.evaluate(test), model.evaluateInt(test, width)};
}

} // namespace rapid
