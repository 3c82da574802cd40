/**
 * @file
 * train_lowprec: HFP8 MLP training through the resilient trainer on
 * spirals (fault-free and faulted full-ladder cells, at a width whose
 * reductions fit one 64-element accumulation chunk and at one that
 * spans several), FP32 PACT training, and INT4/INT2 deployment of the
 * PACT models through Mlp::evaluateInt. The precision, tensor, func and
 * resilience layers do the work; no serving layer runs.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "func/quantized_ops.hh"
#include "precision/chunk_accumulator.hh"
#include "precision/float_format.hh"
#include "precision/mpe_datapath.hh"
#include "precision/quantize.hh"
#include "resilience/checkpoint.hh"
#include "resilience/resilient_trainer.hh"
#include "tensor/ops.hh"

using namespace rapid;

namespace perfbench {

namespace {

constexpr int64_t kBatch = 32;
constexpr int64_t kNarrow = 32;  ///< every reduction <= one 64-chunk
constexpr int64_t kWide = 160;   ///< K = 160 spans three chunks
/// Steps per cell, sized so the four cells take similar host time.
constexpr uint64_t kNarrowSteps = 96;
constexpr uint64_t kNarrowFaultedSteps = 32;
constexpr uint64_t kWideSteps = 8;
/// FP32 PACT steps per model at each width (kFp32Widths order).
constexpr uint64_t kFp32Steps[] = {60, 16};
/// Faults per GEMM output element. With one retry and one rollback
/// per failing step, kNarrowRate makes retry, rollback and HFP8 ->
/// FP16 escalation all fire in the narrow faulted cell. A wide step
/// has ~20x the output elements, so kWideRate strikes a few times per
/// step and the ladder's retries and rollbacks run across the
/// inter-chunk fold.
constexpr double kNarrowRate = 6e-3;
constexpr double kWideRate = 1e-4;
/// The faulted cells replay one fixed fault campaign (data, initial
/// weights and fault stream from this seed) whatever --seed is, so
/// their recovery work is identical across seeds: the ladder's wasted
/// work varies by up to 3x between fault realizations, which would
/// otherwise dominate the run-to-run spread of the step rate. With
/// this campaign every rung fires and the trained models evaluate
/// cleanly; some other campaigns leave a poisoned model whose
/// Mlp::evaluate throws a NumericFault.
constexpr uint64_t kFaultCampaignSeed = 5;

struct Cell
{
    const char *name;
    int64_t width;
    bool faulted;
    uint64_t steps;
};

constexpr Cell kCells[] = {
    {"narrow-clean", kNarrow, false, kNarrowSteps},
    {"narrow-faulted", kNarrow, true, kNarrowFaultedSteps},
    {"wide-clean", kWide, false, kWideSteps},
    {"wide-faulted", kWide, true, kWideSteps},
};

constexpr int64_t kFp32Widths[] = {kNarrow, kWide};
constexpr unsigned kIntWidths[] = {4, 2};

/** Width of FP32 model @p idx (models alternate kFp32Widths). */
constexpr size_t
fp32Kind(size_t idx)
{
    return idx % std::size(kFp32Widths);
}

/** MACs of one gradient computation (three GEMMs per layer). */
uint64_t
gradMacs(int64_t width)
{
    const int64_t d[] = {2, width, width, 2};
    uint64_t n = 0;
    for (int i = 0; i < 3; ++i)
        n += 3 * uint64_t(kBatch * d[i] * d[i + 1]);
    return n;
}

/** MACs of one forward sample through the model. */
uint64_t
forwardMacsPerSample(int64_t width)
{
    return uint64_t(2 * width + width * width + width * 2);
}

void
digestCheckpoint(Digest &d, const TrainerCheckpoint &ckpt)
{
    const std::vector<uint8_t> bytes = serializeCheckpoint(ckpt);
    d.u64(bytes.size());
    d.bytes(bytes.data(), bytes.size());
}

struct CellOut
{
    RecoveryStats stats;
    FaultStats faults;
    TrainerCheckpoint ckpt;
    uint64_t ckpt_bytes = 0;
    double accuracy = 0;
    TrainPrecision final_precision = TrainPrecision::HFP8;
    std::string error;
};

struct Fp32Out
{
    MlpState state;
    double accuracy = 0;
    std::string error;
};

struct IntOut
{
    double accuracy = 0;
    std::string error;
};

class TrainLowprec : public Workload
{
  public:
    explicit TrainLowprec(uint64_t seed) : seed_(seed) {}

    std::vector<PartInfo>
    parts() const override
    {
        return {{"hfp8_steps_per_s", "steps/s"},
                {"fp32_steps_per_s", "steps/s"},
                {"int_infer_samples_per_s", "samples/s"}};
    }

    double oneTimeSetupSeconds() const override { return fit_s_; }

    void
    setup(Tracer &tr) override
    {
        if (fit_s_ == 0) {
            // The SaWB stock coefficients are fitted lazily once per
            // process; pay it here, serially, before any pool task
            // could construct a quantizer.
            Scope s(tr, "precision.sawb_first_fit");
            const double t0 = nowSeconds();
            SawbQuantizer::stockCoefficients(4);
            SawbQuantizer::stockCoefficients(2);
            fit_s_ = nowSeconds() - t0;
        }
        Scope s(tr, "train.setup");
        for (const bool campaign : {false, true}) {
            Rng rng(seedMix(campaign ? kFaultCampaignSeed : seed_, 1));
            const Dataset all = makeSpirals(rng, 256);
            train_[campaign] = all.slice(0, 384);
            test_[campaign] = all.slice(384, 128);
        }
        Rng deploy_rng(seedMix(seed_, 2));
        deploy_ = makeSpirals(deploy_rng, 512);
    }

    MlpConfig
    modelConfig(int64_t width, TrainPrecision p, uint64_t salt,
                bool campaign = false) const
    {
        MlpConfig cfg;
        cfg.dims = {2, width, width, 2};
        cfg.precision = p;
        cfg.seed = seedMix(campaign ? kFaultCampaignSeed : seed_, salt);
        return cfg;
    }

    ResilienceConfig
    cellConfig(const Cell &c) const
    {
        ResilienceConfig cfg;
        cfg.checkpoint_interval = 8;
        cfg.max_retries = 1;
        cfg.max_rollbacks = 1;
        if (c.faulted)
            cfg.fault = FaultConfig::withRate(
                c.width == kNarrow ? kNarrowRate : kWideRate,
                seedMix(kFaultCampaignSeed, 3));
        return cfg;
    }

    CellOut
    runCell(Tracer &tr, size_t idx) const
    {
        const Cell &c = kCells[idx];
        CellOut out;
        try {
            ResilientTrainer trainer(modelConfig(c.width,
                                                 TrainPrecision::HFP8,
                                                 10 + idx, c.faulted),
                                     cellConfig(c));
            {
                Scope s(tr, "resilience.run_steps", int64_t(idx));
                trainer.runSteps(train_[c.faulted], kBatch, c.steps);
            }
            {
                Scope s(tr, "resilience.checkpoint", int64_t(idx));
                out.ckpt = trainer.checkpointNow();
                out.ckpt_bytes = checkpointBytes(out.ckpt);
            }
            {
                Scope s(tr, "func.evaluate", int64_t(idx));
                out.accuracy = trainer.evaluate(test_[c.faulted]);
            }
            out.stats = trainer.stats();
            out.faults = trainer.faultStats();
            out.final_precision = trainer.model().precision();
        } catch (const Error &e) {
            out.error = e.what();
        }
        return out;
    }

    Fp32Out
    trainFp32(Tracer &tr, size_t idx) const
    {
        Fp32Out out;
        try {
            MlpConfig cfg = modelConfig(kFp32Widths[fp32Kind(idx)],
                                        TrainPrecision::FP32, 20 + idx);
            Mlp model(cfg);
            const int64_t per_epoch = train_[0].size() / kBatch;
            {
                Scope s(tr, "func.train_step_fp32", int64_t(idx));
                for (uint64_t k = 0; k < kFp32Steps[fp32Kind(idx)]; ++k) {
                    const Dataset mb = train_[0].slice(
                        int64_t(k % uint64_t(per_epoch)) * kBatch, kBatch);
                    model.trainStep(mb.features, mb.labels);
                }
            }
            out.accuracy = model.evaluate(test_[0]);
            out.state = model.exportState();
        } catch (const Error &e) {
            out.error = e.what();
        }
        return out;
    }

    RoundResult
    round(Tracer &tr) override
    {
        RoundResult r;
        r.parts.resize(3);
        Digest dg;

        // HFP8 cells: independent trainings, gathered by index.
        double t0 = nowSeconds();
        const std::vector<CellOut> cells =
            parallelMap(std::size(kCells),
                        [&](size_t i) { return runCell(tr, i); });
        r.parts[0].seconds = nowSeconds() - t0;
        uint64_t steps = 0, attempts_macs = 0, ckpt_bytes = 0;
        for (size_t i = 0; i < cells.size(); ++i) {
            const CellOut &c = cells[i];
            ++r.attempted;
            if (!c.error.empty()) {
                ++r.failed;
                r.errors.push_back(kCells[i].name + (": " + c.error));
                continue;
            }
            if (!c.stats.closed() || !c.faults.accountingConsistent()) {
                ++r.failed;
                r.errors.push_back(std::string(kCells[i].name) +
                                   ": recovery accounting open");
            }
            const RecoveryStats &s = c.stats;
            steps += s.steps;
            attempts_macs += (s.steps + s.retries + s.replayed) *
                             gradMacs(kCells[i].width);
            ckpt_bytes += c.ckpt_bytes;
            r.counters["resilience.steps"] += s.steps;
            r.counters["resilience.retries"] += s.retries;
            r.counters["resilience.rollbacks"] += s.rollbacks;
            r.counters["resilience.escalations"] += s.escalations;
            r.counters["resilience.replayed"] += s.replayed;
            r.counters["resilience.checkpoints"] += s.checkpoints;
            r.counters["fault.injected"] += c.faults.injected;
            for (uint64_t v : {s.steps, s.clean, s.retried, s.rolled_back,
                               s.escalated, s.skipped, s.retries,
                               s.rollbacks, s.escalations, s.checkpoints,
                               s.replayed, c.faults.sampled,
                               c.faults.injected, c.faults.sdc,
                               c.faults.masked})
                dg.u64(v);
            digestCheckpoint(dg, c.ckpt);
            dg.f64(c.accuracy);
            dg.u64(uint64_t(c.final_precision));
        }
        r.parts[0].work = double(steps);
        r.counters["train.grad_macs"] = attempts_macs;
        r.counters["resilience.checkpoint_bytes"] = ckpt_bytes;

        // FP32 PACT training, two models per width.
        t0 = nowSeconds();
        std::vector<Fp32Out> fp32 = parallelMap(
            2 * std::size(kFp32Widths),
            [&](size_t i) { return trainFp32(tr, i); });
        r.parts[1].seconds = nowSeconds() - t0;
        uint64_t fp32_steps = 0, fp32_macs = 0;
        for (size_t i = 0; i < fp32.size(); ++i) {
            fp32_steps += kFp32Steps[fp32Kind(i)];
            fp32_macs += kFp32Steps[fp32Kind(i)] *
                         gradMacs(kFp32Widths[fp32Kind(i)]);
        }
        r.parts[1].work = double(fp32_steps);
        r.counters["fp32.steps"] = fp32_steps;
        r.counters["fp32.macs"] = fp32_macs;

        // INT4/INT2 deployment of every PACT model.
        const size_t n_int = fp32.size() * std::size(kIntWidths);
        t0 = nowSeconds();
        const std::vector<IntOut> ints = parallelMap(n_int, [&](size_t i) {
            const size_t model_idx = i / std::size(kIntWidths);
            const Fp32Out &m = fp32[model_idx];
            IntOut o;
            if (!m.error.empty()) {
                o.error = "no trained FP32 model";
                return o;
            }
            try {
                Mlp model(modelConfig(kFp32Widths[fp32Kind(model_idx)],
                                      TrainPrecision::FP32, 0));
                model.importState(m.state);
                Scope s(tr, "func.evaluate_int", int64_t(i));
                o.accuracy = model.evaluateInt(
                    deploy_, kIntWidths[i % std::size(kIntWidths)]);
            } catch (const Error &e) {
                o.error = e.what();
            }
            return o;
        });
        r.parts[2].seconds = nowSeconds() - t0;
        r.parts[2].work = double(n_int) * double(deploy_.size());
        uint64_t int_macs = 0;
        for (size_t i = 0; i < n_int; ++i)
            int_macs += uint64_t(deploy_.size()) *
                        forwardMacsPerSample(kFp32Widths[fp32Kind(
                            i / std::size(kIntWidths))]);
        r.counters["int.samples"] = uint64_t(r.parts[2].work);
        r.counters["int.macs"] = int_macs;

        for (size_t i = 0; i < fp32.size(); ++i) {
            ++r.attempted;
            if (!fp32[i].error.empty()) {
                ++r.failed;
                r.errors.push_back("fp32: " + fp32[i].error);
                continue;
            }
            TrainerCheckpoint ck;
            ck.model = fp32[i].state;
            digestCheckpoint(dg, ck);
            dg.f64(fp32[i].accuracy);
        }
        for (size_t i = 0; i < n_int; ++i) {
            ++r.attempted;
            if (!ints[i].error.empty()) {
                ++r.failed;
                r.errors.push_back("int" +
                                   std::to_string(
                                       kIntWidths[i % std::size(kIntWidths)]) +
                                   ": " + ints[i].error);
                continue;
            }
            dg.f64(ints[i].accuracy);
        }
        r.digest = dg.value();
        last_fp32_ = fp32.empty() ? MlpState{} : fp32[1].state;
        return r;
    }

    void probe(Tracer &tr, std::vector<LayerMetric> &out) override;

  private:
    uint64_t seed_;
    double fit_s_ = 0;
    /// [0]: seeded spirals; [1]: the fixed fault campaign's spirals.
    Dataset train_[2], test_[2];
    Dataset deploy_;
    MlpState last_fp32_; ///< a wide FP32 PACT model of the last round
};

/** Repeat @p fn @p reps times under span @p name; host seconds. */
template <typename Fn>
double
timed(Tracer &tr, const char *name, int reps, Fn &&fn)
{
    Scope s(tr, name);
    const double t0 = nowSeconds();
    for (int i = 0; i < reps; ++i)
        fn();
    return nowSeconds() - t0;
}

/** Keeps a computed value observable so the loop is not elided. */
volatile double g_sink = 0;

void
TrainLowprec::probe(Tracer &tr, std::vector<LayerMetric> &out)
{
    // Operands: the wide hidden GEMM of training, with the values a
    // trained PACT model feeds it — activations after layer 1 of a
    // training minibatch, and the layer-2 weights.
    const Dataset mb = train_[0].slice(0, kBatch);
    const MlpState &st = last_fp32_;
    if (st.layers.size() != 3)
        return;
    Tensor w1({kWide, 2}), b1({kWide}), w2t({kWide, kWide});
    w1.storage() = st.layers[0].w;
    b1.storage() = st.layers[0].b;
    Tensor w2({kWide, kWide});
    w2.storage() = st.layers[1].w;
    w2t = transpose(w2);
    Tensor h = biasAdd(matmul(mb.features, transpose(w1)), b1);
    const float alpha = st.layers[0].alpha;
    h.apply([alpha](float v) { return std::clamp(v, 0.0f, alpha); });
    const Tensor &a = h;   // (B x K), K = kWide
    const Tensor &b = w2t; // (K x N)
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const uint64_t macs = uint64_t(m * k * n);

    std::vector<float> values(a.storage());
    values.insert(values.end(), b.storage().begin(), b.storage().end());
    const FloatFormat fwd = fp8e4m3(4);
    constexpr int kCodecReps = 200;
    const uint64_t coded = uint64_t(kCodecReps) * values.size();

    std::vector<uint32_t> codes(values.size());
    const double enc_s = timed(tr, "precision.fp8_encode", kCodecReps, [&] {
        for (size_t i = 0; i < values.size(); ++i)
            codes[i] = fwd.encode(values[i]);
    });
    double sink = 0;
    const double dec_s = timed(tr, "precision.fp8_decode", kCodecReps, [&] {
        for (uint32_t c : codes)
            sink += double(fwd.decode(c));
    });
    const FloatFormat &dl = dlfloat16();
    const double q_s =
        timed(tr, "precision.dlfloat16_quantize", kCodecReps, [&] {
            for (float v : values)
                sink += double(dl.quantize(v));
        });

    // One chunked dot per output element, products formed exactly.
    constexpr int kDotReps = 4;
    const uint64_t adds = uint64_t(kDotReps) * macs;
    const double add_s = timed(tr, "precision.chunk_add", kDotReps, [&] {
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j) {
                ChunkAccumulator acc(64);
                for (int64_t kk = 0; kk < k; ++kk)
                    acc.add(double(a.at(i, kk)) * double(b.at(kk, j)));
                sink += double(acc.total());
            }
    });
    MpeDatapath dp(4);
    const double fma_s = timed(tr, "precision.hfp8_fma", kDotReps, [&] {
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (int64_t kk = 0; kk < k; ++kk)
                    acc = dp.hfp8Fma(a.at(i, kk), Fp8Kind::Forward,
                                     b.at(kk, j), Fp8Kind::Forward, acc);
                sink += double(acc);
            }
    });

    constexpr int kFp32Reps = 200;
    const double mm_s = timed(tr, "tensor.matmul", kFp32Reps,
                              [&] { sink += double(matmul(a, b)[0]); });
    constexpr int kEmuReps = 4;
    const double hfp8_s = timed(tr, "func.hfp8_matmul", kEmuReps, [&] {
        sink += double(
            hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward)[0]);
    });
    const double fp16_s = timed(tr, "func.fp16_matmul", kEmuReps,
                                [&] { sink += double(fp16Matmul(a, b)[0]); });
    const SawbQuantizer wq(w2.storage(), 4);
    const PactQuantizer aq(alpha, 4);
    constexpr int kIntReps = 40;
    const double int_s = timed(tr, "func.int_matmul", kIntReps, [&] {
        sink += double(intMatmul(a, aq, b, wq, 4)[0]);
    });
    constexpr int kSawbReps = 400;
    const double sawb_s = timed(tr, "precision.sawb_construct", kSawbReps, [&] {
        sink += double(SawbQuantizer(w2.storage(), 4).alpha());
    });

    // Gradient computation and update of the wide HFP8 model, on the
    // workload's own minibatch schedule.
    Mlp model(modelConfig(kWide, TrainPrecision::HFP8, 12));
    constexpr int kStepReps = 4;
    const int64_t per_epoch = train_[0].size() / kBatch;
    double grad_s = 0, apply_s = 0;
    for (int s = 0; s < kStepReps; ++s) {
        const Dataset batch =
            train_[0].slice(int64_t(s % per_epoch) * kBatch, kBatch);
        double t0 = nowSeconds();
        {
            Scope sc(tr, "func.compute_gradients");
            sink += double(
                model.computeGradients(batch.features, batch.labels).loss);
        }
        grad_s += nowSeconds() - t0;
        t0 = nowSeconds();
        {
            Scope sc(tr, "func.apply_step");
            model.applyStep();
        }
        apply_s += nowSeconds() - t0;
    }
    g_sink = sink;

    const double values_d = double(coded);
    out.push_back({"precision.fp8_encode_ns", "ns", 1e9 * enc_s / values_d,
                   "precision.values_coded", values_d});
    out.push_back({"precision.fp8_decode_ns", "ns", 1e9 * dec_s / values_d,
                   "precision.values_coded", values_d});
    out.push_back({"precision.dlfloat16_quantize_ns", "ns",
                   1e9 * q_s / values_d, "precision.values_coded",
                   values_d});
    out.push_back({"precision.chunk_add_ns", "ns",
                   1e9 * add_s / double(adds), "precision.chunk_adds",
                   double(adds)});
    out.push_back({"precision.hfp8_fma_ns", "ns", 1e9 * fma_s / double(adds),
                   "precision.fmas", double(adds)});
    out.push_back({"precision.sawb_first_fit_s", "s", fit_s_,
                   "precision.sawb_fits", 2});
    out.push_back({"precision.sawb_construct_s", "s", sawb_s / kSawbReps,
                   "precision.sawb_weights",
                   double(kSawbReps) * double(w2.numel())});
    out.push_back({"tensor.matmul_macs_per_s", "MAC/s",
                   double(macs) * kFp32Reps / mm_s, "tensor.matmul_macs",
                   double(macs) * kFp32Reps});
    out.push_back({"func.hfp8_matmul_macs_per_s", "MAC/s",
                   double(macs) * kEmuReps / hfp8_s, "func.hfp8_macs",
                   double(macs) * kEmuReps});
    out.push_back({"func.fp16_matmul_macs_per_s", "MAC/s",
                   double(macs) * kEmuReps / fp16_s, "func.fp16_macs",
                   double(macs) * kEmuReps});
    out.push_back({"func.int_matmul_macs_per_s", "MAC/s",
                   double(macs) * kIntReps / int_s, "func.int_macs",
                   double(macs) * kIntReps});
    out.push_back({"func.compute_gradients_s", "s", grad_s / kStepReps,
                   "func.grad_macs",
                   double(kStepReps) * double(gradMacs(kWide))});
    out.push_back({"func.apply_step_s", "s", apply_s / kStepReps,
                   "func.steps", double(kStepReps)});
}

} // namespace

std::unique_ptr<Workload>
makeTrainLowprec(uint64_t seed)
{
    return std::make_unique<TrainLowprec>(seed);
}

} // namespace perfbench
