/**
 * @file
 * chip_model: InferenceSession::run over all 11 benchmark networks x
 * {INT2, INT4, HFP8, FP16} x batch 1..64, dense and pruned (with
 * sparsity-aware throttling); TrainingSession::run over the networks x
 * {HFP8, FP16} x minibatch sizes x multi-chip system sizes; and sampled
 * layers of every network lowered by CodeGenerator::generate and run
 * through ChipSim::runBatch, CoreletSim and SystolicArraySim. The
 * compiler, perf, power, runtime, sim and interconnect layers do the
 * work.
 *
 * It also measures how the analytical PerfModel's per-layer cycles
 * compare with the ChipSim makespan on the sampled layers. The model
 * has no hardware reference, so this is an agreement ratio, not an
 * error figure.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "compiler/codegen.hh"
#include "perf/perf_model.hh"
#include "power/power_model.hh"
#include "runtime/session.hh"
#include "sim/chip_sim.hh"
#include "sim/corelet_sim.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

using namespace rapid;

namespace perfbench {

namespace {

constexpr Precision kPrecisions[] = {Precision::INT2, Precision::INT4,
                                     Precision::HFP8, Precision::FP16};
/// Layers sampled per network for the cycle-level simulators.
constexpr size_t kSamplesPerNet = 4;
/// Sampled layers must be small enough for cycle-by-cycle simulation:
/// the analytical model's cycles at batch 1 stay under this cap.
constexpr double kMaxModelCycles = 60000;
constexpr int64_t kMaxBatch = 64;
constexpr int64_t kMinibatches[] = {64,  128, 192, 256,  384,  512,
                                    768, 1024, 1536, 2048, 3072, 4096};
constexpr unsigned kChipCounts[] = {1, 2, 3, 4, 6, 8, 12, 16};

struct SessionJob
{
    size_t net;
    Precision precision;
    int64_t batch;
    bool sparse; ///< pruned variant with sparsity-aware throttling
};

struct TrainJob
{
    size_t net;
    Precision precision;
    int64_t minibatch;
    unsigned chips;
};

struct Sample
{
    size_t net;
    size_t layer;
    Precision precision;
};

/** PerfModel cycles comparable with the ChipSim makespan: the MPE
 *  array's streaming and overhead cycles plus exposed memory stall
 *  (quantization and auxiliary SFU work are not in the cycle sim). */
double
modelArrayCycles(const LayerPerf &p)
{
    return p.cycles.conv_gemm + p.cycles.overhead + p.cycles.mem_stall;
}

void
digestPerf(Digest &d, const NetworkPerf &p)
{
    d.f64(p.total_seconds);
    d.f64(p.total_macs);
    d.f64(p.mem_bytes);
    for (double v : {p.breakdown.conv_gemm, p.breakdown.overhead,
                     p.breakdown.quantization, p.breakdown.aux,
                     p.breakdown.retry, p.breakdown.checkpoint,
                     p.breakdown.mem_stall})
        d.f64(v);
    for (const LayerPerf &l : p.layers) {
        d.u64(uint64_t(l.precision));
        d.f64(l.cycles.total());
        d.f64(l.seconds);
    }
}

class ChipModel : public Workload
{
  public:
    explicit ChipModel(uint64_t seed) : seed_(seed) {}

    std::vector<PartInfo>
    parts() const override
    {
        return {{"model_evals_per_s", "evals/s"},
                {"sim_cycles_per_s", "cycles/s"},
                {"training_evals_per_s", "evals/s"}};
    }

    void
    setup(Tracer &tr) override
    {
        {
            Scope s(tr, "workloads.build");
            nets_ = allBenchmarks();
        }
        chip_ = makeInferenceChip();
        Rng rng(seedMix(seed_, 1));

        // Every network at every precision and batch 1..kMaxBatch, dense
        // and as a pruned variant (seeded average sparsity) compiled
        // with sparsity-aware throttling.
        pruned_ = nets_;
        for (Network &n : pruned_)
            applySparsityProfile(n, rng.uniform(0.3, 0.7));
        jobs_.clear();
        groups_.clear();
        for (size_t n = 0; n < nets_.size(); ++n)
            for (Precision p : kPrecisions) {
                const size_t first = jobs_.size();
                for (int64_t b = 1; b <= kMaxBatch; ++b)
                    for (bool sparse : {false, true})
                        jobs_.push_back({n, p, b, sparse});
                groups_.push_back({first, jobs_.size()});
            }
        train_jobs_.clear();
        train_groups_.clear();
        for (size_t n = 0; n < nets_.size(); ++n)
            for (Precision p : {Precision::HFP8, Precision::FP16}) {
                const size_t first = train_jobs_.size();
                for (int64_t mb : kMinibatches)
                    for (unsigned chips : kChipCounts)
                        train_jobs_.push_back({n, p, mb, chips});
                train_groups_.push_back({first, train_jobs_.size()});
            }

        // Sample kSamplesPerNet compute layers of every network among
        // those small enough for the cycle-level simulators.
        const PerfModel model(chip_);
        samples_.clear();
        for (size_t n = 0; n < nets_.size(); ++n) {
            std::vector<Sample> eligible;
            for (size_t li = 0; li < nets_[n].layers.size(); ++li) {
                const Layer &l = nets_[n].layers[li];
                if (!l.isCompute() || l.groups != 1)
                    continue;
                const Precision p = kPrecisions[1 + li % 3];
                LayerPlan plan;
                plan.precision = p;
                if (modelArrayCycles(model.evaluateLayer(l, plan, 1,
                                                         false)) <=
                    kMaxModelCycles)
                    eligible.push_back({n, li, p});
            }
            // Evenly spaced, not seeded: cycles per host second depend
            // strongly on the layer, so the sample must not vary with
            // the seed.
            const size_t take = std::min(kSamplesPerNet, eligible.size());
            for (size_t k = 0; k < take; ++k)
                samples_.push_back(eligible[k * eligible.size() / take]);
        }

        // Systolic operands: one small GEMM per sample, seeded values.
        gemm_a_.clear();
        gemm_b_.clear();
        for (size_t i = 0; i < samples_.size(); ++i) {
            const int64_t m = 16, k = 32 + 32 * int64_t(i % 3),
                          n = 32 + 16 * int64_t(i % 2);
            Tensor a({m, k}), b({k, n});
            a.fillGaussian(rng, 0.0, 0.5);
            b.fillGaussian(rng, 0.0, 0.5);
            gemm_a_.push_back(std::move(a));
            gemm_b_.push_back(std::move(b));
        }
    }

    RoundResult
    round(Tracer &tr) override
    {
        RoundResult r;
        r.parts.resize(3);
        Digest dg;
        auto fail = [&](const std::string &msg) {
            ++r.failed;
            if (r.errors.size() < 4)
                r.errors.push_back(msg);
        };

        // Inference sessions: compile + evaluate + power per job. Jobs
        // run in (network, precision) groups, one task and one span per
        // group; each result is digested in its task (results are
        // large) and digests combine in job order.
        struct GroupOut
        {
            std::vector<uint64_t> digests;
            uint64_t layers = 0;
            std::string error;
        };
        double t0 = nowSeconds();
        const std::vector<GroupOut> inf =
            parallelMap(groups_.size(), [&](size_t g) {
                GroupOut o;
                Scope s(tr, "runtime.session_run", int64_t(g));
                try {
                    for (size_t i = groups_[g].first; i < groups_[g].second;
                         ++i) {
                        const SessionJob &j = jobs_[i];
                        InferenceSession session(
                            chip_, j.sparse ? pruned_[j.net] : nets_[j.net]);
                        const InferenceResult res = session.run(options(j));
                        Digest d;
                        for (const LayerPlan &lp : res.plan.layers) {
                            d.u64(uint64_t(lp.precision));
                            d.f64(lp.throttle);
                        }
                        digestPerf(d, res.perf);
                        d.f64(res.energy.energy_j);
                        d.f64(res.energy.tops_per_w);
                        o.digests.push_back(d.value());
                        o.layers += res.perf.layers.size();
                    }
                } catch (const Error &e) {
                    o.error = e.what();
                }
                return o;
            });
        r.parts[0].seconds = nowSeconds() - t0;
        r.parts[0].work = double(jobs_.size());
        uint64_t layers = 0;
        for (size_t g = 0; g < inf.size(); ++g) {
            r.attempted += groups_[g].second - groups_[g].first;
            if (!inf[g].error.empty()) {
                fail("session: " + inf[g].error);
                r.failed += groups_[g].second - groups_[g].first - 1;
                continue;
            }
            layers += inf[g].layers;
            for (uint64_t d : inf[g].digests)
                dg.u64(d);
        }
        r.counters["runtime.session_runs"] = jobs_.size();
        r.counters["perf.layers_evaluated"] = layers;

        // Cycle-level simulation of the sampled layers: three operations
        // per layer (ChipSim, CoreletSim, SystolicArraySim). An error
        // anywhere in codegen or the simulators fails all of them.
        t0 = nowSeconds();
        std::vector<ChipRunStats> chip_stats;
        std::vector<CoreletRunStats> corelet;
        std::vector<SystolicResult> sys;
        try {
            std::vector<LayerProgram> progs(samples_.size());
            {
                Scope s(tr, "compiler.codegen");
                const CodeGenerator cg(chip_);
                for (size_t i = 0; i < samples_.size(); ++i) {
                    LayerPlan plan;
                    plan.precision = samples_[i].precision;
                    progs[i] = cg.generate(
                        nets_[samples_[i].net].layers[samples_[i].layer],
                        plan, 1);
                }
            }
            {
                Scope s(tr, "sim.chipsim_run");
                chip_stats = ChipSim(chip_.cores, true).runBatch(progs);
            }
            corelet = parallelMap(progs.size(), [&](size_t i) {
                Scope s(tr, "sim.corelet_run", int64_t(i));
                return CoreletSim().run(progs[i]);
            });
            sys = parallelMap(gemm_a_.size(), [&](size_t i) {
                Scope s(tr, "sim.systolic_gemm", int64_t(i));
                SystolicArraySim sim(chip_.core.corelet,
                                     i % 2 ? Precision::HFP8
                                           : Precision::FP16);
                return sim.gemm(gemm_a_[i], gemm_b_[i]);
            });
            r.parts[1].seconds = nowSeconds() - t0;
            digestSims(r, dg, chip_stats, corelet, sys);
        } catch (const Error &e) {
            r.parts[1].seconds = nowSeconds() - t0;
            fail(std::string("cycle sim: ") + e.what());
            r.failed += samples_.size() * 3 - 1;
        }
        r.attempted += samples_.size() * 3;

        // Training sessions on multi-chip systems, grouped like the
        // inference sessions.
        const size_t n_train = train_jobs_.size();
        t0 = nowSeconds();
        const std::vector<GroupOut> trn =
            parallelMap(train_groups_.size(), [&](size_t g) {
                GroupOut o;
                Scope s(tr, "runtime.training_run", int64_t(g));
                try {
                    for (size_t i = train_groups_[g].first;
                         i < train_groups_[g].second; ++i) {
                        const TrainJob &j = train_jobs_[i];
                        TrainingSession session(makeTrainingSystem(j.chips),
                                                nets_[j.net]);
                        TrainingOptions opts;
                        opts.precision = j.precision;
                        opts.minibatch = j.minibatch;
                        const TrainingPerf perf = session.run(opts);
                        Digest d;
                        d.f64(perf.step_seconds);
                        d.f64(perf.compute_seconds);
                        d.f64(perf.comm_seconds);
                        d.f64(perf.total_macs);
                        o.digests.push_back(d.value());
                    }
                } catch (const Error &e) {
                    o.error = e.what();
                }
                return o;
            });
        r.parts[2].seconds = nowSeconds() - t0;
        r.parts[2].work = double(n_train);
        for (size_t g = 0; g < trn.size(); ++g) {
            r.attempted += train_groups_[g].second - train_groups_[g].first;
            if (!trn[g].error.empty()) {
                fail("training session: " + trn[g].error);
                r.failed +=
                    train_groups_[g].second - train_groups_[g].first - 1;
                continue;
            }
            for (uint64_t d : trn[g].digests)
                dg.u64(d);
        }
        r.counters["runtime.training_runs"] = n_train;
        r.digest = dg.value();
        return r;
    }

    void probe(Tracer &tr, std::vector<LayerMetric> &out) override;

  private:
    /** Digest and count the simulators' results, and measure the
     *  model-vs-sim agreement on the same sampled layers. Throws what
     *  PerfModel::evaluateLayer throws. */
    void
    digestSims(RoundResult &r, Digest &dg,
               const std::vector<ChipRunStats> &chip_stats,
               const std::vector<CoreletRunStats> &corelet,
               const std::vector<SystolicResult> &sys)
    {
        uint64_t chip_cycles = 0, stall = 0, hops = 0, corelet_cycles = 0,
                 sys_cycles = 0, sys_macs = 0;
        for (const ChipRunStats &c : chip_stats) {
            chip_cycles += c.makespan;
            hops += c.ring_flit_hops;
            for (const CoreRunStats &core : c.cores) {
                stall += core.stall_cycles;
                dg.u64(core.finish_cycle);
                dg.u64(core.stall_cycles);
                dg.u64(core.fmma_issued);
                dg.u64(core.tiles_loaded);
            }
            dg.u64(c.makespan);
            dg.u64(c.ring_flit_hops);
        }
        for (const CoreletRunStats &c : corelet) {
            corelet_cycles += c.total_cycles;
            dg.u64(c.total_cycles);
            dg.u64(c.stall_cycles);
        }
        for (const SystolicResult &s : sys) {
            sys_cycles += s.cycles;
            sys_macs += s.fmas;
            dg.u64(s.cycles);
            dg.u64(s.fmas);
            dg.bytes(s.c.data(), size_t(s.c.numel()) * sizeof(float));
        }
        r.parts[1].work =
            double(chip_cycles + corelet_cycles + sys_cycles);
        r.counters["sim.chipsim_cycles"] = chip_cycles;
        r.counters["sim.stall_cycles"] = stall;
        r.counters["interconnect.ring_flit_hops"] = hops;
        r.counters["sim.corelet_cycles"] = corelet_cycles;
        r.counters["sim.systolic_cycles"] = sys_cycles;
        r.counters["sim.systolic_macs"] = sys_macs;
        r.counters["sim.sampled_layers"] = samples_.size();

        const PerfModel model(chip_);
        ratios_.clear();
        for (size_t i = 0; i < samples_.size(); ++i) {
            LayerPlan plan;
            plan.precision = samples_[i].precision;
            const double cyc = modelArrayCycles(model.evaluateLayer(
                nets_[samples_[i].net].layers[samples_[i].layer], plan, 1,
                false));
            ratios_.push_back(cyc / double(chip_stats[i].makespan));
            dg.f64(ratios_.back());
        }
    }

    uint64_t seed_;
    InferenceOptions
    options(const SessionJob &j) const
    {
        InferenceOptions opts;
        opts.target = j.precision;
        opts.batch = j.batch;
        opts.sparsity_throttling = j.sparse;
        return opts;
    }

    std::vector<Network> nets_, pruned_;
    ChipConfig chip_;
    std::vector<SessionJob> jobs_;
    std::vector<TrainJob> train_jobs_;
    /// [first, last) job ranges run as one task each.
    std::vector<std::pair<size_t, size_t>> groups_, train_groups_;
    std::vector<Sample> samples_;
    std::vector<Tensor> gemm_a_, gemm_b_;
    std::vector<double> ratios_; ///< model / sim cycles per sample
};

void
ChipModel::probe(Tracer &tr, std::vector<LayerMetric> &out)
{
    // Replay the session's stages on the workload's own jobs: compile,
    // performance evaluation, power integration, and the training
    // system's performance model.
    double compile_s = 0, perf_s = 0, power_s = 0, train_s = 0;
    uint64_t layers = 0;
    double sink = 0;
    for (size_t i = 0; i < jobs_.size(); ++i) {
        const SessionJob &j = jobs_[i];
        const Network &net = j.sparse ? pruned_[j.net] : nets_[j.net];
        InferenceSession session(chip_, net);
        const InferenceOptions opts = options(j);
        double t0 = nowSeconds();
        ExecutionPlan plan;
        {
            Scope s(tr, "compiler.compile", int64_t(i));
            plan = session.compile(opts);
        }
        compile_s += nowSeconds() - t0;
        t0 = nowSeconds();
        NetworkPerf perf;
        {
            Scope s(tr, "perf.evaluate", int64_t(i));
            perf = PerfModel(chip_).evaluate(net, plan, j.batch);
        }
        perf_s += nowSeconds() - t0;
        t0 = nowSeconds();
        {
            Scope s(tr, "power.evaluate", int64_t(i));
            sink += PowerModel(chip_).evaluate(perf, net).energy_j;
        }
        power_s += nowSeconds() - t0;
        layers += net.layers.size();
    }
    for (size_t i = 0; i < train_jobs_.size(); ++i) {
        const TrainJob &j = train_jobs_[i];
        const TrainingPerfModel tpm(makeTrainingSystem(j.chips));
        const double t0 = nowSeconds();
        Scope s(tr, "perf.training_evaluate", int64_t(i));
        sink += tpm.evaluate(nets_[j.net], j.precision, j.minibatch)
                    .step_seconds;
        train_s += nowSeconds() - t0;
    }
    if (sink < 0)
        out.clear(); // keeps the replays observable

    const double n = double(jobs_.size());
    const double nt = double(train_jobs_.size());
    out.push_back({"compiler.compile_s", "s", compile_s / n,
                   "perf.layers_evaluated", double(layers)});
    out.push_back({"perf.evaluate_s", "s", perf_s / n,
                   "perf.layers_evaluated", double(layers)});
    out.push_back({"power.evaluate_s", "s", power_s / n,
                   "perf.layers_evaluated", double(layers)});
    out.push_back({"perf.training_evaluate_s", "s", train_s / nt,
                   "runtime.training_runs", nt});
    std::vector<double> r = ratios_;
    std::sort(r.begin(), r.end());
    out.push_back({"perf.model_vs_sim_ratio_max", "ratio",
                   r.empty() ? 0 : r.back(), "sim.sampled_layers",
                   double(r.size())});
    out.push_back({"perf.model_vs_sim_ratio_median", "ratio", median(r),
                   "sim.sampled_layers", double(r.size())});
}

} // namespace

std::unique_ptr<Workload>
makeChipModel(uint64_t seed)
{
    return std::make_unique<ChipModel>(seed);
}

} // namespace perfbench
