/**
 * @file
 * INT4 inference end to end (Section II-C + Section V-B): trains an
 * MLP with PACT clipped activations, deploys it with SaWB-quantized
 * INT4 weights through the emulated FXU pipeline, and compares
 * accuracy against FP32. Then estimates ResNet50 INT4 batch-1
 * latency/efficiency on the 4-core chip with the performance model.
 *
 * Build & run:  ./build/examples/int4_inference
 */

#include <cstdio>

#include "common/table.hh"
#include "func/trainer.hh"
#include "runtime/session.hh"
#include "workloads/networks.hh"

using namespace rapid;

int
main()
{
    // --- Functional part: PACT + SaWB INT4 accuracy parity ---
    Rng rng(99);
    Dataset train = makeSpirals(rng, 384);
    Dataset test = makeSpirals(rng, 192);

    MlpConfig cfg;
    cfg.dims = {2, 48, 48, 2};
    cfg.pact_bits = 4;
    cfg.seed = 11;
    Mlp model(cfg);
    model.train(train, 60, 32);

    std::printf("learned PACT clip values:");
    for (size_t i = 0; i + 1 < model.numLayers(); ++i)
        std::printf("  layer%zu alpha=%.2f", i, model.pactAlpha(i));
    std::printf("\n\n");

    Table acc({"Deployment", "Test accuracy"});
    acc.addRow({"FP32 reference",
                Table::fmt(100 * model.evaluate(test), 1) + "%"});
    acc.addRow({"INT4 (PACT + SaWB, FP16 edges)",
                Table::fmt(100 * model.evaluateInt(test, 4), 1) +
                    "%"});
    acc.addRow({"INT2 (PACT + SaWB, FP16 edges)",
                Table::fmt(100 * model.evaluateInt(test, 2), 1) +
                    "%"});
    acc.print();

    // --- Architecture part: ResNet50 INT4 on the 4-core chip ---
    std::printf("\nResNet50 INT4 batch-1 on the 4-core chip:\n");
    const Network resnet = makeResnet50();
    InferenceSession session(makeInferenceChip(), resnet);
    InferenceOptions opts;
    opts.target = Precision::INT4;
    opts.power_report_freq_ghz = 1.0;
    InferenceResult r = session.run(opts);
    std::printf("  latency %.2f ms, %.0f images/s, %.2f TOPS/W "
                "(%.2f W)\n",
                1e3 * r.perf.total_seconds,
                r.perf.samplesPerSecond(), r.energy.tops_per_w,
                r.energy.avg_power_w);
    const CycleBreakdown &b = r.perf.breakdown;
    std::printf("  busy-cycle breakdown: conv/gemm %.0f%%, overheads "
                "%.0f%%, quantization %.0f%%, auxiliary %.0f%%\n",
                100 * b.conv_gemm / b.busy(),
                100 * b.overhead / b.busy(),
                100 * b.quantization / b.busy(),
                100 * b.aux / b.busy());
    return 0;
}
