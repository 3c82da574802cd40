/**
 * @file
 * Transformer serving sweep: decode-step economics over the precision
 * ladder, the KV-cache residency cliff, and continuous vs one-shot
 * batching at equal token SLAs.
 *
 * Four sections:
 *   1. the frozen decode-step latency table (context bucket x
 *      activation precision) the virtual clock charges;
 *   2. KV residency: per-token footprint and resident context
 *      capacity per KV precision — the INT4-vs-FP16 4x capacity gap;
 *   3. goodput vs offered load for one-shot and continuous batching
 *      at the same SLAs — continuous moves the knee right;
 *   4. the spill cliff: TPOT and goodput vs context length for an
 *      FP16 KV cache vs an INT4 KV cache.
 *
 * Deterministic: frozen tables, seeded arrivals, virtual clock only;
 * stdout is bit-identical across runs and at any --threads N. With
 * RAPID_REPORT_JSON=<path> set, each scenario appends one "llm"
 * record for scripts/assemble.py -> BENCH_llm.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/sweep.hh"
#include "common/table.hh"
#include "llm/kv_cache.hh"
#include "llm/llm_metrics.hh"
#include "llm/llm_sim.hh"

#include "sim_grid.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000; ///< ns per millisecond

/** One chat-style tenant at @p rps over the llm-small model. */
LlmServeConfig
rampScenario(double rps, BatchPolicy policy)
{
    LlmServeConfig cfg;
    cfg.model = "llm-small";
    cfg.policy = policy;
    cfg.max_batch = 8;
    cfg.horizon_ns = 500 * kMs;
    LlmTenantConfig chat;
    chat.name = "chat";
    chat.arrival_rps = rps;
    chat.mean_prompt_tokens = 96.0;
    chat.mean_output_tokens = 48.0;
    chat.ttft_deadline_ns = 400 * kMs;
    chat.tpot_deadline_ns = 30 * kMs;
    cfg.tenants.push_back(chat);
    return cfg;
}

/** Section 1: the frozen decode-step table. */
void
decodeTableSection()
{
    std::printf("=== Frozen decode-step latency: llm-small (d=512, "
                "8 layers) on the 4-core chip, batch 8 ===\n\n");
    const LlmServeConfig cfg = rampScenario(10.0,
                                            BatchPolicy::Continuous);
    const LlmSim sim(makeInferenceChip(), cfg);
    std::vector<std::string> hdr = {"Act precision"};
    for (size_t bi = 0; bi < sim.numBuckets(); ++bi)
        hdr.push_back("ctx " + std::to_string(sim.bucketTokens(bi)));
    Table t(hdr);
    for (const LlmMode &mode : cfg.ladder) {
        std::vector<std::string> row = {precisionName(mode.act)};
        for (size_t bi = 0; bi < sim.numBuckets(); ++bi)
            row.push_back(
                Table::fmt(double(sim.decodeNs(
                               mode.act, sim.bucketTokens(bi), 8)) *
                               1e-6, 3) + " ms");
        t.addRow(row);
    }
    t.print();
    std::printf("\nPrefill (batch 1): ctx 64 %s ms -> ctx %lld %s ms "
                "at INT4.\n",
                Table::fmt(double(sim.prefillNs(Precision::INT4, 64)) *
                               1e-6, 3).c_str(),
                (long long)sim.model().max_context,
                Table::fmt(double(sim.prefillNs(
                               Precision::INT4,
                               sim.model().max_context)) * 1e-6,
                           3).c_str());
}

/** Section 2: KV residency capacity over the ladder. */
void
kvResidencySection()
{
    std::printf("\n=== KV-cache residency: per-layer working set vs "
                "the %llu KiB corelet scratchpad ===\n\n",
                (unsigned long long)(makeInferenceChip()
                                         .scratchpadBytes() / 1024));
    const ChipConfig chip = makeInferenceChip();
    const LlmModelConfig model = llmModelByName("llm-small");
    Table t({"KV precision", "B/token/layer", "Resident tokens",
             "vs FP16"});
    const int64_t fp16_tokens =
        kvResidentTokens(model, Precision::FP16, chip);
    for (Precision kv : {Precision::INT4, Precision::HFP8,
                         Precision::FP16}) {
        const int64_t tokens = kvResidentTokens(model, kv, chip);
        t.addRow({precisionName(kv),
                  std::to_string(kvLayerBytesPerToken(model, kv)),
                  std::to_string(tokens),
                  Table::fmt(double(tokens) / double(fp16_tokens), 1) +
                      "x"});
    }
    t.print();
    std::printf("\nINT4 KV holds %sx the resident context of FP16 KV "
                "— the spill cliff sits that much further out.\n",
                Table::fmt(double(kvResidentTokens(model,
                                                   Precision::INT4,
                                                   chip)) /
                               double(fp16_tokens), 1).c_str());
}

/** Section 3: continuous vs one-shot goodput ramp at equal SLA. */
void
batchingRampSection()
{
    std::printf("\n=== Continuous vs one-shot batching: llm-small, "
                "TTFT 400 ms / TPOT 30 ms, max batch 8 ===\n\n");
    const double loads[] = {100, 200, 300, 400, 600, 800};
    const BatchPolicy policies[] = {BatchPolicy::OneShot,
                                    BatchPolicy::Continuous};
    std::vector<LlmServeConfig> cfgs;
    for (double rps : loads)
        for (BatchPolicy policy : policies)
            cfgs.push_back(rampScenario(rps, policy));
    const std::vector<LlmResult> results =
        runGrid(makeInferenceChip(), cfgs, runLlmBatch);

    Table t({"Offered/s", "one-shot goodput", "shed", "live/batch",
             "continuous goodput", "shed", "live/batch"});
    double knee[2] = {0, 0};
    size_t point = 0;
    for (double rps : loads) {
        std::vector<std::string> row = {Table::fmt(rps, 0)};
        for (size_t pi = 0; pi < 2; ++pi) {
            const LlmMetrics m =
                computeLlmMetrics(cfgs[point], results[point]);
            ++point;
            row.push_back(Table::fmt(m.total.goodput_rps, 1));
            row.push_back(Table::pct(m.total.shed, m.total.offered));
            row.push_back(Table::fmt(m.mean_decode_live, 1) + "/" +
                          Table::fmt(m.mean_decode_batch, 1));
            if (m.total.goodput_rps >= 0.9 * m.total.offered_rps)
                knee[pi] = std::max(knee[pi], rps);
            sweepRecord("llm",
                        llmJsonRecord("batching_ramp",
                                      std::string(batchPolicyName(
                                          cfgs[point - 1].policy)) +
                                          "@" + Table::fmt(rps, 0),
                                      m));
        }
        t.addRow(row);
    }
    t.print();
    std::printf("\nGoodput knee (>= 90%% of offered): one-shot %s "
                "req/s, continuous %s req/s — per-token re-admission "
                "moves the knee right at the same SLAs.\n",
                Table::fmt(knee[0], 0).c_str(),
                Table::fmt(knee[1], 0).c_str());
}

/** Section 4: the KV spill cliff vs context length. */
void
spillCliffSection()
{
    std::printf("\n=== KV spill cliff: goodput and TPOT vs context "
                "length, FP16 KV vs INT4 KV (continuous, batch 4) "
                "===\n\n");
    struct KvPolicy
    {
        const char *name;
        LlmMode mode;
    };
    const KvPolicy kv_policies[] = {
        {"fp16-kv", {Precision::FP16, Precision::FP16}},
        {"int4-kv", {Precision::INT4, Precision::INT4}},
    };
    const int64_t contexts[] = {32, 64, 128, 256, 512};
    std::vector<LlmServeConfig> cfgs;
    for (int64_t ctx : contexts) {
        for (const KvPolicy &kp : kv_policies) {
            LlmServeConfig cfg;
            cfg.model = "llm-small";
            cfg.policy = BatchPolicy::Continuous;
            cfg.max_batch = 4;
            cfg.horizon_ns = 500 * kMs;
            cfg.ladder = {kp.mode};
            LlmTenantConfig doc;
            doc.name = "doc";
            doc.arrival_rps = 20.0;
            doc.mean_prompt_tokens = double(ctx);
            doc.mean_output_tokens = 24.0;
            doc.ttft_deadline_ns = 600 * kMs;
            doc.tpot_deadline_ns = 60 * kMs;
            cfg.tenants.push_back(doc);
            cfgs.push_back(cfg);
        }
    }
    const std::vector<LlmResult> results =
        runGrid(makeInferenceChip(), cfgs, runLlmBatch);
    Table t({"Mean ctx", "fp16-kv goodput", "TPOT p95", "spill ms",
             "int4-kv goodput", "TPOT p95", "spill ms"});
    size_t point = 0;
    for (int64_t ctx : contexts) {
        std::vector<std::string> row = {std::to_string(ctx)};
        for (const KvPolicy &kp : kv_policies) {
            const LlmMetrics m =
                computeLlmMetrics(cfgs[point], results[point]);
            ++point;
            row.push_back(Table::fmt(m.total.goodput_rps, 1));
            row.push_back(
                Table::fmt(double(m.total.tpot_p95_ns) * 1e-6, 2));
            row.push_back(
                Table::fmt(double(m.spill_ns_total) * 1e-6, 1));
            sweepRecord("llm",
                        llmJsonRecord("spill_cliff",
                                      std::string(kp.name) + "@ctx" +
                                          std::to_string(ctx),
                                      m));
        }
        t.addRow(row);
    }
    t.print();
    std::printf("\nThe FP16 KV cache falls off the scratchpad 4x "
                "earlier in context length than INT4 KV; past the "
                "cliff every decode step pays the per-layer refetch.\n");
}

void
runSweep()
{
    decodeTableSection();
    kvResidencySection();
    batchingRampSection();
    spillCliffSection();
}

} // namespace

int
main(int argc, char **argv)
{
    return sweepMain("llm_sweep", argc, argv, runSweep);
}
