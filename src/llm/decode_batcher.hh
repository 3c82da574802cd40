/**
 * @file
 * The continuous batcher: an LlmSim scenario expressed as events on
 * one DesDomain. Two priority lanes order same-instant events —
 * arrivals admit before the step completion that would observe them
 * frees the executor.
 *
 * Scheduling, continuous policy: whenever the executor is free,
 * prefill-priority — the first ladder group with a waiting head AND
 * a free decode slot launches ONE prefill (its completion is that
 * request's first token, and the sequence joins the group's running
 * decode batch); otherwise a round-robin cursor picks the next group
 * with live sequences and launches one decode step at the CURRENT
 * batch size. Sequences therefore join and leave the batch at step
 * granularity — that is continuous batching.
 *
 * One-shot policy: a group admits a static cohort (up to max_batch
 * waiting heads), prefills them back to back, then decodes at the
 * FIXED cohort batch size until every member finishes; no new
 * sequence joins until the cohort drains. Finished members keep
 * occupying their slots — exactly the goodput waste continuous
 * batching removes.
 *
 * Token accounting is closed by construction: every offered request
 * either completes with generated == planned output tokens or is
 * shed with zero generated; scripts/assemble.py hard-fails the
 * run otherwise.
 */

#ifndef RAPID_LLM_DECODE_BATCHER_HH
#define RAPID_LLM_DECODE_BATCHER_HH

#include <cstdint>
#include <vector>

#include "common/des.hh"
#include "llm/llm_sim.hh"
#include "serve/overload.hh"

namespace rapid {

/** Event-driven scheduler core of one LlmSim scenario. */
class DecodeBatcher
{
  public:
    /// Same-instant order: arrivals admit first, then the step
    /// completion frees the executor and dispatches.
    static constexpr int32_t kPriArrival = 0;
    static constexpr int32_t kPriStepDone = 1;

    DecodeBatcher(const LlmSim &sim, DesDomain &dom);

    /** Schedule the bootstrap event; call before DesEngine::run. */
    void start();

    /** Close the run after the engine drains (moves the result). */
    LlmResult finish();

  private:
    /** One ladder mode's decode group. */
    struct Group
    {
        std::vector<uint64_t> waiting; ///< request ids, FIFO
        size_t head = 0;               ///< oldest waiting index
        std::vector<uint64_t> inflight; ///< decoding sequences
        /// One-shot: fixed charged batch of the active cohort
        /// (0 = no cohort). Unused under Continuous.
        int64_t cohort = 0;
        /// Sequences currently prefilling (reserve decode slots).
        int64_t prefilling = 0;

        size_t waitingDepth() const { return waiting.size() - head; }
    };

    void bootstrap();
    void onArrival();
    bool routeRequest(LlmRequestRecord &rec);
    int64_t ttftEstimateNs(int64_t t, size_t gi,
                           const LlmRequestRecord &rec) const;
    int64_t tpotBoundNs(size_t gi,
                        const LlmRequestRecord &rec) const;
    void tryDispatch(int64_t t);
    void launchPrefill(size_t gi, int64_t t);
    void launchDecode(size_t gi, int64_t t);
    void finishSequence(uint64_t id, int64_t t);
    int64_t contextTokens(const LlmRequestRecord &rec) const;

    const LlmSim &sim_;
    DesDomain &dom_;
    const LlmServeConfig &cfg_;
    const LlmModelConfig &model_;

    std::vector<LlmRequest> trace_;
    size_t next_arrival_ = 0;
    std::vector<Group> groups_; ///< one per ladder entry
    /// Calibrated TPOT admission (cfg_.admission), one per group,
    /// fed with the TPOTs of finished sequences. Empty when the tier
    /// is off.
    std::vector<CalibratedAdmission> admission_;
    size_t rr_cursor_ = 0;      ///< decode round-robin position
    int64_t busy_until_ = -1;   ///< executor busy while t < busy_until
    LlmResult result_;
};

} // namespace rapid

#endif // RAPID_LLM_DECODE_BATCHER_HH
