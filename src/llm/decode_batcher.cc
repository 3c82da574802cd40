#include "llm/decode_batcher.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"
#include "llm/kv_cache.hh"

namespace rapid {

DecodeBatcher::DecodeBatcher(const LlmSim &sim, DesDomain &dom)
    : sim_(sim), dom_(dom), cfg_(sim.config()), model_(sim.model())
{
}

void
DecodeBatcher::start()
{
    dom_.schedule(0, kPriArrival, [this] { bootstrap(); });
}

void
DecodeBatcher::bootstrap()
{
    trace_ = generateLlmRequests(cfg_, model_);
    result_.horizon_ns = cfg_.horizon_ns;
    result_.requests.resize(trace_.size());
    groups_.resize(cfg_.ladder.size());
    if (cfg_.admission.enabled)
        admission_.assign(cfg_.ladder.size(),
                          CalibratedAdmission(cfg_.admission));
    if (!trace_.empty())
        dom_.schedule(trace_[0].arrival_ns, kPriArrival,
                      [this] { onArrival(); });
}

int64_t
DecodeBatcher::contextTokens(const LlmRequestRecord &rec) const
{
    // Cached tokens the sequence attends over at its next step: the
    // prompt plus every token generated so far.
    return rec.prompt_tokens + rec.generated_tokens;
}

/**
 * Conservative per-output-token cost of serving @p rec in group
 * @p gi: a decode step at full batch with every member at this
 * request's own final context, including the KV spill that context
 * would incur at full batch. This is where the ladder bites — a
 * long-context request cannot meet a tight TPOT SLA on an FP16 KV
 * cache once max_batch x final_context spills the scratchpad, and
 * routes down-ladder to a packed KV mode instead.
 */
int64_t
DecodeBatcher::tpotBoundNs(size_t gi,
                           const LlmRequestRecord &rec) const
{
    const LlmMode &mode = cfg_.ladder[gi];
    const int64_t final_ctx = rec.prompt_tokens + rec.output_tokens;
    return sim_.decodeNs(mode.act, final_ctx, cfg_.max_batch) +
           kvSpillStepNs(model_, mode.kv, sim_.chip(),
                         cfg_.max_batch * final_ctx);
}

/**
 * TTFT estimate: executor remainder, every queued prefill ahead of
 * this request (all groups — prefills have dispatch priority), its
 * own prefill, and under one-shot the drain of group @p gi's active
 * cohort (no admission until the cohort empties). An estimate, not a
 * proven bound: decode interleaving and future arrivals are not
 * charged. Violations are counted by the metrics.
 */
int64_t
DecodeBatcher::ttftEstimateNs(int64_t t, size_t gi,
                              const LlmRequestRecord &rec) const
{
    int64_t est = busy_until_ > t ? busy_until_ - t : 0;
    for (size_t g = 0; g < groups_.size(); ++g) {
        const Precision act = cfg_.ladder[g].act;
        const Group &grp = groups_[g];
        for (size_t i = grp.head; i < grp.waiting.size(); ++i)
            est += sim_.prefillNs(
                act,
                result_.requests[grp.waiting[i]].prompt_tokens);
    }
    est += sim_.prefillNs(cfg_.ladder[gi].act, rec.prompt_tokens);

    const Group &grp = groups_[gi];
    if (cfg_.policy == BatchPolicy::OneShot && grp.cohort > 0) {
        // Remaining cohort steps: the slowest member's remaining
        // tokens, each a decode step at the fixed cohort batch over
        // the cohort's largest final context.
        int64_t steps = 0, max_final = 1;
        for (uint64_t id : grp.inflight) {
            const LlmRequestRecord &m = result_.requests[id];
            steps = std::max(steps,
                             m.output_tokens - m.generated_tokens);
            max_final = std::max(max_final,
                                 m.prompt_tokens + m.output_tokens);
        }
        const LlmMode &mode = cfg_.ladder[gi];
        const int64_t step_ns =
            sim_.decodeNs(mode.act, max_final, grp.cohort) +
            kvSpillStepNs(model_, mode.kv, sim_.chip(),
                          grp.cohort * max_final);
        est += steps * step_ns;
    }
    return est;
}

bool
DecodeBatcher::routeRequest(LlmRequestRecord &rec)
{
    const LlmTenantConfig &tenant = cfg_.tenants[rec.tenant];
    const int floor = servingQuality(tenant.min_precision);
    for (size_t gi = 0; gi < cfg_.ladder.size(); ++gi) {
        if (servingQuality(cfg_.ladder[gi].act) < floor)
            continue;
        // TPOT check, tiered exactly like the serve-layer router:
        // when the group's observed-TPOT window is warm and its trust
        // fuse intact, admit on observed p95 x margin; otherwise on
        // the conservative full-batch step bound.
        AdmitTier tier = AdmitTier::Bound;
        int64_t tpot_pred;
        if (!admission_.empty() && admission_[gi].trusted()) {
            tier = AdmitTier::Calibrated;
            tpot_pred = admission_[gi].predictNs();
        } else {
            tpot_pred = tpotBoundNs(gi, rec);
        }
        if (tpot_pred > tenant.tpot_deadline_ns)
            continue;
        if (ttftEstimateNs(rec.arrival_ns, gi, rec) >
            tenant.ttft_deadline_ns)
            continue;
        rec.mode = int(gi);
        rec.tier = tier;
        if (!admission_.empty())
            admission_[gi].noteAdmit(tier);
        groups_[gi].waiting.push_back(rec.id);
        return true;
    }
    return false;
}

void
DecodeBatcher::onArrival()
{
    while (next_arrival_ < trace_.size() &&
           trace_[next_arrival_].arrival_ns <= dom_.now()) {
        const LlmRequest &a = trace_[next_arrival_++];
        LlmRequestRecord &rec = result_.requests[a.id];
        rec.id = a.id;
        rec.tenant = a.tenant;
        rec.arrival_ns = a.arrival_ns;
        rec.prompt_tokens = a.prompt_tokens;
        rec.output_tokens = a.output_tokens;
        if (!routeRequest(rec))
            rec.shed = true; // no mode meets both token SLAs
    }
    if (next_arrival_ < trace_.size())
        dom_.schedule(trace_[next_arrival_].arrival_ns, kPriArrival,
                      [this] { onArrival(); });
    tryDispatch(dom_.now());
}

void
DecodeBatcher::finishSequence(uint64_t id, int64_t t)
{
    LlmRequestRecord &rec = result_.requests[id];
    rec.completion_ns = t;
    rapid_dassert(rec.generated_tokens == rec.output_tokens,
                  "sequence finished with open token accounting");
    if (admission_.empty() || rec.generated_tokens < 2)
        return; // single-token outputs have no TPOT observation
    CalibratedAdmission &adm = admission_[size_t(rec.mode)];
    const int64_t tpot = rec.tpotNs();
    adm.observe(tpot);
    adm.noteOutcome(rec.tier,
                    tpot > cfg_.tenants[rec.tenant].tpot_deadline_ns, t);
}

void
DecodeBatcher::launchPrefill(size_t gi, int64_t t)
{
    Group &g = groups_[gi];
    const int64_t n =
        cfg_.policy == BatchPolicy::OneShot
            ? std::min<int64_t>(int64_t(g.waitingDepth()),
                                cfg_.max_batch)
            : 1;
    std::vector<uint64_t> ids(g.waiting.begin() + long(g.head),
                              g.waiting.begin() + long(g.head) +
                                  long(n));
    g.head += size_t(n);
    if (g.head == g.waiting.size()) {
        g.waiting.clear();
        g.head = 0;
    }
    g.prefilling += n;
    if (cfg_.policy == BatchPolicy::OneShot)
        g.cohort = n;

    const Precision act = cfg_.ladder[gi].act;
    LlmStepRecord step;
    step.kind = LlmStepKind::Prefill;
    step.mode = int(gi);
    step.batch = n;
    step.live = n;
    step.launch_ns = t;
    int64_t lat = 0;
    for (uint64_t id : ids) {
        const int64_t prompt = result_.requests[id].prompt_tokens;
        lat += sim_.prefillNs(act, prompt);
        step.energy_j += sim_.prefillEnergyJ(act, prompt);
        step.context_tokens += prompt;
    }
    step.completion_ns = t + lat;
    busy_until_ = step.completion_ns;
    result_.steps.push_back(step);

    dom_.schedule(step.completion_ns, kPriStepDone,
                  [this, gi, ids = std::move(ids)] {
                      const int64_t now = dom_.now();
                      Group &grp = groups_[gi];
                      grp.prefilling -= int64_t(ids.size());
                      for (uint64_t id : ids) {
                          LlmRequestRecord &rec =
                              result_.requests[id];
                          rec.first_token_ns = now;
                          rec.generated_tokens = 1;
                          if (rec.generated_tokens ==
                              rec.output_tokens)
                              finishSequence(id, now);
                          else
                              grp.inflight.push_back(id);
                      }
                      if (cfg_.policy == BatchPolicy::OneShot &&
                          grp.inflight.empty())
                          grp.cohort = 0; // all single-token outputs
                      tryDispatch(now);
                  });
}

void
DecodeBatcher::launchDecode(size_t gi, int64_t t)
{
    Group &g = groups_[gi];
    const LlmMode &mode = cfg_.ladder[gi];
    const int64_t live = int64_t(g.inflight.size());
    // One-shot charges the fixed cohort batch even after members
    // finished — the static-batching slot waste.
    const int64_t charged =
        cfg_.policy == BatchPolicy::OneShot ? g.cohort : live;
    rapid_dassert(charged >= live && live > 0,
                  "decode step with no live sequences");
    int64_t ctx_max = 1, ctx_total = 0;
    for (uint64_t id : g.inflight) {
        const int64_t ctx = contextTokens(result_.requests[id]);
        ctx_max = std::max(ctx_max, ctx);
        ctx_total += ctx;
    }
    const int64_t spill =
        kvSpillStepNs(model_, mode.kv, sim_.chip(), ctx_total);

    LlmStepRecord step;
    step.kind = LlmStepKind::Decode;
    step.mode = int(gi);
    step.batch = charged;
    step.live = live;
    step.context_tokens = ctx_total;
    step.launch_ns = t;
    step.spill_ns = spill;
    step.completion_ns =
        t + sim_.decodeNs(mode.act, ctx_max, charged) + spill;
    step.energy_j = sim_.decodeEnergyJ(mode.act, ctx_max, charged);
    busy_until_ = step.completion_ns;
    result_.steps.push_back(step);

    dom_.schedule(step.completion_ns, kPriStepDone, [this, gi] {
        const int64_t now = dom_.now();
        Group &grp = groups_[gi];
        std::vector<uint64_t> still;
        still.reserve(grp.inflight.size());
        for (uint64_t id : grp.inflight) {
            LlmRequestRecord &rec = result_.requests[id];
            ++rec.generated_tokens;
            if (rec.generated_tokens == rec.output_tokens)
                finishSequence(id, now);
            else
                still.push_back(id);
        }
        grp.inflight = std::move(still);
        if (cfg_.policy == BatchPolicy::OneShot &&
            grp.inflight.empty())
            grp.cohort = 0; // cohort drained; the group may re-admit
        tryDispatch(now);
    });
}

void
DecodeBatcher::tryDispatch(int64_t t)
{
    if (t < busy_until_)
        return;
    // Prefill priority: first group (ladder order) that may admit.
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
        Group &g = groups_[gi];
        if (g.waitingDepth() == 0)
            continue;
        const bool may_admit =
            cfg_.policy == BatchPolicy::OneShot
                ? g.cohort == 0
                : int64_t(g.inflight.size()) + g.prefilling <
                      cfg_.max_batch;
        if (may_admit) {
            launchPrefill(gi, t);
            return;
        }
    }
    // Decode: round-robin over groups with live sequences.
    for (size_t k = 0; k < groups_.size(); ++k) {
        const size_t gi = (rr_cursor_ + k) % groups_.size();
        if (!groups_[gi].inflight.empty()) {
            rr_cursor_ = (gi + 1) % groups_.size();
            launchDecode(gi, t);
            return;
        }
    }
}

/**
 * Close the run. As in ServeDomainCore::finish, end_ns is
 * reconstructed as max(busy_until, last arrival, 0) rather than read
 * from dom_.now().
 */
LlmResult
DecodeBatcher::finish()
{
    int64_t end = std::max<int64_t>(busy_until_, 0);
    if (!trace_.empty())
        end = std::max(end, trace_.back().arrival_ns);
    result_.end_ns = end;
    for (const CalibratedAdmission &adm : admission_)
        result_.group_admission.push_back(adm.stats());
    return std::move(result_);
}

} // namespace rapid
