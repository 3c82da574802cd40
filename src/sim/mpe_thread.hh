/**
 * @file
 * The data-processing thread of one core (Section II-A): interprets a
 * compiled layer's MPE program one instruction at a time on a
 * DesDomain, parks on its TokenBoard at TokWait until the
 * data-sequencing side has posted the operand block's ready token,
 * and posts to the same board at TokPost. CoreletSim runs one against
 * its local sequencer; ChipSim runs one per core against the MNI
 * completions. Every event goes on priority lane 0, so a domain runs
 * them in (cycle, scheduling order).
 */

#ifndef RAPID_SIM_MPE_THREAD_HH
#define RAPID_SIM_MPE_THREAD_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/des.hh"
#include "compiler/codegen.hh"

namespace rapid {

/**
 * Token-based synchronization board (Section II-A): programmable
 * units post and wait on counting tokens to enforce producer/consumer
 * ordering between decoupled data-sequencing and data-processing
 * programs.
 */
class TokenBoard
{
  public:
    explicit TokenBoard(DesDomain &domain) : domain_(domain) {}

    /** Post one token with id @p token, waking the oldest waiter at
     *  the domain's now() or banking the token if none waits. */
    void
    post(unsigned token)
    {
        State &st = tokens_[token];
        if (!st.waiters.empty()) {
            auto fn = std::move(st.waiters.front());
            st.waiters.erase(st.waiters.begin());
            domain_.scheduleIn(0, 0, std::move(fn));
        } else {
            ++st.count;
        }
    }

    /**
     * Run @p fn once a token with id @p token is available, consuming
     * it. Runs at the domain's now() if one is banked.
     */
    void
    wait(unsigned token, DesDomain::Callback fn)
    {
        State &st = tokens_[token];
        if (st.count > 0) {
            --st.count;
            domain_.scheduleIn(0, 0, std::move(fn));
        } else {
            st.waiters.push_back(std::move(fn));
        }
    }

  private:
    struct State
    {
        unsigned count = 0;
        std::vector<DesDomain::Callback> waiters;
    };

    DesDomain &domain_;
    std::map<unsigned, State> tokens_;
};

/** Outcome of one core's program run. */
struct CoreRunStats
{
    SimTime finish_cycle = 0;
    SimTime stall_cycles = 0; ///< cycles blocked on tokens
    SimTime issue_cycles = 0; ///< cycles spent issuing instructions
    uint64_t fmma_issued = 0;
    uint64_t tiles_loaded = 0;
};

/** One core's MPE program interpreter. */
class MpeThread
{
  public:
    /** @p lrf_load_cycles is the per-tile LRF hand-off cost. */
    MpeThread(DesDomain &domain, const LayerProgram &prog,
              SimTime lrf_load_cycles);

    /** Schedule the first instruction at the domain's now(). */
    void start();

    /** The board the sequencing side posts ready tokens to. */
    TokenBoard &tokens() { return tokens_; }

    bool done() const { return done_; }
    const CoreRunStats &stats() const { return stats_; }

    /** Id of the token a started, unfinished thread with no pending
     *  event is parked on: its last instruction is that TokWait. */
    unsigned blockedToken() const { return prog_.mpe_program[pc_ - 1].imm; }

  private:
    void step();
    void issue(SimTime cycles);
    void finish();

    DesDomain &domain_;
    TokenBoard tokens_;
    const LayerProgram &prog_;
    SimTime lrfLoadCycles_;
    size_t pc_ = 0;
    bool done_ = false;
    CoreRunStats stats_;
};

} // namespace rapid

#endif // RAPID_SIM_MPE_THREAD_HH
