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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/des.hh"
#include "common/logging.hh"
#include "compiler/codegen.hh"

namespace rapid {

/**
 * Token-based synchronization board (Section II-A): programmable
 * units post and wait on counting tokens to enforce producer/consumer
 * ordering between decoupled data-sequencing and data-processing
 * programs. Token ids are the ISA's 16-bit immediates, so the board
 * keeps a flat per-id table; steady state allocates nothing.
 */
class TokenBoard
{
  public:
    /** Largest token id (a 16-bit instruction immediate). */
    static constexpr unsigned kMaxToken = 0xffff;

    explicit TokenBoard(DesDomain &domain) : domain_(domain) {}

    /** Post one token with id @p token, waking the oldest waiter at
     *  the domain's now() or banking the token if none waits. */
    void
    post(unsigned token)
    {
        const auto oldest =
            std::find_if(parked_.begin(), parked_.end(),
                         [token](const Parked &p) {
                             return p.token == token;
                         });
        if (oldest == parked_.end()) {
            ++banked(token);
            return;
        }
        domain_.scheduleIn(0, 0, std::move(oldest->fn));
        parked_.erase(oldest);
    }

    /**
     * Run @p fn once a token with id @p token is available, consuming
     * it. Runs at the domain's now() if one is banked.
     */
    void
    wait(unsigned token, DesDomain::Callback fn)
    {
        unsigned &count = banked(token);
        if (count > 0) {
            --count;
            domain_.scheduleIn(0, 0, std::move(fn));
        } else {
            parked_.push_back({token, std::move(fn)});
        }
    }

  private:
    struct Parked
    {
        unsigned token;
        DesDomain::Callback fn;
    };

    /** Posts of @p token that no waiter has consumed. */
    unsigned &
    banked(unsigned token)
    {
        rapid_assert(token <= kMaxToken, "token id ", token,
                     " exceeds the 16-bit immediate");
        if (token >= banked_.size())
            banked_.resize(token + 1);
        return banked_[token];
    }

    DesDomain &domain_;
    std::vector<unsigned> banked_; ///< by token id
    /// Waiters of every id, oldest first: a thread parks on one token
    /// at a time, so this holds about one entry per waiting unit.
    std::vector<Parked> parked_;
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
