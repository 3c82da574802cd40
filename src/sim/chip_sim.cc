#include "sim/chip_sim.hh"

#include <memory>

#include "common/des.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace rapid {

ChipSim::ChipSim(unsigned num_cores, bool multicast, MniConfig mni_cfg)
    : numCores_(num_cores), multicast_(multicast), mniCfg_(mni_cfg)
{
    RAPID_CHECK_ARG(num_cores >= 1, "need at least one core");
}

ChipRunStats
ChipSim::run(const LayerProgram &prog, SimTime lrf_load_cycles) const
{
    RingConfig ring_cfg;
    ring_cfg.num_nodes = numCores_ + 1; // + memory interface
    MniFabric mni(ring_cfg, mniCfg_);
    mni.reserve(size_t(numCores_) * prog.transfers.size());

    // Every core's MPE thread runs on one domain, which each cycle
    // below advances through that cycle's events.
    DesEngine engine;
    DesDomain &chip = engine.domain(engine.addDomain("chip"));
    std::vector<std::unique_ptr<MpeThread>> cores;
    for (unsigned c = 0; c < numCores_; ++c) {
        cores.push_back(std::make_unique<MpeThread>(
            chip, prog, lrf_load_cycles));
        cores.back()->start();
    }

    // Per-core sequencer cursors over the planned transfers: each
    // core requests its tiles in order, stalling at the MNI-LU's
    // outstanding limit. Under multicast every core uses the shared
    // tile tag; the unicast baseline privatizes tags per core.
    std::vector<size_t> next_transfer(numCores_, 0);
    auto tag_for = [&](unsigned core, size_t idx) -> uint64_t {
        const uint64_t base = prog.transfers[idx].tag;
        return multicast_ ? base : base * numCores_ + core + 1000000;
    };

    // Each request completes exactly once, for the core that made it.
    const size_t planned_completions =
        size_t(numCores_) * prog.transfers.size();
    size_t completions_seen = 0;
    SimTime tick = 0;
    const SimTime limit = 500000000;
    auto all_done = [&] {
        for (const auto &c : cores)
            if (!c->done())
                return false;
        return true;
    };
    auto can_issue = [&] {
        for (unsigned c = 0; c < numCores_; ++c)
            if (next_transfer[c] < prog.transfers.size() &&
                mni.outstandingLoads(c) < mniCfg_.max_outstanding_loads)
                return true;
        return false;
    };

    while (!all_done()) {
        rapid_assert(++tick <= limit, "chip sim failed to converge");
        // Sequencers try to push their next requests.
        for (unsigned c = 0; c < numCores_; ++c) {
            while (next_transfer[c] < prog.transfers.size()) {
                const auto &tr = prog.transfers[next_transfer[c]];
                const unsigned consumers =
                    multicast_ ? numCores_ : 1;
                if (!mni.recv(c, mni.memoryNode(),
                              tag_for(c, next_transfer[c]), tr.bytes,
                              tr.ready_token, consumers))
                    break; // load queue full; retry next cycle
                ++next_transfer[c];
            }
        }
        mni.step();
        // Dispatch newly landed blocks to their cores' token boards.
        // Known defect (DESIGN.md section 12): the domain has not
        // reached this tick yet, so a post wakes its waiter at
        // chip.now(), the last executed event, in the past.
        const auto &done = mni.completions();
        for (; completions_seen < done.size(); ++completions_seen) {
            const MniCompletion &comp = done[completions_seen];
            // local_addr carries the ready token (set above).
            cores[comp.consumer]->tokens().post(
                unsigned(comp.local_addr));
        }
        if (chip.earliest() <= tick)
            engine.run(tick + 1);
        // Nothing pending and nothing left to land: a core that is
        // still waiting waits forever.
        if (chip.pending() == 0 &&
            completions_seen == planned_completions) {
            for (unsigned c = 0; c < numCores_; ++c)
                RAPID_CHECK_ARG(cores[c]->done(), "chip program "
                                "deadlocked at cycle ", tick, ": core ",
                                c, " waits on token ",
                                cores[c]->blockedToken(),
                                " that no planned transfer posts");
        }
        // Idle skip (DESIGN.md section 12): with the ring empty, every
        // sequencer blocked or finished and the next core event after
        // tick + 1, the cycles before that event would change nothing,
        // so jump to the cycle before it.
        const SimTime next = chip.earliest();
        if (next != kSimNever && next > tick + 1 && mni.idle() &&
            !can_issue()) {
            mni.advanceIdle(uint64_t(next - 1 - tick));
            tick = next - 1;
        }
    }

    ChipRunStats stats;
    stats.makespan = tick;
    stats.ring_flit_hops = mni.ring().flitHopsMoved();
    for (const auto &c : cores)
        stats.cores.push_back(c->stats());
    return stats;
}

std::vector<ChipRunStats>
ChipSim::runBatch(const std::vector<LayerProgram> &progs,
                  SimTime lrf_load_cycles) const
{
    return parallelMap(progs.size(), [&](size_t i) {
        return run(progs[i], lrf_load_cycles);
    });
}

} // namespace rapid
