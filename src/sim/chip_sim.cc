#include "sim/chip_sim.hh"

#include <memory>
#include <string>

#include "common/des.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace rapid {

ChipSim::ChipSim(unsigned num_cores, bool multicast, MniConfig mni_cfg)
    : numCores_(num_cores), multicast_(multicast), mniCfg_(mni_cfg)
{
    rapid_assert(num_cores >= 1, "need at least one core");
}

ChipRunStats
ChipSim::run(const LayerProgram &prog, Tick lrf_load_cycles)
{
    RingConfig ring_cfg;
    ring_cfg.num_nodes = numCores_ + 1; // + memory interface
    MniFabric mni(ring_cfg, mniCfg_);

    EventQueue eq;
    std::vector<std::unique_ptr<MpeThread>> cores;
    for (unsigned c = 0; c < numCores_; ++c) {
        cores.push_back(std::make_unique<MpeThread>(
            eq, prog, lrf_load_cycles));
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

    size_t completions_seen = 0;
    Tick tick = 0;
    const Tick limit = 500000000;
    auto all_done = [&] {
        for (const auto &c : cores)
            if (!c->done())
                return false;
        return true;
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
        const auto &done = mni.completions();
        for (; completions_seen < done.size(); ++completions_seen) {
            const MniCompletion &comp = done[completions_seen];
            // local_addr carries the ready token (set above).
            cores[comp.consumer]->tokens().post(
                unsigned(comp.local_addr));
        }
        eq.run(tick);
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
                  Tick lrf_load_cycles) const
{
    // One DES domain per batch entry; each runs its whole chip
    // simulation as a single event at t=0 (the chip's own EventQueue
    // is the cycle-accurate micro-engine inside the domain). The
    // domains are independent — no channels — so the engine executes
    // the batch as one fully parallel window on the shared pool.
    DesEngine engine;
    std::vector<ChipRunStats> out(progs.size());
    for (size_t i = 0; i < progs.size(); ++i) {
        const DomainId id =
            engine.addDomain("chip" + std::to_string(i));
        engine.domain(id).schedule(0, 0, [this, &out, &progs, i,
                                          lrf_load_cycles] {
            ChipSim sim(numCores_, multicast_, mniCfg_);
            out[i] = sim.run(progs[i], lrf_load_cycles);
        });
    }
    engine.run();
    return out;
}

} // namespace rapid
