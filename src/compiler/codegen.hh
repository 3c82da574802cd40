/**
 * @file
 * Program generation: lowers a mapped layer into the decoupled
 * programs the architecture actually executes (Section II-A) — a
 * data-processing program of MPE instructions for the tile walk, and
 * the list of tagged MNI transfers that the data-sequencing side
 * issues to stage each weight block, with token-based ordering
 * between them.
 */

#ifndef RAPID_COMPILER_CODEGEN_HH
#define RAPID_COMPILER_CODEGEN_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "arch/isa.hh"
#include "compiler/dataflow.hh"
#include "compiler/plan.hh"
#include "workloads/layer.hh"

namespace rapid {

/** One staged data transfer issued through the MNI. */
struct PlannedTransfer
{
    uint64_t tag = 0;
    uint64_t bytes = 0;
    /// Number of consumer corelets sharing this block (position-split
    /// workers receive the same weights via multicast).
    unsigned n_consumers = 1;
    /// Token the MPE program waits on before using the block.
    unsigned ready_token = 0;
};

/** The lowered form of one layer. */
struct LayerProgram
{
    std::vector<MpeInstruction> mpe_program;
    std::vector<PlannedTransfer> transfers;

    /// Streaming FMMA issue slots the program will occupy; must equal
    /// the mapper's per-worker compute cycles.
    uint64_t fmma_slots = 0;

    /// Tiles in the walk (= LrfLoad count = transfer count).
    uint64_t num_tiles = 0;
};

/** Lowers mapped compute layers to MPE + MNI programs. */
class CodeGenerator
{
  public:
    /// Largest token id a TokWait/TokPost immediate can carry; one id
    /// per tile, so also the longest tile walk a program may have.
    static constexpr int64_t kMaxTokenId = 0xffff;

    explicit CodeGenerator(const ChipConfig &chip);

    /**
     * Generate the per-worker program for @p layer under @p plan at
     * @p batch. The emitted instruction stream is round-tripped
     * through the binary encoding, like a real toolchain would.
     * Throws rapid::Error (InvalidArgument) when the tile walk needs
     * more than kMaxTokenId token ids.
     */
    LayerProgram generate(const Layer &layer, const LayerPlan &plan,
                          int64_t batch) const;

  private:
    ChipConfig chip_;
    DataflowMapper mapper_;
};

} // namespace rapid

#endif // RAPID_COMPILER_CODEGEN_HH
