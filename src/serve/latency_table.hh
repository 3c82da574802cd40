/**
 * @file
 * Precomputed batch-latency / batch-energy table the serving
 * simulator charges virtual time from. Every (network, precision,
 * batch size) design point is compiled and evaluated once through the
 * existing PerfModel/PowerModel (including fault-induced retry
 * cycles), in parallel across points with results gathered by index,
 * then frozen as integer nanoseconds — so the event-driven simulation
 * on top is bit-identical at any thread count.
 */

#ifndef RAPID_SERVE_LATENCY_TABLE_HH
#define RAPID_SERVE_LATENCY_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/fault.hh"
#include "precision/precision.hh"
#include "workloads/layer.hh"

namespace rapid {

/** One frozen (network, precision, batch) evaluation. */
struct LatencyEntry
{
    int64_t latency_ns = 0; ///< end-to-end batch latency, >= 1
    double energy_j = 0;    ///< energy of the whole batch
};

/**
 * Dense table over networks x precisions x batch sizes 1..max_batch.
 * Precisions absent from the requested set hold zeroed entries and
 * must not be queried.
 */
class LatencyTable
{
  public:
    /**
     * Compile and evaluate every point. @p networks are deduplicated
     * by the caller; @p precisions lists the servable modes to
     * evaluate. @p fault charges expected retry cycles into every
     * latency (rate 0 charges nothing).
     */
    LatencyTable(const ChipConfig &chip,
                 const std::vector<Network> &networks,
                 const std::vector<Precision> &precisions,
                 int64_t max_batch, const FaultConfig &fault);

    /** Batch latency in virtual nanoseconds. */
    int64_t latencyNs(size_t network, Precision p, int64_t batch) const;

    /** Energy of one whole batch in joules. */
    double energyJ(size_t network, Precision p, int64_t batch) const;

    /** True when (p) was evaluated for this table. */
    bool hasPrecision(Precision p) const;

  private:
    const LatencyEntry &at(size_t network, Precision p,
                           int64_t batch) const;

    size_t num_networks_ = 0;
    int64_t max_batch_ = 0;
    std::vector<bool> has_precision_; ///< indexed by Precision value
    std::vector<LatencyEntry> entries_;
};

} // namespace rapid

#endif // RAPID_SERVE_LATENCY_TABLE_HH
