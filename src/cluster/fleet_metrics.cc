#include "cluster/fleet_metrics.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"

namespace rapid {

namespace {

using RecordKey = std::pair<size_t, uint64_t>; ///< (chip, record id)

std::string
ms(int64_t ns)
{
    return Table::fmt(double(ns) * 1e-6, 3);
}

uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : bytes) {
        h ^= uint64_t(b);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex16(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)v);
    return std::string(buf);
}

} // namespace

FleetLedger
buildFleetLedger(const ClusterConfig &cfg, const FleetResult &result)
{
    FleetLedger out;
    out.windows = result.windows;
    out.retries = result.adoptions.size();
    out.retries_denied = result.budget_denials.size();

    // Origins whose retry the budget denied: their chain ends in a
    // failed record, but the write-off was a *deliberate* shed, so
    // the ledger accounts it separately from a genuine loss.
    std::set<RecordKey> denied;
    for (const RetryDenial &d : result.budget_denials)
        denied.insert({d.origin_chip, d.origin_id});

    // Mark each adoption's host record, and group the chains by
    // ultimate origin (manifests flatten multi-hop chains, so the
    // group key is direct).
    std::set<RecordKey> hosts;
    std::map<RecordKey, std::vector<const AdoptionMeta *>> chains;
    for (const AdoptionMeta &a : result.adoptions) {
        rapid_assert(a.host_chip < result.chips.size() &&
                         a.local_id <
                             result.chips[a.host_chip].requests.size(),
                     "adoption points at a missing record");
        hosts.insert({a.host_chip, a.local_id});
        chains[{a.origin_chip, a.origin_id}].push_back(&a);
    }

    std::vector<int64_t> latencies;
    for (size_t chip = 0; chip < result.chips.size(); ++chip) {
        for (const RequestRecord &r : result.chips[chip].requests) {
            if (hosts.count({chip, r.id}))
                continue; // an adopted copy, resolved via its origin
            ++out.offered;

            // Walk to the chain's terminal record: the highest-
            // attempt adoption (attempts grow strictly along a
            // chain), or the origin record itself when it never
            // failed over.
            const RequestRecord *terminal = &r;
            size_t terminal_chip = chip;
            const auto it = chains.find({chip, r.id});
            if (it != chains.end()) {
                const AdoptionMeta *last = it->second.front();
                for (const AdoptionMeta *a : it->second)
                    if (a->attempts > last->attempts)
                        last = a;
                terminal_chip = last->host_chip;
                terminal = &result.chips[last->host_chip]
                                .requests[last->local_id];
            }

            if (terminal->failed) {
                if (denied.count({chip, r.id}))
                    ++out.shed_budget;
                else
                    ++out.failed;
            } else if (terminal->shed) {
                ++out.shed;
            } else {
                ++out.completed;
                if (terminal_chip != chip)
                    ++out.failed_over;
                const int64_t lat =
                    terminal->completion_ns - r.arrival_ns;
                latencies.push_back(lat);
                const int64_t deadline =
                    cfg.serve.tenants[r.tenant].deadline_ns;
                if (lat <= deadline)
                    ++out.sla_met;
                else
                    ++out.violations;
            }
        }
    }

    out.latency = summarizeLatencies(std::move(latencies));
    const double horizon_s = double(cfg.serve.horizon_ns) * 1e-9;
    out.offered_rps = double(out.offered) / horizon_s;
    out.goodput_rps = double(out.sla_met) / horizon_s;

    double live_ns = 0;
    for (const ChipStatus &st : result.status) {
        if (st.failed_stop) {
            ++out.chips_failed;
            live_ns += double(
                std::min(st.planned_ns, cfg.serve.horizon_ns));
        } else {
            live_ns += double(cfg.serve.horizon_ns);
        }
        if (st.degraded)
            ++out.chips_degraded;
    }
    out.live_fraction =
        live_ns / (double(cfg.serve.horizon_ns) *
                   double(result.status.size()));
    return out;
}

std::string
fleetReport(const ClusterConfig &cfg, const FleetResult &result,
            const FleetLedger &ledger)
{
    Table t({"Chip", "State", "Fail ms", "Detect ms", "Records",
             "Done", "Failed", "Shed", "Orphans", "Adopted", "Hb"});
    for (size_t chip = 0; chip < result.chips.size(); ++chip) {
        const ChipStatus &st = result.status[chip];
        const ServeResult &sr = result.chips[chip];
        uint64_t done = 0, failed = 0, shed = 0;
        for (const RequestRecord &r : sr.requests) {
            if (r.failed)
                ++failed;
            else if (r.shed)
                ++shed;
            else
                ++done;
        }
        uint64_t adopted = 0;
        for (const AdoptionMeta &a : result.adoptions)
            if (a.host_chip == chip)
                ++adopted;
        const char *state = st.failed_stop
                                ? "dead"
                                : (st.degraded ? "degraded" : "ok");
        t.addRow({std::to_string(chip), state,
                  st.planned_ns >= 0 ? ms(st.planned_ns) : "-",
                  st.detect_ns >= 0 ? ms(st.detect_ns) : "-",
                  std::to_string(sr.requests.size()),
                  std::to_string(done), std::to_string(failed),
                  std::to_string(shed), std::to_string(st.orphans),
                  std::to_string(adopted),
                  std::to_string(st.heartbeats_sent)});
    }

    std::ostringstream oss;
    oss << t.str();
    oss << "fleet [" << fleetPolicyName(cfg.policy) << "]: offered "
        << ledger.offered << ", completed " << ledger.completed
        << " (failed-over " << ledger.failed_over << "), shed "
        << ledger.shed << ", failed " << ledger.failed << ", retries "
        << ledger.retries << ", closed "
        << (ledger.closed() ? "yes" : "NO") << "\n";
    if (cfg.failover.budget.enabled)
        oss << "budget: " << ledger.retries_denied
            << " retries denied, " << ledger.shed_budget
            << " origins converted to shed\n";
    oss << "fleet: sla " << Table::pct(ledger.sla_met, ledger.completed)
        << " of completed, p99 " << ms(ledger.latency.p99)
        << " ms, goodput " << Table::fmt(ledger.goodput_rps, 1)
        << "/s of " << Table::fmt(ledger.offered_rps, 1)
        << "/s offered, live "
        << Table::fmt(100.0 * ledger.live_fraction, 1) << "%\n";

    const TrainingOutcome &tr = result.training;
    if (tr.enabled) {
        oss << "training: " << tr.steps_completed << "/"
            << tr.steps_target << " steps";
        if (tr.home_failed)
            oss << ", home died at step " << tr.steps_at_death;
        if (tr.restored)
            oss << ", restored from checkpoint step "
                << tr.restore_step << " (lost " << tr.lost_steps
                << " steps)";
        oss << ", " << tr.checkpoints_replicated << " ckpts shipped";
        if (!tr.final_checkpoint.empty())
            oss << ", final state "
                << hex16(fnv1a(tr.final_checkpoint));
        else
            oss << ", LOST";
        oss << "\n";
    }
    return oss.str();
}

std::string
clusterJsonRecord(const std::string &section, const ClusterConfig &cfg,
                  const FleetResult &result, const FleetLedger &ledger)
{
    const TrainingOutcome &tr = result.training;
    std::ostringstream oss;
    oss << "{\"section\":\"" << section << "\",\"policy\":\""
        << fleetPolicyName(cfg.policy)
        << "\",\"num_chips\":" << cfg.num_chips
        << ",\"failure_rate\":" << Table::fmt(cfg.failures.rate, 3)
        << ",\"offered\":" << ledger.offered
        << ",\"completed\":" << ledger.completed
        << ",\"shed\":" << ledger.shed
        << ",\"failed\":" << ledger.failed
        << ",\"failed_over\":" << ledger.failed_over
        << ",\"shed_budget\":" << ledger.shed_budget
        << ",\"retries_denied\":" << ledger.retries_denied
        << ",\"retries\":" << ledger.retries
        << ",\"sla_met\":" << ledger.sla_met
        << ",\"violations\":" << ledger.violations
        << ",\"p99_ms\":" << ms(ledger.latency.p99)
        << ",\"goodput_rps\":" << Table::fmt(ledger.goodput_rps, 3)
        << ",\"offered_rps\":" << Table::fmt(ledger.offered_rps, 3)
        << ",\"live_fraction\":"
        << Table::fmt(ledger.live_fraction, 4)
        << ",\"chips_failed\":" << ledger.chips_failed
        << ",\"chips_degraded\":" << ledger.chips_degraded
        << ",\"windows\":" << ledger.windows
        << ",\"closed\":" << (ledger.closed() ? "true" : "false")
        << ",\"training_enabled\":"
        << (tr.enabled ? "true" : "false")
        << ",\"training_restored\":"
        << (tr.restored ? "true" : "false")
        << ",\"training_lost_steps\":" << tr.lost_steps << "}";
    return oss.str();
}

} // namespace rapid
