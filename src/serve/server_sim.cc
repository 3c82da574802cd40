#include "serve/server_sim.hh"

#include <algorithm>
#include <string>

#include "common/des.hh"
#include "common/logging.hh"
#include "serve/serve_domain.hh"
#include "workloads/networks.hh"

namespace rapid {

namespace {

std::vector<std::string>
uniqueNetworkNames(const ServeConfig &cfg)
{
    std::vector<std::string> names;
    for (const TenantConfig &t : cfg.tenants)
        if (std::find(names.begin(), names.end(), t.network) ==
            names.end())
            names.push_back(t.network);
    return names;
}

std::vector<size_t>
mapTenants(const ServeConfig &cfg,
           const std::vector<std::string> &names)
{
    std::vector<size_t> map;
    map.reserve(cfg.tenants.size());
    for (const TenantConfig &t : cfg.tenants) {
        const auto it =
            std::find(names.begin(), names.end(), t.network);
        rapid_assert(it != names.end(), "unmapped tenant network");
        map.push_back(size_t(it - names.begin()));
    }
    return map;
}

std::vector<Network>
buildNetworks(const std::vector<std::string> &names)
{
    std::vector<Network> nets;
    nets.reserve(names.size());
    for (const std::string &n : names)
        nets.push_back(benchmarkByName(n));
    return nets;
}

} // namespace

ServeSim::ServeSim(const ChipConfig &chip, const ServeConfig &cfg)
    // Validate before any member does real work; the comma operator
    // keeps the always-on checks ahead of the field copies.
    : chip_((validateServeConfig(cfg), validateChipConfig(chip), chip)),
      cfg_(cfg), network_names_(uniqueNetworkNames(cfg)),
      tenant_network_(mapTenants(cfg, network_names_)),
      networks_(buildNetworks(network_names_)),
      table_(chip_, networks_, tablePrecisions(cfg),
             cfg.batcher.max_batch, cfg.fault)
{
}

ServeResult
ServeSim::run() const
{
    return runServeBatch({this}).front();
}

std::vector<ServeResult>
runServeBatch(const std::vector<const ServeSim *> &sims)
{
    return runIndependent<ServeDomainCore>(sims, "serve");
}

} // namespace rapid
