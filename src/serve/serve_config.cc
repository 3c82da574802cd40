#include "serve/serve_config.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace rapid {

int
servingQuality(Precision p)
{
    switch (p) {
      case Precision::FP32: return -1; // SFU-only, not servable
      case Precision::FP16: return 3;
      case Precision::HFP8: return 2;
      case Precision::INT4: return 1;
      case Precision::INT2: return 0;
    }
    return -1;
}

void
validateServeConfig(const ServeConfig &cfg)
{
    RAPID_CHECK_ARG(!cfg.tenants.empty(),
                    "a serving scenario needs at least one tenant");
    for (const TenantConfig &t : cfg.tenants) {
        RAPID_CHECK_ARG(!t.name.empty(), "tenant name must be set");
        RAPID_CHECK_ARG(std::isfinite(t.arrival_rps) &&
                            t.arrival_rps >= 0.0,
                        "tenant '", t.name,
                        "': arrival_rps must be >= 0, got ",
                        t.arrival_rps);
        RAPID_CHECK_ARG(t.deadline_ns > 0, "tenant '", t.name,
                        "': deadline_ns must be positive, got ",
                        t.deadline_ns);
        RAPID_CHECK_ARG(t.pattern != ArrivalPattern::Bursty ||
                            (std::isfinite(t.burst_mean) &&
                             t.burst_mean >= 1.0),
                        "tenant '", t.name,
                        "': bursty traffic needs burst_mean >= 1, got ",
                        t.burst_mean);
        RAPID_CHECK_ARG(servingQuality(t.min_precision) >= 0,
                        "tenant '", t.name, "': quality floor ",
                        precisionName(t.min_precision),
                        " is not a servable MPE precision");
        RAPID_CHECK_ARG(t.priority >= 0, "tenant '", t.name,
                        "': priority must be >= 0, got ", t.priority);
    }
    RAPID_CHECK_ARG(cfg.batcher.max_batch >= 1,
                    "batcher max_batch must be >= 1, got ",
                    cfg.batcher.max_batch);
    RAPID_CHECK_ARG(cfg.batcher.max_wait_ns >= 0,
                    "batcher max_wait_ns must be >= 0, got ",
                    cfg.batcher.max_wait_ns);
    RAPID_CHECK_ARG(!cfg.ladder.empty(),
                    "the router's precision ladder must not be empty");
    for (Precision p : cfg.ladder)
        RAPID_CHECK_ARG(servingQuality(p) >= 0, "ladder precision ",
                        precisionName(p),
                        " is not a servable MPE precision");
    RAPID_CHECK_ARG(cfg.horizon_ns > 0,
                    "horizon_ns must be positive, got ", cfg.horizon_ns);
    validateFaultConfig(cfg.fault);
    validateOverloadConfig(cfg.overload);
}

std::vector<Precision>
tablePrecisions(const ServeConfig &cfg)
{
    std::vector<Precision> precs = cfg.ladder;
    for (const TenantConfig &t : cfg.tenants)
        if (std::find(precs.begin(), precs.end(), t.min_precision) ==
            precs.end())
            precs.push_back(t.min_precision);
    return precs;
}

} // namespace rapid
