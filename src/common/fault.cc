#include "common/fault.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hh"
#include "common/lanes.hh"
#include "common/logging.hh"

namespace rapid {

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::StorageWord:
        return "storage";
      case FaultSite::MacOutput:
        return "mac";
      case FaultSite::RingFlit:
        return "flit";
      case FaultSite::Scratchpad:
        return "scratchpad";
      case FaultSite::TrainerGemm:
        return "trainer-gemm";
    }
    return "?";
}

SiteProtection
parityProtection(double retry_cost)
{
    SiteProtection p;
    p.detect = 0.99; // per-word parity misses even-weight multi-flips
    p.correct = 0.0;
    p.retry_cost = retry_cost;
    return p;
}

SiteProtection
secdedProtection(double retry_cost)
{
    SiteProtection p;
    p.detect = 1.0;   // SECDED flags every modeled upset
    p.correct = 0.95; // single-bit (the common case) fixed in place
    p.retry_cost = retry_cost;
    return p;
}

FaultConfig
FaultConfig::withRate(double rate, uint64_t seed)
{
    FaultConfig cfg;
    cfg.rate = rate;
    cfg.seed = seed;
    return cfg;
}

void
FaultConfig::protectAll(const SiteProtection &p)
{
    protection.fill(p);
}

void
validateFaultConfig(const FaultConfig &cfg)
{
    RAPID_CHECK_ARG(std::isfinite(cfg.rate) && cfg.rate >= 0.0 &&
                        cfg.rate <= 1.0,
                    "FaultConfig.rate must be in [0, 1], got ",
                    cfg.rate);
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
        const SiteProtection &p = cfg.protection[s];
        const char *name = faultSiteName(FaultSite(s));
        RAPID_CHECK_ARG(std::isfinite(p.detect) && p.detect >= 0.0 &&
                            p.detect <= 1.0,
                        "protection.detect for site '", name,
                        "' must be in [0, 1], got ", p.detect);
        RAPID_CHECK_ARG(std::isfinite(p.correct) && p.correct >= 0.0 &&
                            p.correct <= 1.0,
                        "protection.correct for site '", name,
                        "' must be in [0, 1], got ", p.correct);
        RAPID_CHECK_ARG(std::isfinite(p.retry_cost) &&
                            p.retry_cost >= 0.0,
                        "protection.retry_cost for site '", name,
                        "' must be finite and >= 0, got ",
                        p.retry_cost);
    }
}

FaultStats &
FaultStats::operator+=(const FaultStats &o)
{
    sampled += o.sampled;
    injected += o.injected;
    detected += o.detected;
    corrected += o.corrected;
    retries += o.retries;
    masked += o.masked;
    sdc += o.sdc;
    retry_cycles += o.retry_cycles;
    return *this;
}

bool
FaultStats::accountingConsistent() const
{
    return injected == detected + masked + sdc &&
           detected == corrected + retries;
}

FaultInjector::FaultInjector(const FaultConfig &cfg) : cfg_(cfg)
{
    validateFaultConfig(cfg);
}

namespace {

/** The seed of @p site's item streams under injector seed @p seed. */
uint64_t
siteSalt(uint64_t seed, FaultSite site)
{
    return seed ^ (uint64_t(site) + 1) * 0xd6e8feb86659fd93ULL;
}

/**
 * The threshold a hash draw x hits below at @p rate in [0, 1]:
 * ceil(rate * 2^53). The integer test is the uniform's test exactly:
 * rate * 2^53 is a power-of-two scale, so exact, and so is x * 2^-53
 * for x < 2^53, so x * 2^-53 < rate iff x < rate * 2^53 iff
 * x < ceil(rate * 2^53) for an integer x.
 */
uint64_t
hashThreshold(double rate)
{
    return uint64_t(std::ceil(std::ldexp(rate, 53)));
}

// The pre-filter at each lane width, compiled for its target.

RAPID_TARGET_AVX512 void
hashHitsAvx512(uint64_t key, uint64_t first, uint64_t n, uint64_t threshold,
               std::vector<uint64_t> &hits)
{
    hashHitsLanes<16>(key, first, n, threshold, hits);
}

RAPID_TARGET_AVX2 void
hashHitsAvx2(uint64_t key, uint64_t first, uint64_t n, uint64_t threshold,
             std::vector<uint64_t> &hits)
{
    hashHitsLanes<8>(key, first, n, threshold, hits);
}

void
hashHitsBaseline(uint64_t key, uint64_t first, uint64_t n,
                 uint64_t threshold, std::vector<uint64_t> &hits)
{
    hashHitsLanes<4>(key, first, n, threshold, hits);
}

/** The pre-filter of the calling thread: a LaneScope's, else the
 *  widest this CPU executes, picked on first use. */
const LaneHashHits &
activeHashHits()
{
    static const LaneHashHits kWidths[] = {{16, &hashHitsAvx512},
                                           {8, &hashHitsAvx2},
                                           {4, &hashHitsBaseline}};
    static const LaneHashHits &picked = widestLanes(kWidths);
    return LaneScope<LaneHashHits>::activeOr(picked);
}

} // namespace

Rng
FaultInjector::stream(FaultSite site, uint64_t item) const
{
    return Rng(mixSeed(siteSalt(cfg_.seed, site), item));
}

bool
FaultInjector::eventDraw(Rng &rng) const
{
    return rng.uniform() < cfg_.rate;
}

std::vector<uint64_t>
FaultInjector::hashEventHits(FaultSite site, uint64_t first,
                             uint64_t n) const
{
    std::vector<uint64_t> hits;
    activeHashHits().run(splitmix64(siteSalt(cfg_.seed, site)), first, n,
                         hashThreshold(cfg_.rate), hits);
    return hits;
}

uint32_t
FaultInjector::corruptBits(Rng &rng, unsigned bits, uint32_t word,
                           unsigned &flips) const
{
    rapid_dassert(bits >= 1 && bits <= 32, "bad storage width ", bits);
    flips = 0;
    for (unsigned b = 0; b < bits; ++b) {
        if (rng.uniform() < cfg_.rate) {
            word ^= 1u << b;
            ++flips;
        }
    }
    return word;
}

uint32_t
FaultInjector::flipOneBit(Rng &rng, unsigned bits, uint32_t word) const
{
    rapid_dassert(bits >= 1 && bits <= 32, "bad storage width ", bits);
    const unsigned b = unsigned(rng.uniformInt(0, int64_t(bits) - 1));
    return word ^ (1u << b);
}

FaultOutcome
FaultInjector::resolveProtection(FaultSite site, Rng &rng,
                                 FaultStats &stats) const
{
    const SiteProtection &p = cfg_.protectionFor(site);
    if (rng.uniform() < p.detect) {
        ++stats.detected;
        if (rng.uniform() < p.correct) {
            ++stats.corrected;
            return FaultOutcome::Corrected;
        }
        ++stats.retries;
        stats.retry_cycles += p.retry_cost;
        return FaultOutcome::Detected;
    }
    return FaultOutcome::Silent;
}

FaultOutcome
FaultInjector::inject(FaultSite site, uint64_t item,
                      FaultStats &stats) const
{
    if (!active(site))
        return FaultOutcome::None;
    ++stats.sampled;
    Rng rng = stream(site, item);
    if (!eventDraw(rng))
        return FaultOutcome::None;
    ++stats.injected;
    return resolveProtection(site, rng, stats);
}

std::string
faultConfigSummary(const FaultConfig &cfg)
{
    if (!cfg.enabled())
        return "fault-free";
    char rate[32];
    std::snprintf(rate, sizeof(rate), "rate %g", cfg.rate);
    std::string out = rate;
    out += ", sites ";
    static const char *const kShort[kNumFaultSites] = {
        "storage", "mac", "ring", "spad", "tgemm"};
    bool first = true;
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
        if (!cfg.site_enabled[s])
            continue;
        if (!first)
            out += "+";
        out += kShort[s];
        first = false;
    }
    if (first)
        out += "none";
    return out;
}

double
expectedRetryCycles(const FaultConfig &cfg, FaultSite site,
                    double events, double exposure)
{
    if (!cfg.enabled() || !cfg.site_enabled[unsigned(site)])
        return 0.0;
    const SiteProtection &p = cfg.protectionFor(site);
    const double p_event = std::min(1.0, cfg.rate * exposure);
    return events * p_event * p.detect * (1.0 - p.correct) *
           p.retry_cost;
}

} // namespace rapid
