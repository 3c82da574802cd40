/**
 * @file
 * Deterministic, seeded fault injection for the RaPiD model — the
 * resilience counterpart of the fault-free reproduction. The oracle
 * lives in common/ because it is cross-cutting substrate like
 * common/random.hh: every hardware-site model (interconnect, sim,
 * perf, func) draws from it, while the campaign-level storage
 * simulator stays in src/fault. RaPiD is
 * fabricated silicon, and the value of an ultra-low-precision chip
 * depends on how its datapaths behave when bits flip and units die,
 * so the model grows pluggable injection sites:
 *
 *   - StorageWord: bit-flips in the stored operand encodings of the
 *     bit-accurate precision formats (DLFloat16, both FP8 flavours,
 *     INT4/INT2) — see fault/storage_sim.hh.
 *   - MacOutput:  corruption of a systolic-array accumulator output
 *     (sim/systolic).
 *   - RingFlit:   corruption of a flit crossing a ring link
 *     (interconnect/ring).
 *   - Scratchpad: corruption of a staged scratchpad block
 *     (sim/corelet_sim).
 *
 * Each site carries a protection model (parity/ECC detection
 * coverage, in-place correction fraction, and the retry cost of a
 * detected-but-uncorrected fault), so protected-vs-unprotected
 * efficiency is quantifiable: detected errors charge replayed flits
 * and re-issued tiles into the performance and power models.
 *
 * Determinism contract: every random decision derives from a counter
 * mix of (config seed, site, work-item index) — there is no global
 * RNG state and no draw-order dependence — so injection results are
 * bit-identical at any --threads N and across runs. With rate == 0
 * (the default) the injector is provably zero-effect: every entry
 * point early-returns before drawing anything.
 */

#ifndef RAPID_COMMON_FAULT_HH
#define RAPID_COMMON_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"

namespace rapid {

/** Where a fault strikes. */
enum class FaultSite
{
    StorageWord = 0, ///< stored operand encoding (per-bit flips)
    MacOutput,       ///< systolic accumulator output (event-level)
    RingFlit,        ///< flit on a ring link (event-level)
    Scratchpad,      ///< staged L0 block (event-level)
    TrainerGemm,     ///< training GEMM output element (event-level)
};

inline constexpr unsigned kNumFaultSites = 5;

const char *faultSiteName(FaultSite site);

/** Protection (parity/ECC) model for one injection site. */
struct SiteProtection
{
    /// Fraction of faults the site's parity/ECC detects.
    double detect = 0.0;
    /// Of the detected faults, the fraction corrected in place (ECC)
    /// at no retry cost; the remainder triggers a retry.
    double correct = 0.0;
    /// Cycles charged per detected-but-uncorrected fault: a replayed
    /// flit, a re-streamed scratchpad block, a re-issued tile.
    double retry_cost = 0.0;
};

/** Parity-style protection: high detection, no correction. */
SiteProtection parityProtection(double retry_cost);

/** SECDED-ECC-style protection: full detection, mostly corrected. */
SiteProtection secdedProtection(double retry_cost);

/** Knobs of one fault-injection scenario. */
struct FaultConfig
{
    /// Fault probability: per bit for StorageWord, per event for the
    /// other sites. 0 (the default) disables injection entirely.
    double rate = 0.0;
    /// Root seed of every deterministic per-(site, item) stream.
    uint64_t seed = 0xfa1175ULL;
    /// Per-site enables; a disabled site never faults. TrainerGemm is
    /// opt-in (the resilient trainer enables it) so hardware-site
    /// scenarios and their golden summaries are unaffected by the
    /// training site's existence.
    std::array<bool, kNumFaultSites> site_enabled{
        {true, true, true, true, false}};
    /// Per-site protection (defaults: unprotected).
    std::array<SiteProtection, kNumFaultSites> protection{};

    bool enabled() const { return rate > 0.0; }

    const SiteProtection &
    protectionFor(FaultSite site) const
    {
        return protection[unsigned(site)];
    }

    /** Convenience: uniform rate, default everything else. */
    static FaultConfig withRate(double rate, uint64_t seed = 0xfa1175ULL);

    /** Apply @p p to every site. */
    void protectAll(const SiteProtection &p);
};

/**
 * Throw rapid::Error if @p cfg holds out-of-range knobs (rate or
 * protection fractions outside [0,1], negative or non-finite costs).
 */
void validateFaultConfig(const FaultConfig &cfg);

/** Outcome counters of an injection campaign. */
struct FaultStats
{
    uint64_t sampled = 0;   ///< items examined (words / events)
    uint64_t injected = 0;  ///< faults that actually struck
    uint64_t detected = 0;  ///< caught by parity/ECC (incl. corrected)
    uint64_t corrected = 0; ///< fixed in place by ECC
    uint64_t retries = 0;   ///< detected-uncorrected -> replayed
    uint64_t masked = 0;    ///< escaped detection, no visible effect
    uint64_t sdc = 0;       ///< escaped detection, corrupted a result
    double retry_cycles = 0; ///< total replay cost charged

    FaultStats &operator+=(const FaultStats &o);

    /** injected == detected + masked + sdc must always hold. */
    bool accountingConsistent() const;
};

/** How one injected fault resolved against the site's protection. */
enum class FaultOutcome
{
    None,      ///< no fault struck this item
    Corrected, ///< detected and fixed in place (ECC)
    Detected,  ///< detected, not corrected -> retry charged
    Silent,    ///< escaped detection; caller classifies masked vs SDC
};

/**
 * Stateless, thread-safe fault oracle. All methods are const and all
 * randomness comes from the per-(site, item) stream, so call sites
 * parallelized over items produce bit-identical faults at any thread
 * count.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg);

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled(); }

    bool
    siteEnabled(FaultSite site) const
    {
        return cfg_.site_enabled[unsigned(site)];
    }

    /** True when injection can strike @p site at all. */
    bool
    active(FaultSite site) const
    {
        return enabled() && siteEnabled(site);
    }

    /** The deterministic RNG stream for (site, item). */
    Rng stream(FaultSite site, uint64_t item) const;

    /** One Bernoulli(rate) draw from @p rng. */
    bool eventDraw(Rng &rng) const;

    /**
     * The offsets i in [0, @p n), ascending, for which the hash-derived
     * Bernoulli(rate) draw of (@p site, @p first + i) hits (its
     * hashDraw() x, as the uniform x * 2^-53, below the rate): no
     * mt19937 construction, so high-volume sites (one item per GEMM
     * output element) pre-filter in about a ns per item, in lanes
     * (LaneHashHits), and build the full stream() only on the rare
     * hit. Sites opting in define their hit set through this draw
     * rather than eventDraw(stream(...)).
     */
    std::vector<uint64_t> hashEventHits(FaultSite site, uint64_t first,
                                        uint64_t n) const;

    /**
     * Flip each of the low @p bits of @p word independently with
     * probability rate (storage-site model). @p flips reports how
     * many bits flipped.
     */
    uint32_t corruptBits(Rng &rng, unsigned bits, uint32_t word,
                         unsigned &flips) const;

    /** Flip exactly one uniformly-chosen bit of the low @p bits. */
    uint32_t flipOneBit(Rng &rng, unsigned bits, uint32_t word) const;

    /**
     * Resolve one struck fault against @p site's protection, using
     * further draws from @p rng. Updates detected/corrected/retries/
     * retry_cycles in @p stats (the caller counts injected and the
     * Silent-path masked/sdc split, which needs downstream context).
     */
    FaultOutcome resolveProtection(FaultSite site, Rng &rng,
                                   FaultStats &stats) const;

    /**
     * Event-level convenience: sample, strike, and resolve item
     * @p item at @p site in one call. Returns None when inactive.
     */
    FaultOutcome inject(FaultSite site, uint64_t item,
                        FaultStats &stats) const;

  private:
    FaultConfig cfg_;
};

/**
 * Expected retry cycles charged by the analytical performance model
 * for @p events exposures at @p site. @p exposure scales the per-event
 * fault probability (e.g. bits per stored word); the per-event
 * probability is clamped to 1.
 */
double expectedRetryCycles(const FaultConfig &cfg, FaultSite site,
                           double events, double exposure);

/** splitmix64 finalizer: the standard seed-mixing bijection. */
inline uint64_t
splitmix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Deterministic (seed, item) mix (two splitmix64 rounds) for seeding
 * per-work-item Rng streams without any shared RNG state. Two rounds
 * decorrelate (seed, item) pairs: one splitmix64 step is already a
 * bijection, the second breaks the simple additive relation between
 * neighbouring items.
 */
inline uint64_t
mixSeed(uint64_t seed, uint64_t item)
{
    return splitmix64(splitmix64(seed) ^ item);
}

/**
 * The hash draw of @p item under the site key @p key (splitmix64 of
 * the site's seed, so that this is the top 53 bits of mixSeed()): an
 * integer below 2^53, whose uniform in [0, 1) is x * 2^-53, the
 * mt19937 real distribution's resolution.
 */
inline uint64_t
hashDraw(uint64_t key, uint64_t item)
{
    return splitmix64(key ^ item) >> 11;
}

/**
 * The hash pre-filter at one lane width: @p run appends to @p hits
 * each offset i in [0, @p n), ascending, whose hashDraw() of item
 * @p first + i under @p key lies below @p threshold.
 */
struct LaneHashHits
{
    using Run = void (*)(uint64_t key, uint64_t first, uint64_t n,
                         uint64_t threshold, std::vector<uint64_t> &hits);

    int64_t width; ///< W: the 32-bit lanes of one vector
    Run run;
};

/**
 * LaneHashHits::run at lane width @p W; an entry instantiates this at
 * its width under its target. Each block of W items draws
 * branch-free, and only a block with a hit (rare at a fault rate) is
 * walked again to list it.
 */
template <int W>
[[gnu::always_inline]] inline void
hashHitsLanes(uint64_t key, uint64_t first, uint64_t n, uint64_t threshold,
              std::vector<uint64_t> &hits)
{
    uint64_t i = 0;
    for (; i + W <= n; i += W) {
        uint64_t any = 0;
        for (uint64_t l = 0; l < W; ++l)
            any |= uint64_t(hashDraw(key, first + i + l) < threshold);
        if (any == 0)
            continue;
        for (uint64_t l = 0; l < W; ++l)
            if (hashDraw(key, first + i + l) < threshold)
                hits.push_back(i + l);
    }
    for (; i < n; ++i)
        if (hashDraw(key, first + i) < threshold)
            hits.push_back(i);
}

/**
 * One-line human-readable description of a fault scenario
 * ("fault-free" or "rate 1e-07, sites storage+mac+ring+spad"),
 * stable across runs for golden-diffed reports.
 */
std::string faultConfigSummary(const FaultConfig &cfg);

} // namespace rapid

#endif // RAPID_COMMON_FAULT_HH
