/**
 * @file
 * A loop shape GCC 12 vectorises at -O2. Its default (very cheap) cost
 * model only takes loops whose trip count is a compile-time multiple of
 * the vector width, so a loop over a runtime length runs as whole
 * fixed-size blocks and then a scalar tail.
 *
 * And the lane vectors that register kernels hold their state in
 * across a reduction, where no loop shape vectorises by itself.
 */

#ifndef RAPID_COMMON_LANES_HH
#define RAPID_COMMON_LANES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rapid {

/** @p fn(i) for every i in [0, @p n), in ascending order: whole blocks
 *  of @p Block first, then the tail. */
template <int64_t Block = 8, typename Fn>
inline void
forEachBlocked(int64_t n, Fn &&fn)
{
    int64_t i = 0;
    for (; i + Block <= n; i += Block)
        for (int64_t l = 0; l < Block; ++l)
            fn(i + l);
    for (; i < n; ++i)
        fn(i);
}

/**
 * GCC vectors of @p W lanes (4W bytes): floats, their binary32
 * patterns, and lane masks (all ones or all zeros); and the same
 * register as W/2 doubles. W = 4 is one SSE2
 * register, the x86-64 baseline; W = 8 and 16 need AVX2 and AVX-512,
 * so code over them runs only inside functions compiled for those
 * targets (RAPID_TARGET_AVX2, RAPID_TARGET_AVX512), into which every
 * helper below is always inlined. Without that target a wide vector
 * lowers to scalar code.
 *
 * Wide vectors must cross no call: a function compiled without the
 * target passes and returns them differently (a Debug build that calls
 * std::bit_cast out of line reads garbage), so every function over
 * lane vectors is always inlined, even at -O0, and bit casts between
 * them go through lanesAs(), not std::bit_cast. GCC still checks each
 * inline helper's calling convention at the end of a translation unit
 * and warns (-Wpsabi) that a wide vector return needs AVX, so a file
 * that instantiates W = 8 or 16 switches that warning off for itself.
 */
template <int W>
struct LaneVectors
{
    typedef float Float __attribute__((vector_size(4 * W)));
    typedef uint32_t Bits __attribute__((vector_size(4 * W)));
    typedef int32_t Mask __attribute__((vector_size(4 * W)));
    typedef double Double __attribute__((vector_size(4 * W)));
};

template <int W>
using FloatLanes = typename LaneVectors<W>::Float;
template <int W>
using BitLanes = typename LaneVectors<W>::Bits;
template <int W>
using MaskLanes = typename LaneVectors<W>::Mask;
template <int W>
using DoubleLanes = typename LaneVectors<W>::Double;

/** A GCC vector of @p N lanes of @p T, for lanes that are not 32 bits
 *  wide or a block of several registers (GCC splits a vector wider
 *  than the target's registers into registers). */
template <typename T, int N>
struct VectorOf
{
    typedef T Type __attribute__((vector_size(N * sizeof(T))));
};

template <typename T, int N>
using LanesOf = typename VectorOf<T, N>::Type;

#if defined(__x86_64__)
#define RAPID_TARGET_AVX2 __attribute__((target("avx2")))
#define RAPID_TARGET_AVX512                                                 \
    __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))
#else
#define RAPID_TARGET_AVX2
#define RAPID_TARGET_AVX512
#endif

/** Whether this CPU executes lane code of half-width @p w: 4 on every
 *  x86-64 (SSE2), 8 with AVX2, 16 with AVX-512 F/DQ/BW/VL. */
inline bool
cpuRunsLanes(int w)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    switch (w) {
      case 16:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl");
      case 8:
        return __builtin_cpu_supports("avx2");
      default:
        break;
    }
#endif
    return w == 4;
}

/**
 * The widest of @p kernels this CPU executes. Each kernel is a struct
 * whose `width` is the W it was compiled for; they come widest first,
 * and the last is W = 4, which every x86-64 executes.
 */
template <typename Kernel, size_t N>
const Kernel &
widestLanes(const Kernel (&kernels)[N])
{
    for (const Kernel &kernel : kernels)
        if (cpuRunsLanes(int(kernel.width)))
            return kernel;
    return kernels[N - 1];
}

/**
 * Runs the calling thread's kernels of type @p Kernel on one given
 * width instead of the process's pick while it lives, so tests can run
 * the library at every width the CPU executes. Nothing outside a test
 * constructs one.
 */
template <typename Kernel>
class LaneScope
{
  public:
    explicit LaneScope(const Kernel &kernel) : outer_(active_)
    {
        active_ = &kernel;
    }
    ~LaneScope() { active_ = outer_; }
    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;

    /** The innermost scope's kernel on this thread, else @p picked. */
    static const Kernel &activeOr(const Kernel &picked)
    {
        return active_ ? *active_ : picked;
    }

  private:
    static inline thread_local constinit const Kernel *active_ = nullptr;
    const Kernel *outer_;
};

/**
 * Whether an (M,K) x (K,N) GEMM whose kernel runs at lane width
 * @p width runs as C^T = B^T A^T: an output narrower than one vector of
 * @p width floats and taller than it is wide, so that M fills the lanes
 * instead of N. Each output keeps the same exact products in the same
 * ascending k, so its bits do not change.
 */
inline bool
swapsRoles(int64_t width, int64_t m, int64_t n)
{
    return n < width && m > n;
}

/** The bits of lane vector @p v as a lane vector of type @p To. */
template <typename To, typename From>
[[gnu::always_inline]] inline To
lanesAs(const From &v)
{
    return __builtin_bit_cast(To, v);
}

/** @p yes in the lanes where @p mask is all ones, else @p no. */
template <typename Bits, typename Mask>
[[gnu::always_inline]] inline Bits
selectLanes(const Mask &mask, const Bits &yes, const Bits &no)
{
    const Bits m = lanesAs<Bits>(mask);
    return (yes & m) | (no & ~m);
}

/** The @p W floats at @p p, which need no alignment. */
template <int W>
[[gnu::always_inline]] inline FloatLanes<W>
loadLanes(const float *p)
{
    FloatLanes<W> v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** The @p W / 2 doubles at @p p (one vector of W floats' width), which
 *  need no alignment. */
template <int W>
[[gnu::always_inline]] inline DoubleLanes<W>
loadLanes(const double *p)
{
    DoubleLanes<W> v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Lane vector @p v to the floats at @p p, which need no alignment. */
template <typename Lanes>
[[gnu::always_inline]] inline void
storeLanes(float *p, const Lanes &v)
{
    std::memcpy(p, &v, sizeof(v));
}

} // namespace rapid

#endif // RAPID_COMMON_LANES_HH
