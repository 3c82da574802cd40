/**
 * @file
 * Error and status reporting helpers, modelled after gem5's
 * base/logging.hh conventions: panic() for internal invariant
 * violations, fatal() for user-caused unrecoverable errors, warn() for
 * status messages.
 */

#ifndef RAPID_COMMON_LOGGING_HH
#define RAPID_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace rapid {

namespace detail {

/** Format a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

} // namespace rapid

/**
 * Abort on an internal invariant violation (a bug in this library).
 */
#define rapid_panic(...)                                                    \
    ::rapid::detail::panicImpl(__FILE__, __LINE__,                          \
                               ::rapid::detail::formatMessage(__VA_ARGS__))

/**
 * Exit on an unrecoverable user error (bad configuration or arguments).
 */
#define rapid_fatal(...)                                                    \
    ::rapid::detail::fatalImpl(__FILE__, __LINE__,                          \
                               ::rapid::detail::formatMessage(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define rapid_warn(...)                                                     \
    ::rapid::detail::warnImpl(::rapid::detail::formatMessage(__VA_ARGS__))

/** Assert that is kept in release builds; panics with a message. */
#define rapid_assert(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            rapid_panic("assertion failed: " #cond " ",                    \
                        ::rapid::detail::formatMessage(__VA_ARGS__));       \
        }                                                                   \
    } while (0)

/**
 * Debug-only invariant check for hot paths: behaves like rapid_assert
 * in builds without NDEBUG (CMAKE_BUILD_TYPE=Debug) and compiles to
 * nothing in release builds. The condition stays syntactically checked
 * in release via an unevaluated sizeof, so it cannot bit-rot.
 */
#ifdef NDEBUG
#define rapid_dassert(cond, ...)                                            \
    do {                                                                    \
        (void)sizeof(!(cond));                                              \
    } while (0)
#else
#define rapid_dassert(cond, ...) rapid_assert(cond, __VA_ARGS__)
#endif

/**
 * Index-bounds invariant used by Tensor element access and the
 * precision/systolic hot paths. Active in any build configured with
 * -DRAPID_BOUNDS_CHECK=ON (including release), and additionally in
 * debug builds; otherwise free.
 */
#if defined(RAPID_BOUNDS_CHECK) && RAPID_BOUNDS_CHECK
#define rapid_bounds_check(cond, ...) rapid_assert(cond, __VA_ARGS__)
#else
#define rapid_bounds_check(cond, ...) rapid_dassert(cond, __VA_ARGS__)
#endif

#endif // RAPID_COMMON_LOGGING_HH
