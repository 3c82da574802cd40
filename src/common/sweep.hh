/**
 * @file
 * Shared entry point for the bench drivers and the one sink their
 * records go to. sweepMain parses the sweep flags every driver
 * accepts, sizes the shared ThreadPool, times the driver body, and
 * records the wall-clock measurement; sweepRecord appends any
 * driver's JSON record to the report log that scripts/assemble.py
 * turns into BENCH_<report>.json (the repo's recorded perf and
 * results trajectory).
 *
 * Flags / environment:
 *   --threads N        thread count for this run (RAPID_THREADS env
 *                      is the fallback; hardware concurrency the
 *                      default)
 *   RAPID_REPORT_JSON  the report log every record is appended to;
 *                      unset or empty records nothing
 *
 * Records go to the report log only — never to stdout — so driver
 * output stays bit-identical across thread counts and the golden
 * regression tests can diff it verbatim.
 */

#ifndef RAPID_COMMON_SWEEP_HH
#define RAPID_COMMON_SWEEP_HH

#include <functional>
#include <string>

namespace rapid {

/**
 * Run a bench driver: parse @p argc/@p argv, configure the pool,
 * execute @p body once, and append the timing record as report
 * "sweeps". Returns the process exit code (0 on success); bad usage
 * exits nonzero.
 */
int sweepMain(const std::string &figure, int argc, char **argv,
              const std::function<void()> &body);

/**
 * Append @p json, one JSON object, to the file named by
 * RAPID_REPORT_JSON as the line {"report":"<report>",...}. Does
 * nothing when the variable is unset or empty; exits nonzero naming
 * the path when the file cannot be appended to, so a record is never
 * dropped silently. Call it from serial code only.
 */
void sweepRecord(const std::string &report, const std::string &json);

} // namespace rapid

#endif // RAPID_COMMON_SWEEP_HH
