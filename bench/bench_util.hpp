/**
 * @file
 * Shared helpers for the experiment benches.
 *
 * Each bench binary regenerates one table or figure from the paper
 * (see DESIGN.md's experiment index) and prints paper-vs-measured rows.
 * Heavy ILP benches read FLEX_SOLVE_SECONDS / FLEX_BENCH_TRACES from the
 * environment so CI can trade fidelity for wall-clock time.
 */
#ifndef FLEX_BENCH_BENCH_UTIL_HPP_
#define FLEX_BENCH_BENCH_UTIL_HPP_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/export.hpp"
#include "obs/observability.hpp"

namespace flex::bench {

/** Per-batch MILP budget for Flex-Offline benches (seconds). */
inline double
SolveSeconds(double fallback = 1.0)
{
  if (const char* env = std::getenv("FLEX_SOLVE_SECONDS"))
    return std::atof(env) > 0.0 ? std::atof(env) : fallback;
  return fallback;
}

/** Number of shuffled trace variants (the paper uses 10). */
inline int
NumTraces(int fallback = 10)
{
  if (const char* env = std::getenv("FLEX_BENCH_TRACES")) {
    const int value = std::atoi(env);
    if (value > 0)
      return value;
  }
  return fallback;
}

/** Prints the standard bench header. */
inline void
PrintHeader(const std::string& experiment, const std::string& artifact,
            const std::string& what)
{
  std::printf("=============================================================="
              "==========\n");
  std::printf("%s — reproduces %s: %s\n", experiment.c_str(),
              artifact.c_str(), what.c_str());
  std::printf("=============================================================="
              "==========\n");
}

/**
 * Appends this bench's metrics snapshot as one JSON line to the
 * trajectory file named by FLEX_BENCH_JSON (e.g. BENCH_obs.json).
 * No-op when the variable is unset. @p sim_time_s stamps the simulated
 * horizon the bench stepped when its registry has no bound clock (the
 * snapshot's own clock stamp otherwise). @return true when a line was
 * written.
 */
inline bool
MaybeExportBenchJson(const std::string& bench_name,
                     const obs::Observability& observability,
                     std::optional<double> sim_time_s = std::nullopt)
{
  const char* path = std::getenv("FLEX_BENCH_JSON");
  if (path == nullptr || *path == '\0')
    return false;
  obs::MetricsSnapshot snapshot = observability.metrics().Snapshot();
  if (sim_time_s)
    snapshot.sim_time_seconds = *sim_time_s;
  const bool ok =
      obs::AppendLine(path, obs::BenchJsonLine(bench_name, snapshot));
  if (ok)
    std::printf("metrics appended to %s\n", path);
  else
    std::fprintf(stderr, "failed to write %s\n", path);
  return ok;
}

}  // namespace flex::bench

#endif  // FLEX_BENCH_BENCH_UTIL_HPP_
