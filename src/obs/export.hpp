/**
 * @file
 * Exporters: JSONL reaction traces, JSON metrics snapshots, and the
 * human-readable end-of-run summary table.
 *
 * The JSON metrics format is line-oriented — one metric object per line
 * in a fixed key order — so BENCH_*.json trajectory files stay diffable
 * across runs and shell tooling (scripts/check_budget.sh) can extract
 * values without a JSON parser. Numbers render through json::Num, which
 * is bit-identical for equal seeds.
 */
#ifndef FLEX_OBS_EXPORT_HPP_
#define FLEX_OBS_EXPORT_HPP_

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flex::obs {

/**
 * One reaction trace as a single-line JSON object in a fixed key order:
 * id, replica, ups, actions, dup_detections, dup_waves, the five stage
 * timestamps (sampled_at, delivered_at, detected_at, decided_at,
 * enforced_at), complete, closed, budget. The line format of
 * traces.jsonl and of the /trace array.
 */
std::string ReactionTraceToJson(const ReactionTrace& trace);

/** Parses a ReactionTraceToJson line; false on malformed input. */
bool ParseReactionTraceJson(const std::string& line, ReactionTrace* out);

/** Every trace, one ReactionTraceToJson line each (JSONL). */
std::string TracesToJsonl(const ReactionTracer& tracer);

/** Pretty multi-line JSON: snapshot header + one metric per line. */
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

/**
 * One compact JSON object (single line) tagging the snapshot with a
 * bench name — the unit appended to a BENCH_*.json trajectory file.
 */
std::string BenchJsonLine(const std::string& bench_name,
                          const MetricsSnapshot& snapshot);

/**
 * Appends @p line + '\n' to @p path (creating it if needed).
 * @return false on I/O failure.
 */
bool AppendLine(const std::string& path, const std::string& line);

/** Overwrites @p path with @p content. @return false on I/O failure. */
bool WriteFile(const std::string& path, const std::string& content);

/**
 * Human-readable end-of-run summary: histogram table (count / p50 /
 * p99 / max), counters and gauges, and — when a tracer is supplied —
 * the per-stage reaction breakdown of every completed trace against
 * the budget.
 */
std::string SummaryTable(const MetricsSnapshot& snapshot,
                         const ReactionTracer* tracer = nullptr);

}  // namespace flex::obs

#endif  // FLEX_OBS_EXPORT_HPP_
