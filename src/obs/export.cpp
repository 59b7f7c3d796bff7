#include "export.hpp"

#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace flex::obs {

namespace {

using json::Num;

std::string
MetricJsonObject(const MetricRow& row)
{
  std::string out = "{\"type\":\"";
  out += MetricKindName(row.kind);
  out += "\"";
  if (row.kind == MetricKind::kHistogram) {
    out += ",\"count\":" + std::to_string(row.count);
    out += ",\"sum\":" + Num(row.sum);
    out += ",\"min\":" + Num(row.min);
    out += ",\"max\":" + Num(row.max);
    out += ",\"p50\":" + Num(row.p50);
    out += ",\"p99\":" + Num(row.p99);
  } else {
    out += ",\"value\":" + Num(row.value);
  }
  out += "}";
  return out;
}

}  // namespace

std::string
ReactionTraceToJson(const ReactionTrace& trace)
{
  std::string out = "{\"id\":" + std::to_string(trace.id);
  out += ",\"replica\":" + std::to_string(trace.detecting_replica);
  out += ",\"ups\":" + std::to_string(trace.ups_index);
  out += ",\"actions\":" + std::to_string(trace.actions);
  out += ",\"dup_detections\":" + std::to_string(trace.duplicate_detections);
  out += ",\"dup_waves\":" + std::to_string(trace.duplicate_waves);
  out += ",\"sampled_at\":" + Num(trace.sampled_at.value());
  out += ",\"delivered_at\":" + Num(trace.delivered_at.value());
  out += ",\"detected_at\":" + Num(trace.detected_at.value());
  out += ",\"decided_at\":" + Num(trace.decided_at.value());
  out += ",\"enforced_at\":" + Num(trace.enforced_at.value());
  out += ",\"complete\":" + std::string(trace.complete ? "true" : "false");
  out += ",\"closed\":" + std::string(trace.closed ? "true" : "false");
  out += ",\"budget\":" + Num(trace.budget.value()) + "}";
  return out;
}

bool
ParseReactionTraceJson(const std::string& line, ReactionTrace* out)
{
  ReactionTrace trace;
  double sampled_at = 0.0;
  double delivered_at = 0.0;
  double detected_at = 0.0;
  double decided_at = 0.0;
  double enforced_at = 0.0;
  double budget = 0.0;
  if (!json::ReadInt(line, "id", &trace.id) ||
      !json::ReadInt(line, "replica", &trace.detecting_replica) ||
      !json::ReadInt(line, "ups", &trace.ups_index) ||
      !json::ReadInt(line, "actions", &trace.actions) ||
      !json::ReadInt(line, "dup_detections", &trace.duplicate_detections) ||
      !json::ReadInt(line, "dup_waves", &trace.duplicate_waves) ||
      !json::ReadNumber(line, "sampled_at", &sampled_at) ||
      !json::ReadNumber(line, "delivered_at", &delivered_at) ||
      !json::ReadNumber(line, "detected_at", &detected_at) ||
      !json::ReadNumber(line, "decided_at", &decided_at) ||
      !json::ReadNumber(line, "enforced_at", &enforced_at) ||
      !json::ReadBool(line, "complete", &trace.complete) ||
      !json::ReadBool(line, "closed", &trace.closed) ||
      !json::ReadNumber(line, "budget", &budget))
    return false;
  trace.sampled_at = Seconds(sampled_at);
  trace.delivered_at = Seconds(delivered_at);
  trace.detected_at = Seconds(detected_at);
  trace.decided_at = Seconds(decided_at);
  trace.enforced_at = Seconds(enforced_at);
  trace.budget = Seconds(budget);
  *out = trace;
  return true;
}

std::string
TracesToJsonl(const ReactionTracer& tracer)
{
  std::string out;
  for (const ReactionTrace& trace : tracer.traces()) {
    out += ReactionTraceToJson(trace);
    out += '\n';
  }
  return out;
}

std::string
SnapshotToJson(const MetricsSnapshot& snapshot)
{
  std::string out = "{\n";
  out += "  \"sim_time_s\": " + Num(snapshot.sim_time_seconds);
  out += ",\n  \"metrics\": {";
  bool first = true;
  for (const MetricRow& row : snapshot.rows) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + row.name + "\": " + MetricJsonObject(row);
  }
  out += "\n  }\n}\n";
  return out;
}

std::string
BenchJsonLine(const std::string& bench_name, const MetricsSnapshot& snapshot)
{
  std::string out = "{\"bench\":\"" + bench_name + "\"";
  out += ",\"sim_time_s\":" + Num(snapshot.sim_time_seconds);
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricRow& row : snapshot.rows) {
    if (!first)
      out += ',';
    first = false;
    out += "\"" + row.name + "\":" + MetricJsonObject(row);
  }
  out += "}}";
  return out;
}

bool
AppendLine(const std::string& path, const std::string& line)
{
  std::ofstream file(path, std::ios::app);
  if (!file)
    return false;
  file << line << '\n';
  return static_cast<bool>(file);
}

bool
WriteFile(const std::string& path, const std::string& content)
{
  std::ofstream file(path, std::ios::trunc);
  if (!file)
    return false;
  file << content;
  return static_cast<bool>(file);
}

std::string
SummaryTable(const MetricsSnapshot& snapshot, const ReactionTracer* tracer)
{
  char line[200];
  std::string out;
  out += "--- metrics @ t=" + Num(snapshot.sim_time_seconds) + " s ---\n";
  bool header_done = false;
  for (const MetricRow& row : snapshot.rows) {
    if (row.kind != MetricKind::kHistogram)
      continue;
    if (!header_done) {
      std::snprintf(line, sizeof(line), "%-32s %10s %12s %12s %12s\n",
                    "histogram", "count", "p50", "p99", "max");
      out += line;
      header_done = true;
    }
    std::snprintf(line, sizeof(line), "%-32s %10llu %12.4g %12.4g %12.4g\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.count), row.p50,
                  row.p99, row.max);
    out += line;
  }
  header_done = false;
  for (const MetricRow& row : snapshot.rows) {
    if (row.kind == MetricKind::kHistogram)
      continue;
    if (!header_done) {
      std::snprintf(line, sizeof(line), "%-32s %10s %12s\n", "scalar", "kind",
                    "value");
      out += line;
      header_done = true;
    }
    std::snprintf(line, sizeof(line), "%-32s %10s %12.6g\n", row.name.c_str(),
                  MetricKindName(row.kind), row.value);
    out += line;
  }
  if (tracer == nullptr)
    return out;

  out += "--- reaction traces (budget " + Num(tracer->config().budget.value()) +
         " s) ---\n";
  if (tracer->traces().empty()) {
    out += "(no overload episodes)\n";
    return out;
  }
  std::snprintf(line, sizeof(line),
                "%5s %4s %8s %8s %8s %8s %10s %7s\n", "trace", "ups",
                "publish", "observe", "decide", "actuate", "end-to-end",
                "verdict");
  out += line;
  for (const ReactionTrace& trace : tracer->traces()) {
    if (!trace.complete) {
      std::snprintf(line, sizeof(line), "%5llu %4d %8.3f %8.3f %8s %8s %10s %7s\n",
                    static_cast<unsigned long long>(trace.id),
                    trace.ups_index,
                    trace.StageLatency(ReactionStage::kPublish).value(),
                    trace.StageLatency(ReactionStage::kObserve).value(), "-",
                    "-", "-", "open");
      out += line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%5llu %4d %8.3f %8.3f %8.3f %8.3f %10.3f %7s\n",
                  static_cast<unsigned long long>(trace.id), trace.ups_index,
                  trace.StageLatency(ReactionStage::kPublish).value(),
                  trace.StageLatency(ReactionStage::kObserve).value(),
                  trace.StageLatency(ReactionStage::kDecide).value(),
                  trace.StageLatency(ReactionStage::kActuate).value(),
                  trace.EndToEnd().value(),
                  trace.WithinBudget() ? "OK" : "OVER");
    out += line;
  }
  return out;
}

}  // namespace flex::obs
