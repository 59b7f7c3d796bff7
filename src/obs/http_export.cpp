#include "http_export.hpp"

#include <cstdlib>
#include <sstream>

#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"

namespace flex::obs {

namespace {

using json::Num;

/** Prometheus label-value escaping: backslash, double quote, newline. */
std::string
EscapeLabelValue(const std::string& value)
{
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/**
 * Renders one full Histogram as a Prometheus histogram family:
 * cumulative `_bucket{le=...}` series ending at `+Inf`, plus `_sum`
 * and `_count`. @p labels is a pre-rendered `key="value"` list (may be
 * empty) merged into every series.
 */
void
AppendHistogramSeries(std::ostringstream& out, const std::string& name,
                      const std::string& labels, const Histogram& histogram)
{
  const std::vector<double>& edges = histogram.edges();
  const std::vector<std::uint64_t>& counts = histogram.bucket_counts();
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < edges.size(); ++b) {
    cumulative += counts[b];
    out << name << "_bucket{" << labels << (labels.empty() ? "" : ",")
        << "le=\"" << Num(edges[b]) << "\"} " << cumulative << "\n";
  }
  out << name << "_bucket{" << labels << (labels.empty() ? "" : ",")
      << "le=\"+Inf\"} " << histogram.count() << "\n";
  out << name << "_sum";
  if (!labels.empty())
    out << "{" << labels << "}";
  out << " " << Num(histogram.sum()) << "\n";
  out << name << "_count";
  if (!labels.empty())
    out << "{" << labels << "}";
  out << " " << histogram.count() << "\n";
}

}  // namespace

void
LiveHub::PublishMetrics(const MetricsSnapshot& snapshot)
{
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = snapshot;
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot
LiveHub::LatestMetrics() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

void
LiveHub::PublishTraces(const std::vector<ReactionTrace>& traces,
                       std::size_t tail)
{
  const std::size_t keep = traces.size() < tail ? traces.size() : tail;
  std::vector<ReactionTrace> window(traces.end() - static_cast<std::ptrdiff_t>(keep),
                                    traces.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    traces_ = std::move(window);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ReactionTrace>
LiveHub::LatestTraces() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return traces_;
}

void
LiveHub::PublishRecorderTail(const FlightRecorder& recorder, std::size_t tail)
{
  std::vector<FlightRecord> records = recorder.Records();
  if (records.size() > tail)
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(tail));
  {
    std::lock_guard<std::mutex> lock(mu_);
    records_ = std::move(records);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightRecord>
LiveHub::LatestRecords() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void
LiveHub::PublishHealth(const HealthSnapshot& health)
{
  {
    std::lock_guard<std::mutex> lock(mu_);
    health_ = health;
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

HealthSnapshot
LiveHub::LatestHealth() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

void
LiveHub::PublishAlerts(const AlertsSnapshot& alerts)
{
  {
    std::lock_guard<std::mutex> lock(mu_);
    alerts_ = alerts;
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

AlertsSnapshot
LiveHub::LatestAlerts() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

void
LiveHub::PublishSeries(const TimeSeriesSnapshot& series)
{
  {
    std::lock_guard<std::mutex> lock(mu_);
    series_ = series;
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

TimeSeriesSnapshot
LiveHub::LatestSeries() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

std::string
PrometheusName(const std::string& name)
{
  std::string out = "flex_";
  out.reserve(name.size() + out.size());
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

std::string
SnapshotToPrometheus(const MetricsSnapshot& snapshot)
{
  std::ostringstream out;
  out << "# TYPE flex_sim_time_seconds gauge\n";
  out << "flex_sim_time_seconds " << Num(snapshot.sim_time_seconds) << "\n";
  for (const MetricRow& row : snapshot.rows) {
    const std::string name = PrometheusName(row.name);
    switch (row.kind) {
      case MetricKind::kCounter: {
        // Counters follow the convention of a `_total` suffix; names
        // that already end in `_total` (log.suppressed_total) keep it.
        const std::string counter_name =
            name.size() >= 6 && name.compare(name.size() - 6, 6, "_total") == 0
                ? name
                : name + "_total";
        out << "# TYPE " << counter_name << " counter\n";
        out << counter_name << " " << Num(row.value) << "\n";
        break;
      }
      case MetricKind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << " " << Num(row.value) << "\n";
        break;
      case MetricKind::kHistogram:
        // Snapshot rows carry the summary (count/sum/quantiles), not
        // the bucket vector, so histogram rows export as a Prometheus
        // summary family. Full bucketed exposition is reserved for the
        // profiler's live Histogram objects (see RenderMetrics).
        out << "# TYPE " << name << " summary\n";
        out << name << "{quantile=\"0.5\"} " << Num(row.p50) << "\n";
        out << name << "{quantile=\"0.99\"} " << Num(row.p99) << "\n";
        out << name << "_sum " << Num(row.sum) << "\n";
        out << name << "_count " << row.count << "\n";
        break;
    }
  }
  return out.str();
}

bool
HttpQueryParam(const std::string& query, const std::string& key,
               std::string* value)
{
  std::size_t at = 0;
  while (at < query.size()) {
    std::size_t end = query.find('&', at);
    if (end == std::string::npos)
      end = query.size();
    const std::size_t eq = query.find('=', at);
    if (eq != std::string::npos && eq < end &&
        query.compare(at, eq - at, key) == 0) {
      *value = query.substr(eq + 1, end - eq - 1);
      return true;
    }
    if (eq == std::string::npos || eq >= end) {
      if (query.compare(at, end - at, key) == 0) {
        value->clear();
        return true;
      }
    }
    at = end + 1;
  }
  return false;
}

ObservabilityServer::ObservabilityServer(LiveHub& hub,
                                         ObservabilityServerConfig config)
    : hub_(hub), config_(std::move(config)), http_(config_.http)
{
  http_.Route("/metrics", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderMetrics();
    return response;
  });
  http_.Route("/healthz", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderHealth(&response.status);
    return response;
  });
  http_.Route("/trace", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderTrace();
    return response;
  });
  http_.Route("/recorder", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = RenderRecorder();
    return response;
  });
  http_.Route("/alerts", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderAlerts();
    return response;
  });
  http_.Route("/query", [this](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    std::string metric;
    if (!HttpQueryParam(request.query, "metric", &metric) ||
        metric.empty()) {
      response.status = 400;
      response.body = "{\"error\":\"missing metric parameter\"}\n";
      return response;
    }
    std::string text;
    double window_s = 0.0;
    double resolution_s = 0.0;
    if (HttpQueryParam(request.query, "window", &text))
      window_s = std::strtod(text.c_str(), nullptr);
    if (HttpQueryParam(request.query, "res", &text))
      resolution_s = std::strtod(text.c_str(), nullptr);
    response.body =
        RenderQuery(metric, window_s, resolution_s, &response.status);
    return response;
  });
}

void
ObservabilityServer::AddLiveGauge(std::string name,
                                  std::function<double()> sample)
{
  live_gauges_.emplace_back(std::move(name), std::move(sample));
}

void
ObservabilityServer::WireThreadPool(const common::ThreadPool& pool)
{
  AddLiveGauge("flex_pool_size", [&pool] {
    return static_cast<double>(pool.size());
  });
  AddLiveGauge("flex_pool_running", [&pool] {
    return static_cast<double>(pool.running_count());
  });
  AddLiveGauge("flex_pool_queued", [&pool] {
    return static_cast<double>(pool.queued_count());
  });
  AddLiveGauge("flex_pool_utilization", [&pool] {
    return static_cast<double>(pool.running_count()) /
           static_cast<double>(pool.size());
  });
  AddLiveGauge("flex_pool_steals", [&pool] {
    return static_cast<double>(pool.steal_count());
  });
}

std::string
ObservabilityServer::RenderMetrics() const
{
  std::ostringstream out;

  // Identity first: a constant-1 info series carrying the run labels.
  out << "# TYPE flex_build_info gauge\n";
  out << "flex_build_info{";
  bool first = true;
  for (const auto& [key, value] : config_.run_info) {
    if (!first)
      out << ",";
    first = false;
    out << PrometheusName(key).substr(5) << "=\"" << EscapeLabelValue(value)
        << "\"";
  }
  out << "} 1\n";

  out << SnapshotToPrometheus(hub_.LatestMetrics());

  // Live process gauges: sampled on this (the server) thread from
  // atomics only, per the AddLiveGauge contract.
  for (const auto& [name, sample] : live_gauges_) {
    out << "# TYPE " << name << " gauge\n";
    out << name << " " << Num(sample()) << "\n";
  }

  // Prometheus-convention ALERTS series: one constant-1 sample per
  // pending/firing rule, plus rollup gauges, from the last published
  // alert-engine snapshot.
  const AlertsSnapshot alerts = hub_.LatestAlerts();
  if (!alerts.statuses.empty()) {
    out << "# TYPE ALERTS gauge\n";
    for (const AlertStatus& status : alerts.statuses) {
      if (status.state == AlertState::kInactive)
        continue;
      out << "ALERTS{alertname=\"" << EscapeLabelValue(status.rule.name)
          << "\",severity=\"" << AlertSeverityName(status.rule.severity)
          << "\",alertstate=\"" << AlertStateName(status.state) << "\"} 1\n";
    }
    out << "# TYPE flex_alerts_firing gauge\n";
    out << "flex_alerts_firing " << alerts.firing << "\n";
    out << "# TYPE flex_alerts_pending gauge\n";
    out << "flex_alerts_pending " << alerts.pending << "\n";
  }

  out << "# TYPE flex_hub_publishes_total counter\n";
  out << "flex_hub_publishes_total " << hub_.publish_count() << "\n";
  out << "# TYPE flex_http_requests_total counter\n";
  out << "flex_http_requests_total " << http_.requests_served() << "\n";
  out << "# TYPE flex_log_suppressed_total counter\n";
  out << "flex_log_suppressed_total " << LogSuppressedTotal() << "\n";

  if (watchdog_ != nullptr) {
    const auto threads = watchdog_->SnapshotThreads();
    out << "# TYPE flex_watchdog_threads gauge\n";
    out << "flex_watchdog_threads " << threads.size() << "\n";
    out << "# TYPE flex_watchdog_stalled gauge\n";
    out << "flex_watchdog_stalled " << (watchdog_->any_stalled() ? 1 : 0)
        << "\n";
    out << "# TYPE flex_watchdog_stall_events_total counter\n";
    out << "flex_watchdog_stall_events_total " << watchdog_->stall_events()
        << "\n";
    out << "# TYPE flex_watchdog_silent_seconds gauge\n";
    for (const auto& thread : threads) {
      out << "flex_watchdog_silent_seconds{thread=\""
          << EscapeLabelValue(thread.name) << "\"} "
          << Num(thread.silent_seconds) << "\n";
    }
  }

  if (profiler_ != nullptr) {
    const auto phases = profiler_->Snapshot();
    if (!phases.empty()) {
      out << "# TYPE flex_phase_wall_microseconds histogram\n";
      for (const auto& row : phases) {
        const std::string labels =
            "phase=\"" + EscapeLabelValue(row.phase) + "\"";
        AppendHistogramSeries(out, "flex_phase_wall_microseconds", labels,
                              row.wall);
      }
      out << "# TYPE flex_phase_cpu_microseconds histogram\n";
      for (const auto& row : phases) {
        const std::string labels =
            "phase=\"" + EscapeLabelValue(row.phase) + "\"";
        AppendHistogramSeries(out, "flex_phase_cpu_microseconds", labels,
                              row.cpu);
      }
      out << "# TYPE flex_phase_threads gauge\n";
      for (const auto& row : phases) {
        out << "flex_phase_threads{phase=\"" << EscapeLabelValue(row.phase)
            << "\"} " << row.threads << "\n";
      }
    }
  }

  return out.str();
}

std::string
ObservabilityServer::RenderHealth(int* http_status) const
{
  const HealthSnapshot health = hub_.LatestHealth();
  const AlertsSnapshot alerts = hub_.LatestAlerts();
  const bool stalled = watchdog_ != nullptr && watchdog_->any_stalled();
  // Firing warn/info alerts are reported but do not degrade the probe;
  // only page severity (like a violation or a stall) answers 503.
  const bool paging =
      alerts.firing > 0 && alerts.worst_firing == AlertSeverity::kPage;
  const bool ok = health.ok && !stalled && !paging;
  if (http_status != nullptr)
    *http_status = ok ? 200 : 503;

  std::ostringstream out;
  out << "{\"ok\":" << (ok ? "true" : "false")
      << ",\"sim_time_seconds\":" << Num(health.sim_time_seconds)
      << ",\"violations\":" << health.violations
      << ",\"detail\":\"" << json::Escape(health.detail) << "\""
      << ",\"stalled\":" << (stalled ? "true" : "false")
      << ",\"alerts_firing\":" << alerts.firing
      << ",\"alerts_pending\":" << alerts.pending
      << ",\"worst_firing\":\""
      << (alerts.firing > 0 ? AlertSeverityName(alerts.worst_firing)
                            : "none")
      << "\"";
  if (watchdog_ != nullptr) {
    out << ",\"forensic_hint\":\""
        << json::Escape(watchdog_->forensic_hint()) << "\"";
    out << ",\"threads\":[";
    bool first = true;
    for (const auto& thread : watchdog_->SnapshotThreads()) {
      if (!first)
        out << ",";
      first = false;
      out << "{\"name\":\"" << json::Escape(thread.name) << "\""
          << ",\"silent_seconds\":" << Num(thread.silent_seconds)
          << ",\"stalled\":" << (thread.stalled ? "true" : "false")
          << ",\"done\":" << (thread.done ? "true" : "false")
          << ",\"beats\":" << thread.beats << "}";
    }
    out << "]";
  }
  out << "}\n";
  return out.str();
}

std::string
ObservabilityServer::RenderTrace() const
{
  const std::vector<ReactionTrace> traces = hub_.LatestTraces();
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0)
      out << ",\n ";
    out << ReactionTraceToJson(traces[i]);
  }
  out << "]\n";
  return out.str();
}

std::string
ObservabilityServer::RenderRecorder() const
{
  return RecordsToJsonl(hub_.LatestRecords());
}

std::string
ObservabilityServer::RenderAlerts() const
{
  const AlertsSnapshot alerts = hub_.LatestAlerts();
  std::ostringstream out;
  out << "{\"sim_time_seconds\":" << Num(alerts.sim_time_seconds)
      << ",\"firing\":" << alerts.firing
      << ",\"pending\":" << alerts.pending
      << ",\"worst_firing\":\""
      << (alerts.firing > 0 ? AlertSeverityName(alerts.worst_firing)
                            : "none")
      << "\",\"alerts\":[";
  for (std::size_t i = 0; i < alerts.statuses.size(); ++i) {
    const AlertStatus& status = alerts.statuses[i];
    if (i > 0)
      out << ",";
    out << "\n {\"name\":\"" << json::Escape(status.rule.name) << "\""
        << ",\"severity\":\"" << AlertSeverityName(status.rule.severity)
        << "\",\"kind\":\"" << AlertRuleKindName(status.rule.kind)
        << "\",\"metric\":\"" << json::Escape(status.rule.metric)
        << "\",\"state\":\"" << AlertStateName(status.state)
        << "\",\"since_s\":" << Num(status.since_s)
        << ",\"last_value\":" << Num(status.last_value)
        << ",\"fire_count\":" << status.fire_count
        << ",\"description\":\"" << json::Escape(status.rule.description)
        << "\"}";
  }
  out << "],\"history\":[";
  for (std::size_t i = 0; i < alerts.timeline.size(); ++i) {
    if (i > 0)
      out << ",";
    out << "\n " << AlertTransitionToJson(alerts.timeline[i]);
  }
  out << "]}\n";
  return out.str();
}

std::string
ObservabilityServer::RenderQuery(const std::string& metric, double window_s,
                                 double resolution_s,
                                 int* http_status) const
{
  const TimeSeriesSnapshot series = hub_.LatestSeries();
  const SeriesSnapshot* found = series.Find(metric);
  if (found == nullptr) {
    if (http_status != nullptr)
      *http_status = 404;
    return "{\"error\":\"unknown metric: " + json::Escape(metric) + "\"}\n";
  }
  if (http_status != nullptr)
    *http_status = 200;

  std::ostringstream out;
  out << "{\"metric\":\"" << json::Escape(metric) << "\",\"kind\":\""
      << MetricKindName(found->kind) << "\",\"window\":" << Num(window_s);
  if (resolution_s <= 0.0 || found->tiers.empty()) {
    // Raw points. The published snapshot holds the full retained ring;
    // the window is applied here, relative to the newest point.
    const double latest = found->raw.empty() ? 0.0 : found->raw.back().t;
    const double cutoff = window_s > 0.0 ? latest - window_s : -1.0;
    out << ",\"res\":0,\"points\":[";
    bool first = true;
    for (const RawPoint& point : found->raw) {
      if (window_s > 0.0 && point.t < cutoff)
        continue;
      if (!first)
        out << ",";
      first = false;
      out << "[" << Num(point.t) << "," << Num(point.value) << "]";
    }
    out << "]}\n";
    return out.str();
  }
  const SeriesSnapshot::TierData* tier = &found->tiers.back();
  for (const SeriesSnapshot::TierData& candidate : found->tiers) {
    if (candidate.resolution_s >= resolution_s) {
      tier = &candidate;
      break;
    }
  }
  const double latest = tier->points.empty() ? 0.0 : tier->points.back().t;
  const double cutoff = window_s > 0.0 ? latest - window_s : -1.0;
  out << ",\"res\":" << Num(tier->resolution_s) << ",\"points\":[";
  bool first = true;
  for (const AggPoint& point : tier->points) {
    if (window_s > 0.0 && point.t < cutoff)
      continue;
    if (!first)
      out << ",";
    first = false;
    out << "[" << Num(point.t) << "," << Num(point.min) << ","
        << Num(point.max) << "," << Num(point.mean) << "," << Num(point.last)
        << "," << point.count << "]";
  }
  out << "]}\n";
  return out.str();
}

void
UpdateLogMetrics(MetricsRegistry& metrics)
{
  Counter& counter = metrics.counter("log.suppressed_total");
  const double total = static_cast<double>(LogSuppressedTotal());
  if (total > counter.value())
    counter.Increment(total - counter.value());
}

}  // namespace flex::obs
