/**
 * @file
 * The repository benchmark.
 *
 * Runs one named workload from a seed, from outside the program: it
 * calls only public entry points (workload::GenerateTrace/
 * ShuffledVariants, FlexOfflinePolicy::Place, offline::EvaluatePlacement,
 * emulation::FleetEmulation, fault::RunFuzzSweep) and times those calls.
 * A workload "pass" is one complete job on inputs fixed by the seed; the
 * benchmark repeats passes until --seconds have elapsed and reports medians
 * over every pass after the first (a warm-up), so every simulated or
 * quality figure is fixed by the seed and the node budgets while host time
 * is the only thing that varies. Lanes and solver threads default to 1
 * (--lanes sets them).
 *
 *   flexbench --workload <placement|fleet_failover|fault_fuzz>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--lanes <n>] [--small] [--spans-out <file>] [--commit <id>]
 *
 * --small shrinks every workload for the benchmark's own tests; --commit
 * is copied into the stamp.
 *
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it is
 * an "info" object with the run stamp, the result fingerprints and every
 * seed-fixed figure. --trace 1 adds spans around the same calls in
 * further passes, merges the program's profiler phases in, reports the
 * per-layer metrics instead of the end-to-end ones and writes the spans
 * to --spans-out. Exit status is 0 only when every output check passed.
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "emulation/fleet_emulation.hpp"
#include "fault/fault_fuzzer.hpp"
#include "fault/scenario.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "offline/flex_offline.hpp"
#include "offline/metrics.hpp"
#include "offline/placement.hpp"
#include "power/substation.hpp"
#include "power/topology.hpp"
#include "solver/branch_and_bound.hpp"
#include "workload/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace flex;

double
SecondsSince(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU seconds this process has used, over all its threads. */
double
ProcessCpuSeconds()
{
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double
Median(std::vector<double> values)
{
  if (values.empty())
    return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
Mean(const std::vector<double>& values)
{
  double sum = 0.0;
  for (const double v : values)
    sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::string
Hex(std::uint64_t value)
{
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/** JSON number with every digit; non-finite values are not JSON. */
std::string
Num(double value)
{
  if (!std::isfinite(value))
    return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/** JSON string literal (control characters escaped, so one line). */
std::string
Quote(const std::string& s)
{
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Sizes and budgets. Every search is bounded by nodes, never by wall
// clock, so the outputs repeat exactly on any machine.

constexpr double kNoWallBudget = 1e9;

struct Sizes {
  int traces;                        ///< placement: independent traces
  int variants;                      ///< placement: shuffles of each trace
  std::int64_t place_nodes;          ///< placement: nodes per batch
  int rooms;                         ///< fleet_failover: rooms
  std::int64_t room_nodes;           ///< fleet_failover: nodes per batch
  double timeline_scale;             ///< fleet_failover: x the paper timeline
  int scenarios;                     ///< fault_fuzz: fuzzed scenarios
};

constexpr Sizes kFullSizes{4, 2, 250, 12, 100, 1.0, 3000};
constexpr Sizes kSmallSizes{1, 1, 100, 2, 50, 0.05, 48};

// ---------------------------------------------------------------------------
// Spans, recorded in memory on the calling thread around each public call.

/** Profiler phase totals (wall seconds summed over threads, and counts). */
struct PhaseTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, double> count;

  static PhaseTotals Read()
  {
    PhaseTotals totals;
    for (const auto& row : obs::Profiler::Global().Snapshot()) {
      totals.seconds[row.phase] = row.wall.sum() * 1e-6;
      totals.count[row.phase] = static_cast<double>(row.wall.count());
    }
    return totals;
  }
  double s(const std::string& phase) const
  {
    const auto it = seconds.find(phase);
    return it == seconds.end() ? 0.0 : it->second;
  }
  double n(const std::string& phase) const
  {
    const auto it = count.find(phase);
    return it == count.end() ? 0.0 : it->second;
  }
  /** What was recorded since @p before. */
  PhaseTotals Minus(const PhaseTotals& before) const
  {
    PhaseTotals delta;
    for (const auto& [phase, value] : seconds) {
      if (n(phase) > before.n(phase)) {
        delta.seconds[phase] = value - before.s(phase);
        delta.count[phase] = n(phase) - before.n(phase);
      }
    }
    return delta;
  }
};

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int pass = 0;
  /** Profiler phases recorded during the span (seconds over all threads). */
  std::map<std::string, double> phase_s;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_pass(int pass) { pass_ = pass; }

  int Begin(std::string name)
  {
    if (!enabled_)
      return -1;
    Span span;
    span.name = std::move(name);
    span.start_s = SecondsSince(origin_);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.pass = pass_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void AttachPhases(int id, const PhaseTotals& phases)
  {
    if (id >= 0)
      spans_[static_cast<std::size_t>(id)].phase_s = phases.seconds;
  }

  void End(int id)
  {
    if (id < 0)
      return;
    spans_[static_cast<std::size_t>(id)].end_s = SecondsSince(origin_);
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  int pass_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/**
 * Times one public call: wall time into @p seconds and process CPU time
 * (all threads) into @p cpu_s, each when given; when traced, also as a
 * span, and, when @p phases is given, with the profiler phases the call
 * recorded merged into the span and copied to @p phases.
 */
class Timed {
 public:
  Timed(SpanRecorder& spans, std::string name, double* seconds = nullptr,
        double* cpu_s = nullptr, PhaseTotals* phases = nullptr)
      : spans_(spans), seconds_(seconds), cpu_s_(cpu_s), phases_(phases),
        id_(spans.Begin(std::move(name)))
  {
    if (phases_ != nullptr && id_ >= 0)
      before_ = PhaseTotals::Read();
    cpu_start_ = cpu_s_ != nullptr ? ProcessCpuSeconds() : 0.0;
    start_ = Clock::now();
  }
  ~Timed()
  {
    const double wall = SecondsSince(start_);
    if (cpu_s_ != nullptr)
      *cpu_s_ += ProcessCpuSeconds() - cpu_start_;
    if (phases_ != nullptr && id_ >= 0) {
      *phases_ = PhaseTotals::Read().Minus(before_);
      spans_.AttachPhases(id_, *phases_);
    }
    spans_.End(id_);
    if (seconds_ != nullptr)
      *seconds_ += wall;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanRecorder& spans_;
  double* seconds_;
  double* cpu_s_;
  PhaseTotals* phases_;
  PhaseTotals before_;
  double cpu_start_ = 0.0;
  Clock::time_point start_;
  int id_;
};

// ---------------------------------------------------------------------------
// One pass of a workload.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct PassResult {
  double setup_s = 0.0;   ///< inputs and program state before the main calls
  double main_s = 0.0;    ///< the workload's operations
  double total_s = 0.0;   ///< setup + main + evaluation + teardown
  double cpu_s = 0.0;     ///< process CPU seconds (all threads) of total_s
  int ops = 0;
  int failed = 0;                     ///< operations that broke an invariant
  std::vector<std::string> failures;  ///< what each failed operation broke
  std::vector<std::string> errors;    ///< failed output checks
  std::map<std::string, std::string> fingerprints;
  /**
   * Figures fixed by the seed and budgets, identical on every pass;
   * "loss_pct" is the workload's headline quality figure.
   */
  std::map<std::string, double> fixed;
  /** Host-time figures of this pass (seconds), for the traced run. */
  std::map<std::string, double> host_s;
  /** Figures that depend on host speed or scheduling. */
  std::map<std::string, double> varying;
};

struct RunContext {
  std::uint64_t seed = 1;
  int lanes = 1;
  Sizes sizes = kFullSizes;
  SpanRecorder* spans = nullptr;
  bool traced = false;
};

/**
 * Times a set-up call, which returns the inputs it built. Set-up can take
 * microseconds, so every pass, traced or not, repeats it for at least
 * kRepeatSeconds and keeps the median wall and CPU time of one repetition
 * as the pass's set-up cost. Only the call is timed; @p fingerprint checks
 * afterwards that every repetition built the same inputs. The first
 * repetition is the span @p span, the rest are "bench.setup_repeat".
 */
template <typename Setup, typename Fingerprint>
auto
TimeSetup(const RunContext& ctx, PassResult& r, const char* span,
          Setup&& setup, Fingerprint&& fingerprint)
{
  constexpr std::size_t kMinReps = 5;
  constexpr double kRepeatSeconds = 0.2;
  std::vector<double> wall, cpu;
  decltype(setup()) built;
  std::uint64_t first = 0;
  const auto start = Clock::now();
  do {
    double seconds = 0.0, cpu_s = 0.0;
    built = {};  // every repetition starts from the same heap state
    {
      Timed t(*ctx.spans, wall.empty() ? span : "bench.setup_repeat",
              &seconds, &cpu_s);
      built = setup();
    }
    const std::uint64_t print = fingerprint(built);
    if (wall.empty())
      first = print;
    else if (print != first)
      r.errors.push_back(std::string(span) + " built different inputs");
    wall.push_back(seconds);
    cpu.push_back(cpu_s);
  } while (wall.size() < kMinReps || SecondsSince(start) < kRepeatSeconds);
  r.setup_s = Median(wall);
  r.cpu_s += Median(cpu);
  return built;
}

// --- placement --------------------------------------------------------------

struct PolicySpec {
  const char* key;
  offline::FlexOfflinePolicy (*make)(double, std::int64_t,
                                     solver::LiveSolverStats*);
};

const PolicySpec kPolicies[] = {
    {"short", &offline::FlexOfflinePolicy::Short},
    {"long", &offline::FlexOfflinePolicy::Long},
    {"oracle", &offline::FlexOfflinePolicy::Oracle},
};

/**
 * Re-places @p placement deployment by deployment, in trace order,
 * through a fresh CapacityTracker: every committed assignment must still
 * satisfy space, cooling, normal and failover limits.
 */
bool
PlacementIsValid(const power::RoomTopology& room,
                 const offline::Placement& placement)
{
  if (placement.assignment.size() != placement.deployments.size())
    return false;
  offline::CapacityTracker tracker(room);
  for (std::size_t i = 0; i < placement.deployments.size(); ++i) {
    const auto& pair = placement.assignment[i];
    if (!pair.has_value())
      continue;
    if (*pair < 0 || *pair >= room.NumPduPairs() ||
        !tracker.CanPlace(placement.deployments[i], *pair))
      return false;
    tracker.Place(placement.deployments[i], *pair);
  }
  return true;
}

PassResult
PlacementPass(const RunContext& ctx)
{
  PassResult r;
  SpanRecorder& spans = *ctx.spans;
  const power::RoomTopology room(power::RoomConfig::EvaluationRoom());

  const std::vector<std::vector<workload::Deployment>> variants = TimeSetup(
      ctx, r, "workload.trace",
      [&] {
        Rng rng(ctx.seed);
        std::vector<std::vector<workload::Deployment>> built;
        for (int k = 0; k < ctx.sizes.traces; ++k) {
          const std::vector<workload::Deployment> trace =
              workload::GenerateTrace(workload::TraceConfig{},
                                      room.TotalProvisionedPower(), rng);
          for (auto& variant :
               workload::ShuffledVariants(trace, ctx.sizes.variants, rng))
            built.push_back(std::move(variant));
        }
        return built;
      },
      [](const std::vector<std::vector<workload::Deployment>>& built) {
        Fnv1a hash;
        for (const auto& variant : built) {
          for (const workload::Deployment& d : variant) {
            hash.AddI64(d.id);
            hash.AddI64(d.num_racks);
            hash.AddDouble(d.power_per_rack.value());
            hash.AddDouble(d.flex_power_fraction);
          }
        }
        return hash.value();
      });
  r.host_s["workload.trace"] = r.setup_s;

  obs::Observability observability;
  double worst_gap = 0.0;
  double placed_sum = 0.0;
  int placements = 0;
  for (const PolicySpec& spec : kPolicies) {
    std::vector<double> stranded;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      offline::FlexOfflineConfig config =
          spec.make(kNoWallBudget, ctx.sizes.place_nodes, nullptr).config();
      config.solver.threads = ctx.lanes;
      config.obs = &observability;
      offline::FlexOfflinePolicy policy(config, spec.key);

      double seconds = 0.0;
      PhaseTotals phases;
      offline::Placement placement;
      {
        Timed t(spans, std::string("offline.place.") + spec.key, &seconds,
                &r.cpu_s, &phases);
        placement = policy.Place(room, variants[v]);
      }
      if (ctx.traced) {
        const double solve = phases.s("offline.solve_batch");
        r.host_s["solver.solve"] += solve;
        r.host_s["offline.outside_solve"] += seconds - solve;
      }
      r.host_s[std::string("offline.place.") + spec.key] += seconds;
      r.main_s += seconds;
      ++r.ops;
      for (const solver::SolverTrace& st : policy.solve_traces()) {
        if (!st.empty())
          worst_gap = std::max(worst_gap, st.points().back().gap);
      }

      Fnv1a hash;
      for (const auto& pair : placement.assignment)
        hash.AddI64(pair.has_value() ? *pair : -1);
      r.fingerprints[std::string("place.") + spec.key + ".v" +
                     std::to_string(v)] = Hex(hash.value());

      offline::PlacementMetrics metrics;
      {
        Timed t(spans, "offline.evaluate", &r.host_s["offline.evaluate"],
                &r.cpu_s);
        metrics = offline::EvaluatePlacement(room, placement);
      }
      stranded.push_back(100.0 * metrics.stranded_fraction);
      placed_sum += 100.0 * metrics.placed_fraction;
      ++placements;
      {
        Timed t(spans, "bench.check");
        if (!PlacementIsValid(room, placement) ||
            !(metrics.stranded_fraction >= 0.0 &&
              metrics.stranded_fraction <= 1.0) ||
            placement.NumPlaced() == 0) {
          ++r.failed;
          r.errors.push_back(std::string("invalid placement ") + spec.key +
                             " v" + std::to_string(v));
        }
      }
    }
    r.fixed[std::string("offline.stranded_pct.") + spec.key] = Median(stranded);
  }
  // Headline loss: requested power turned away (routed to another room).
  r.fixed["loss_pct"] = 100.0 - placed_sum / std::max(1, placements);

  const auto counter = [&observability](const char* name) {
    return observability.metrics().counter(name).value();
  };
  const double attempts = counter("offline.solver.basis_attempts");
  r.fixed["offline.batches"] = counter("offline.batches");
  r.fixed["offline.placed_pct"] = placed_sum / std::max(1, placements);
  r.fixed["solver.gap_at_budget"] = worst_gap;
  r.fixed["solver.nodes"] = counter("offline.solver.nodes");
  r.fixed["solver.lp_solves"] = counter("offline.solver.lp_solves");
  r.fixed["solver.pivots"] = counter("offline.solver.pivots");
  r.fixed["solver.dual_pivots"] = counter("offline.solver.dual_pivots");
  r.fixed["solver.refactors"] = counter("offline.solver.refactors");
  r.fixed["solver.warm_hit_rate"] =
      attempts > 0 ? counter("offline.solver.basis_hits") / attempts : 0.0;
  r.fixed["solver.propagation_prunes"] =
      counter("offline.solver.propagation_prunes");
  r.fixed["solver.propagated_bounds"] =
      counter("offline.solver.propagated_bounds");
  r.varying["solver.steals"] = counter("offline.solver.steals");
  r.varying["solver.threads"] =
      observability.metrics().gauge("offline.solver.threads").value();
  r.total_s = r.setup_s + r.main_s + r.host_s["offline.evaluate"];
  return r;
}

// --- fleet_failover ---------------------------------------------------------

emulation::FleetConfig
MakeFleetConfig(const RunContext& ctx, solver::LiveSolverStats* live)
{
  // Paper-size rooms (EmulationRoom) with the paper's telemetry cadence,
  // a 200 Hz safety monitor and alerting on, on the Section V-C setup /
  // failover / restore timeline (4 / 12 / 24 / 32 minutes at scale 1).
  emulation::EmulationConfig room;
  const double k = ctx.sizes.timeline_scale;
  room.setup_duration = Minutes(4.0 * k);
  room.failover_at = Minutes(12.0 * k);
  room.restore_at = Minutes(24.0 * k);
  room.end_at = Minutes(32.0 * k);
  room.monitor_period = Seconds(0.005);
  room.alerts.enabled = true;
  room.placement_solve_seconds = kNoWallBudget;
  room.placement_max_nodes = ctx.sizes.room_nodes;
  room.solver_live = live;
  room.seed = 1000003ull * ctx.seed;

  emulation::FleetConfig fleet;
  fleet.room = room;
  fleet.rooms = ctx.sizes.rooms;
  fleet.threads = ctx.lanes;
  fleet.epoch = Seconds(10.0);
  fleet.substation = power::SubstationConfig::ForRooms(
      fleet.rooms, room.room, /*headroom_fraction=*/0.9);
  return fleet;
}

/** Last recorded value of @p series in a room's history store. */
double
LastStored(const obs::TimeSeriesStore* store, const char* series)
{
  if (store == nullptr)
    return 0.0;
  const std::vector<obs::RawPoint> points = store->QueryRaw(series, 0.0);
  return points.empty() ? 0.0 : points.back().value;
}

PassResult
FleetPass(const RunContext& ctx)
{
  PassResult r;
  SpanRecorder& spans = *ctx.spans;
  solver::LiveSolverStats live;
  const emulation::FleetConfig config = MakeFleetConfig(ctx, &live);

  PhaseTotals phases;
  std::unique_ptr<emulation::FleetEmulation> fleet;
  {
    Timed t(spans, "emulation.construct", &r.setup_s, &r.cpu_s, &phases);
    fleet = std::make_unique<emulation::FleetEmulation>(config);
  }
  r.host_s["emulation.construct"] = r.setup_s;
  if (ctx.traced) {
    const double solve = phases.s("offline.solve_batch");
    r.host_s["solver.solve"] = solve;
    r.host_s["offline.outside_solve"] = phases.s("offline.place") - solve;
  }

  emulation::FleetReport report;
  {
    Timed t(spans, "emulation.run", &r.main_s, &r.cpu_s, &phases);
    report = fleet->Run();
  }
  r.host_s["emulation.run"] = r.main_s;
  r.host_s["emulation.step_wall"] = report.step_wall_seconds;
  r.host_s["emulation.merge_wall"] = report.merge_wall_seconds;
  r.host_s["emulation.lane_busy"] = report.lane_busy_seconds;
  r.ops = static_cast<int>(report.rooms.size());

  std::vector<double> sr_pct, capable_pct;
  double time_to_safe_max = 0.0, data_latency_max = 0.0, enforce_max = 0.0;
  double monitor_ticks = 0, deltas = 0, resyncs = 0, overdraw = 0,
         commands = 0, alerts = 0, store_samples = 0, readings = 0,
         placed_pct = 0;
  {
    Timed t(spans, "bench.check");
    for (std::size_t i = 0; i < report.rooms.size(); ++i) {
      const emulation::EmulationReport& room = report.rooms[i].report;
      const bool safe = room.noncap_acted == 0 && !room.safety_violated &&
                        !room.battery_tripped;
      if (!safe) {
        ++r.failed;
        r.failures.push_back("unsafe room " + std::to_string(i));
      }
      sr_pct.push_back(100.0 * room.sr_shutdown_fraction);
      capable_pct.push_back(100.0 * room.capable_capped_fraction);
      time_to_safe_max = std::max(time_to_safe_max, room.time_to_safe_seconds);
      data_latency_max = std::max(data_latency_max, room.data_latency_p999);
      enforce_max = std::max(enforce_max, room.enforcement_latency_seconds);
      monitor_ticks += static_cast<double>(room.monitor_ticks);
      deltas += static_cast<double>(room.aggregate_deltas);
      resyncs += static_cast<double>(room.aggregate_resyncs);
      overdraw += room.overdraw_events;
      commands += room.throttle_commands + room.shutdown_commands;
      alerts += static_cast<double>(room.alerts_fired);
      store_samples += static_cast<double>(room.store_samples);
      const emulation::RoomEmulation& emu = fleet->room(static_cast<int>(i));
      readings += LastStored(emu.timeseries(), "pipeline.readings_delivered");
      placed_pct += 100.0 * offline::PlacedPowerFraction(emu.placement());
    }
  }
  r.fingerprints["fleet_hash"] = Hex(report.fleet_hash);
  r.fingerprints["alert_fingerprint"] = Hex(report.alert_fingerprint);
  r.fixed["loss_pct"] = Mean(sr_pct);

  const double rooms = std::max<double>(1.0, report.rooms.size());
  const double rack_s = report.total_racks * config.room.end_at.value();
  const double attempts = static_cast<double>(live.basis_reuse_attempts);
  r.fixed["offline.batches"] = static_cast<double>(live.solves_finished);
  r.fixed["offline.placed_pct"] = placed_pct / rooms;
  r.fixed["solver.nodes"] = static_cast<double>(live.nodes_explored);
  r.fixed["solver.lp_solves"] = static_cast<double>(live.lp_solves);
  r.fixed["solver.dual_pivots"] = static_cast<double>(live.dual_pivots);
  r.fixed["solver.warm_hit_rate"] =
      attempts > 0 ? static_cast<double>(live.basis_reuse_hits) / attempts
                   : 0.0;
  r.fixed["emulation.rooms"] = static_cast<double>(report.rooms.size());
  r.fixed["emulation.racks"] = report.total_racks;
  r.fixed["emulation.epochs"] = static_cast<double>(report.epochs);
  r.fixed["emulation.events"] = static_cast<double>(report.events_executed);
  r.fixed["emulation.monitor_ticks"] = monitor_ticks;
  r.fixed["emulation.events_per_rack_s"] =
      static_cast<double>(report.events_executed) / std::max(1.0, rack_s);
  r.fixed["emulation.unsafe_room_frac"] = r.failed / rooms;
  r.fixed["emulation.time_to_safe_s.max"] = time_to_safe_max;
  r.fixed["power.aggregate_deltas"] = deltas;
  r.fixed["power.aggregate_resyncs"] = resyncs;
  r.fixed["telemetry.readings"] = readings;
  r.fixed["telemetry.data_latency_p999_s"] = data_latency_max;
  r.fixed["online.overdraw_events"] = overdraw;
  r.fixed["online.sr_shutdown_pct"] = Median(sr_pct);
  r.fixed["online.capable_capped_pct"] = Median(capable_pct);
  r.fixed["actuation.commands"] = commands;
  r.fixed["actuation.enforce_s.max"] = enforce_max;
  r.fixed["obs.alerts_fired"] = alerts;
  r.fixed["obs.store_samples"] = store_samples;
  // The rooms' solves take their width from FLEX_SOLVER_THREADS (= lanes).
  r.varying["solver.threads"] = static_cast<double>(ctx.lanes);
  r.varying["emulation.lanes"] = static_cast<double>(report.lanes);
  r.varying["emulation.lane_utilization"] = report.lane_utilization;
  r.varying["emulation.rack_s_per_s"] = rack_s / std::max(1e-9, r.main_s);
  {
    Timed t(spans, "emulation.destroy", &r.host_s["emulation.destroy"],
            &r.cpu_s);
    fleet.reset();
  }
  r.total_s = r.setup_s + r.main_s + r.host_s["emulation.destroy"];
  return r;
}

// --- fault_fuzz -------------------------------------------------------------

std::uint64_t
FirstFuzzSeed(std::uint64_t seed)
{
  return 1000000ull * seed;
}

PassResult
FaultPass(const RunContext& ctx)
{
  PassResult r;
  SpanRecorder& spans = *ctx.spans;
  fault::ScenarioConfig config;  // 12-rack room, invariant monitor attached
  const std::uint64_t first = FirstFuzzSeed(ctx.seed);
  const int count = ctx.sizes.scenarios;

  // Set-up: draw every scenario's fault plan. RunFuzzSweep draws the same
  // plans again itself, so this times a proxy for the sweep's input
  // generation rather than a step a user waits for.
  const fault::FaultFuzzer fuzzer(config.shape);
  const auto plans_fingerprint = [](const std::vector<fault::FaultPlan>& built) {
    Fnv1a hash;
    for (const fault::FaultPlan& plan : built) {
      hash.AddU64(plan.size());
      for (const fault::FaultEvent& e : plan.events()) {
        hash.AddDouble(e.at.value());
        hash.AddI64(static_cast<int>(e.kind));
        hash.AddI64(e.target);
        hash.AddI64(static_cast<int>(e.device_kind));
        hash.AddI64(e.meter_index);
        hash.AddDouble(e.magnitude);
        hash.AddDouble(e.duration.value());
      }
    }
    return hash.value();
  };
  const std::vector<fault::FaultPlan> plans = TimeSetup(
      ctx, r, "fault.plans",
      [&] {
        std::vector<fault::FaultPlan> built;
        built.reserve(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i)
          built.push_back(
              fuzzer.SamplePlan(first + static_cast<std::uint64_t>(i)));
        return built;
      },
      plans_fingerprint);
  std::uint64_t planned_faults = 0;
  for (const fault::FaultPlan& plan : plans)
    planned_faults += plan.events().size();
  r.host_s["fault.plans"] = r.setup_s;

  std::vector<fault::ScenarioReport> reports;
  {
    PhaseTotals phases;
    Timed t(spans, "fault.sweep", &r.main_s, &r.cpu_s, &phases);
    reports = fault::RunFuzzSweep(config, first, count, ctx.lanes);
  }
  r.host_s["fault.sweep"] = r.main_s;
  r.ops = count;

  double events = 0, readings = 0, overdraw = 0, commands = 0, failed = 0,
         injected = 0;
  {
    Timed t(spans, "bench.check");
    Fnv1a hash;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const fault::ScenarioReport& s = reports[i];
      if (!s.violations.empty()) {
        ++r.failed;
        r.failures.push_back("seed " + std::to_string(first + i) + ": " +
                             s.violation_summary);
      }
      events += static_cast<double>(s.events_executed);
      readings += static_cast<double>(s.readings_delivered);
      overdraw += s.overdraw_events;
      commands += s.throttle_commands + s.shutdown_commands +
                  s.restore_commands + s.uncap_commands;
      failed += s.failed_commands;
      for (const std::string& line : s.fault_trace) {
        if (line.find(" begin ") != std::string::npos)
          ++injected;
        hash.AddString(line);
      }
      hash.AddU64(s.events_executed);
      hash.AddU64(s.readings_delivered);
      hash.AddI64(s.overdraw_events);
      hash.AddI64(s.throttle_commands);
      hash.AddI64(s.shutdown_commands);
      hash.AddI64(s.restore_commands);
      hash.AddI64(s.uncap_commands);
      hash.AddI64(s.failed_commands);
      hash.AddDouble(s.worst_overload_fraction);
      hash.AddU64(s.violations.size());
    }
    r.fingerprints["sweep"] = Hex(hash.value());
    r.fingerprints["fault_plans"] = Hex(plans_fingerprint(plans));
  }
  r.fixed["loss_pct"] = 100.0 * failed / std::max(1.0, commands);

  if (ctx.traced) {
    // Monitor overhead: the same sweep with the invariant monitor off.
    fault::ScenarioConfig bare = config;
    bare.attach_monitor = false;
    double bare_s = 0.0;
    {
      Timed t(spans, "fault.sweep_unmonitored", &bare_s);
      fault::RunFuzzSweep(bare, first, count, ctx.lanes);
    }
    r.host_s["fault.sweep_unmonitored"] = bare_s;
  }

  const double rack_s = static_cast<double>(count) * config.shape.num_racks *
                        config.shape.horizon.value();
  r.fixed["fault.scenarios"] = count;
  r.fixed["fault.planned_faults"] = static_cast<double>(planned_faults);
  r.fixed["fault.faults_injected"] = injected;
  r.fixed["fault.events"] = events;
  r.fixed["fault.violation_frac"] =
      static_cast<double>(r.failed) / std::max(1, count);
  r.fixed["telemetry.readings"] = readings;
  r.fixed["online.overdraw_events"] = overdraw;
  r.fixed["actuation.commands"] = commands;
  r.fixed["actuation.failed_commands"] = failed;
  r.fixed["actuation.failed_command_frac"] = failed / std::max(1.0, commands);
  r.varying["fault.scenarios_per_s"] = count / std::max(1e-9, r.main_s);
  r.varying["emulation.rack_s_per_s"] = rack_s / std::max(1e-9, r.main_s);
  r.total_s = r.setup_s + r.main_s;
  return r;
}

// ---------------------------------------------------------------------------
// Run loop, checks and output.

using PassFn = PassResult (*)(const RunContext&);

struct Workload {
  const char* name;
  PassFn pass;
};

const Workload kWorkloads[] = {
    {"placement", &PlacementPass},
    {"fleet_failover", &FleetPass},
    {"fault_fuzz", &FaultPass},
};

/** Passes for at least @p seconds (and at least @p min_passes). */
std::vector<PassResult>
RunPasses(const Workload& w, RunContext& ctx, double seconds, int min_passes,
          int first_index)
{
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  while (static_cast<int>(passes.size()) < min_passes ||
         SecondsSince(start) < seconds) {
    ctx.spans->set_pass(first_index + static_cast<int>(passes.size()));
    if (ctx.traced)
      obs::Profiler::Global().Reset();
    const int root = ctx.spans->Begin(std::string("pass.") + w.name);
    passes.push_back(w.pass(ctx));
    ctx.spans->End(root);
    if (ctx.traced) {
      const PhaseTotals phases = PhaseTotals::Read();
      PassResult& r = passes.back();
      r.host_s["emulation.workload_step"] = phases.s("emulation.step");
      r.host_s["online.decide"] = phases.s("controller.decide");
      r.varying["online.decisions"] = phases.n("controller.decide");
      const Span& span = ctx.spans->spans()[static_cast<std::size_t>(root)];
      double covered = 0.0;
      for (const Span& s : ctx.spans->spans()) {
        if (s.parent == root)
          covered += s.end_s - s.start_s;
      }
      r.host_s["pass"] = span.end_s - span.start_s;
      r.host_s["trace.unattributed"] = r.host_s["pass"] - covered;
    }
  }
  return passes;
}

/** Every pass must reproduce the first one's fingerprints and fixed figures. */
void
CheckRepeatable(const std::vector<PassResult>& passes,
                std::vector<std::string>& errors)
{
  const PassResult& first = passes.front();
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    if (p.fingerprints != first.fingerprints || p.fixed != first.fixed)
      errors.push_back("pass " + std::to_string(i) +
                       " differs from pass 0 on the same inputs");
  }
}

double
PeakRssMb()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
WriteSpans(const std::string& path, const SpanRecorder& recorder,
           const std::string& workload, std::uint64_t seed)
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "flexbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"spans\": [",
               Quote(workload).c_str(), static_cast<unsigned long long>(seed));
  const auto& spans = recorder.spans();
  // Self time: duration minus the part covered by direct children
  // (children on the calling thread nest, so they never overlap) and
  // minus the solver phase, which also runs on the calling thread. The
  // other merged phases ran on pool lanes and are listed, not subtracted.
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto solve = s.phase_s.find("offline.solve_batch");
    const double self = s.end_s - s.start_s - child_s[i] -
                        (solve == s.phase_s.end() ? 0.0 : solve->second);
    std::string phases;
    for (const auto& [phase, seconds] : s.phase_s)
      phases +=
          (phases.empty() ? "" : ", ") + Quote(phase) + ": " + Num(seconds);
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": %s, \"pass\": %d, "
                 "\"parent\": %d, \"start_s\": %s, \"end_s\": %s, "
                 "\"self_s\": %s, \"phases_s\": {%s}}",
                 i == 0 ? "" : ",", i, Quote(s.name).c_str(), s.pass, s.parent,
                 Num(s.start_s).c_str(), Num(s.end_s).c_str(),
                 Num(self).c_str(), phases.c_str());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/** Median over passes of one host-time figure as a share of the pass wall. */
double
SharePct(const std::vector<PassResult>& passes, const std::string& key)
{
  std::vector<double> shares;
  for (const PassResult& p : passes) {
    const auto it = p.host_s.find(key);
    const double value = it == p.host_s.end() ? 0.0 : it->second;
    shares.push_back(100.0 * value / std::max(1e-12, p.host_s.at("pass")));
  }
  return Median(shares);
}

/** The per-layer metric names, in output order (see BENCHMARK.json). */
const char* const kHostShares[][2] = {
    {"workload.trace_pct", "workload.trace"},
    {"offline.place_pct.short", "offline.place.short"},
    {"offline.place_pct.long", "offline.place.long"},
    {"offline.place_pct.oracle", "offline.place.oracle"},
    {"offline.outside_solve_pct", "offline.outside_solve"},
    {"offline.evaluate_pct", "offline.evaluate"},
    {"solver.solve_pct", "solver.solve"},
    {"emulation.construct_pct", "emulation.construct"},
    {"emulation.run_pct", "emulation.run"},
    {"emulation.step_wall_pct", "emulation.step_wall"},
    {"emulation.merge_wall_pct", "emulation.merge_wall"},
    {"emulation.lane_busy_pct", "emulation.lane_busy"},
    {"emulation.workload_step_pct", "emulation.workload_step"},
    {"online.decide_pct", "online.decide"},
    {"fault.plans_pct", "fault.plans"},
    {"fault.sweep_pct", "fault.sweep"},
    {"trace.unattributed_pct", "trace.unattributed"},
};

const char* const kLayerMetrics[][2] = {
    {"solver.nodes", "count"},
    {"solver.lp_solves", "count"},
    {"solver.pivots", "count"},
    {"solver.dual_pivots", "count"},
    {"solver.refactors", "count"},
    {"solver.warm_hit_rate", "ratio"},
    {"solver.propagation_prunes", "count"},
    {"solver.propagated_bounds", "count"},
    {"solver.gap_at_budget", "ratio"},
    {"solver.threads", "count"},
    {"solver.steals", "count"},
    {"offline.batches", "count"},
    {"offline.placed_pct", "%"},
    {"offline.stranded_pct.short", "%"},
    {"offline.stranded_pct.long", "%"},
    {"offline.stranded_pct.oracle", "%"},
    {"emulation.rooms", "count"},
    {"emulation.racks", "count"},
    {"emulation.lanes", "count"},
    {"emulation.epochs", "count"},
    {"emulation.events", "count"},
    {"emulation.monitor_ticks", "count"},
    {"emulation.events_per_rack_s", "1/rack_s"},
    {"emulation.lane_utilization", "ratio"},
    {"emulation.rack_s_per_s", "rack_s/s"},
    {"emulation.unsafe_room_frac", "ratio"},
    {"emulation.time_to_safe_s.max", "sim_s"},
    {"power.aggregate_deltas", "count"},
    {"power.aggregate_resyncs", "count"},
    {"telemetry.readings", "count"},
    {"telemetry.data_latency_p999_s", "sim_s"},
    {"online.decisions", "count"},
    {"online.overdraw_events", "count"},
    {"online.sr_shutdown_pct", "%"},
    {"online.capable_capped_pct", "%"},
    {"actuation.commands", "count"},
    {"actuation.failed_commands", "count"},
    {"actuation.failed_command_frac", "ratio"},
    {"actuation.enforce_s.max", "sim_s"},
    {"obs.alerts_fired", "count"},
    {"obs.store_samples", "count"},
    {"fault.scenarios", "count"},
    {"fault.planned_faults", "count"},
    {"fault.faults_injected", "count"},
    {"fault.events", "count"},
    {"fault.violation_frac", "ratio"},
    {"fault.scenarios_per_s", "1/s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  int lanes = 0;
  bool small = false;
  std::string spans_out;
  std::string commit = "unknown";
};

bool
ParseArgs(int argc, char** argv, Args* args)
{
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args->small = true;
      continue;
    }
    if (i + 1 >= argc)
      return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--lanes") {
      args->lanes = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0')
      return false;
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) && args->lanes >= 0;
}

}  // namespace

int
main(int argc, char** argv)
{
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flexbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--lanes <n>] [--small] [--spans-out <file>] "
                 "[--commit <id>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name)
      workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "flexbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // One lane by default: on a shared host, the solver's threads (which
  // share one search tree) and the fleet's lanes (which meet at every
  // epoch barrier) wait for whichever core the neighbours slow down.
  const int lanes = args.lanes > 0 ? args.lanes : 1;
  // The shared pool and default solver width follow the lane count; set
  // before anything touches the pool.
  setenv("FLEX_SOLVER_THREADS", std::to_string(lanes).c_str(), 1);

  SpanRecorder spans(Clock::now());
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.lanes = lanes;
  ctx.sizes = args.small ? kSmallSizes : kFullSizes;
  ctx.spans = &spans;

  std::vector<std::string> errors;
  // The first pass warms caches and the allocator: it is checked like
  // every other pass but left out of the timed medians.
  constexpr int kMinPasses = 3;
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<PassResult> passes =
      RunPasses(*workload, ctx, untraced_s, kMinPasses + 1, 0);
  std::vector<PassResult> traced;
  if (args.trace) {
    ctx.traced = true;
    spans.set_enabled(true);
    traced = RunPasses(*workload, ctx, args.seconds / 2.0, 2,
                       static_cast<int>(passes.size()));
  }

  std::vector<PassResult> all = passes;
  all.insert(all.end(), traced.begin(), traced.end());
  CheckRepeatable(all, errors);
  int attempted = 0;
  int failed = 0;
  for (const PassResult& p : all) {
    attempted += p.ops;
    failed += p.failed;
    for (const std::string& e : p.errors)
      errors.push_back(e);
  }
  // Every pass repeats the same inputs, so the first pass names them all.
  const PassResult& first = all.front();
  // A loss of 0 is a better program, not a wrong output, but a metric
  // that reads 0 cannot be bounded by a share of its median: redefine it.
  const double loss_pct = first.fixed.at("loss_pct");
  if (!(loss_pct > 0.0))
    std::fprintf(stderr,
                 "flexbench: warning: loss_pct is %g on %s; the metric needs "
                 "redefining\n",
                 loss_pct, workload->name);

  std::vector<double> setup, total, main_s, cpu;
  for (std::size_t i = 1; i < passes.size(); ++i) {  // after the warm-up
    const PassResult& p = passes[i];
    setup.push_back(p.setup_s);
    total.push_back(p.total_s);
    main_s.push_back(p.main_s);
    cpu.push_back(p.cpu_s);
  }

  // --- info line: stamp, fingerprints, every seed-fixed figure.
  std::string info = "{\"info\": {\"workload\": " + Quote(workload->name) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"passes\": " + std::to_string(passes.size()) +
                     ", \"traced_passes\": " + std::to_string(traced.size()) +
                     ", \"stamp\": {\"hw_concurrency\": " + std::to_string(hw) +
                     ", \"solver_threads\": " + std::to_string(lanes) +
                     ", \"fleet_lanes\": " + std::to_string(lanes) +
                     ", \"build_type\": " + Quote(FLEXBENCH_BUILD_TYPE) +
                     ", \"git_commit\": " + Quote(args.commit) +
                     ", \"small\": " + (args.small ? "true" : "false") +
                     "}, \"fingerprints\": {";
  bool comma = false;
  for (const auto& [key, value] : first.fingerprints) {
    info += (comma ? ", " : "") + Quote(key) + ": " + Quote(value);
    comma = true;
  }
  info += "}, \"fixed\": {";
  comma = false;
  for (const auto& [name, value] : first.fixed) {
    info += (comma ? ", " : "") + Quote(name) + ": " + Num(value);
    comma = true;
  }
  info += "}";
  if (args.trace) {
    info += ", \"host_shares\": [";
    for (std::size_t i = 0; i < std::size(kHostShares); ++i)
      info += (i ? ", " : "") + Quote(kHostShares[i][0]);
    info += "]";
  }
  const auto list = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size() && i < 20; ++i)
      out += (i ? ", " : "") + Quote(items[i]);
    return out + "]";
  };
  info += ", \"failures\": " + list(first.failures) +
          ", \"errors\": " + list(errors) + "}}";

  // --- metrics.
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", "s", Median(setup)});
    metrics.push_back({"total_s", "s", Median(total)});
    metrics.push_back(
        {"ops_per_s", "1/s", first.ops / std::max(1e-12, Median(main_s))});
    metrics.push_back({"peak_rss_mb", "MB", PeakRssMb()});
    metrics.push_back({"loss_pct", "%", loss_pct});
    metrics.push_back({"cpu_s", "s", Median(cpu)});
  } else {
    std::map<std::string, double> values = first.fixed;
    // Host-dependent figures: median over the traced passes.
    std::map<std::string, std::vector<double>> varying;
    for (const PassResult& p : traced) {
      for (const auto& [name, value] : p.varying)
        varying[name].push_back(value);
    }
    for (const auto& [name, samples] : varying)
      values[name] = Median(samples);
    for (const auto& [name, key] : kHostShares)
      metrics.push_back({name, "%", SharePct(traced, key)});
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = values.find(name);
      metrics.push_back({name, unit, it == values.end() ? 0.0 : it->second});
    }
    // Monitor overhead and tracing overhead, from pass medians.
    std::vector<double> swept, bare, traced_total;
    for (const PassResult& p : traced) {
      traced_total.push_back(p.total_s);
      if (p.host_s.count("fault.sweep_unmonitored")) {
        swept.push_back(p.host_s.at("fault.sweep"));
        bare.push_back(p.host_s.at("fault.sweep_unmonitored"));
      }
    }
    metrics.push_back(
        {"fault.monitor_overhead_pct", "%",
         bare.empty() ? 0.0 : 100.0 * (Median(swept) / Median(bare) - 1.0)});
    metrics.push_back(
        {"trace.overhead_pct", "%",
         100.0 *
             (Median(traced_total) / std::max(1e-12, Median(total)) - 1.0)});
    std::vector<double> pass_s;
    for (const PassResult& p : traced)
      pass_s.push_back(p.host_s.at("pass"));
    metrics.push_back({"trace.pass_s", "s", Median(pass_s)});
    metrics.push_back({"trace.spans", "count",
                       static_cast<double>(spans.spans().size())});
    if (!args.spans_out.empty())
      WriteSpans(args.spans_out, spans, workload->name, args.seed);
  }

  // An operation that broke a paper invariant is a failed operation, not
  // a wrong output: the run stays correct and reports it in "failed".
  const bool correct = errors.empty();
  std::string result = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
              Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
              "}";
  }
  result += "}}";
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
