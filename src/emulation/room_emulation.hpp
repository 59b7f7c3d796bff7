/**
 * @file
 * End-to-end room emulation (paper Section V-C, Fig. 13).
 *
 * Emulates a 4.8 MW zero-reserved-power room of 360 racks through the
 * paper's four stages: (A) setup, (B) normal operation at ~80%
 * utilization, (C/D) a UPS failure that spikes the survivors above
 * their rated capacity, (E) Flex-Online detection and corrective
 * actions, and (F/G) UPS restoration and action release. The harness
 * wires together every substrate in the repository: the power topology,
 * Flex-Offline placement, synthetic workloads, the redundant telemetry
 * pipeline, multi-primary Flex controllers, and rack-manager actuation.
 *
 * Scale: rack state lives in flat structure-of-arrays vectors, and UPS
 * loads are maintained incrementally (power::IncrementalUpsLoads) from
 * rack-power deltas instead of per-tick O(racks) rescans, so rooms of
 * tens of thousands of racks simulate at interactive speed. Set
 * EmulationConfig::verify_aggregation = true to cross-check the running
 * sums and action counters against an exact rescan at every sample.
 */
#ifndef FLEX_EMULATION_ROOM_EMULATION_HPP_
#define FLEX_EMULATION_ROOM_EMULATION_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "actuation/rack_manager.hpp"
#include "emulation/workload_model.hpp"
#include "emulation/scale_out.hpp"
#include "obs/alerts.hpp"
#include "offline/placement.hpp"
#include "online/controller.hpp"
#include "power/battery.hpp"
#include "power/incremental.hpp"
#include "power/topology.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/pipeline.hpp"
#include "workload/impact.hpp"

namespace flex::obs {
class LiveHub;
class StallWatchdog;
}  // namespace flex::obs

namespace flex::solver {
struct LiveSolverStats;
}  // namespace flex::solver

namespace flex::emulation {

/** Emulation knobs; defaults reproduce the paper's Section V-C setup. */
struct EmulationConfig {
  power::RoomConfig room = power::RoomConfig::EmulationRoom();
  /** Target aggregate utilization at the UPS level during stage B. */
  double target_utilization = 0.80;
  /** Flex power as a fraction of rack allocation (paper: 0.85). */
  double flex_power_fraction = 0.85;
  /** Impact functions by workload name (defaults to Fig. 11(c)). */
  workload::ImpactScenario scenario = workload::ImpactScenario::Realistic1();

  Seconds setup_duration = Minutes(4.0);
  Seconds failover_at = Minutes(12.0);
  Seconds restore_at = Minutes(24.0);
  Seconds end_at = Minutes(32.0);
  Seconds workload_step = Seconds(1.0);
  Seconds sample_period = Seconds(5.0);
  /**
   * Safety-monitor cadence (per-UPS overload and trip-curve tracking).
   * <= 0 (default) folds the monitor into each sample tick, i.e. the
   * sample_period cadence. > 0 schedules a dedicated monitor at this
   * period: each tick reads the incremental UPS sums in O(UPSes), so
   * 100 Hz trip-curve monitoring stays affordable at 10k racks. The
   * paper's trip curves resolve overloads down to tens of milliseconds,
   * which the default 5 s sampling cannot see.
   */
  Seconds monitor_period = Seconds(0.0);
  power::UpsId failed_ups = 0;

  /**
   * Scripted telemetry outage: every poller fails at `telemetry_
   * outage_at` and recovers at `telemetry_outage_until` (disabled
   * unless until > at > 0). The drill behind the alerting acceptance
   * test: readings stop flowing, `pipeline.readings_delivered` goes
   * flat, and the staleness rule walks pending → firing → resolved.
   */
  Seconds telemetry_outage_at = Seconds(0.0);
  Seconds telemetry_outage_until = Seconds(0.0);

  int num_controllers = 3;  ///< multi-primary replicas
  /**
   * Per-batch wall-clock budget for the Flex-Offline placement MILP
   * that builds the room. Solves that converge within the budget are
   * deterministic; budget-limited solves are not, so sweeps that need
   * bit-identity should keep this high enough to converge.
   */
  double placement_solve_seconds = 2.0;
  /**
   * Node budget per placement batch solve; 0 keeps the solver default.
   * Unlike the wall-clock budget above, a node budget truncates the
   * search at the same point on every machine, so determinism tests and
   * sweeps should set a finite node budget together with an effectively
   * infinite placement_solve_seconds instead of relying on fast
   * hardware to converge within the wall budget.
   */
  std::int64_t placement_max_nodes = 0;
  telemetry::PipelineConfig pipeline;
  actuation::RackManagerConfig rack_manager;
  online::ControllerConfig controller;
  std::uint64_t seed = 2021;

  /**
   * Cross-check the incremental sums and the off/capped/non-cap-acted
   * rack counters against an exact brute-force rescan at every sample
   * (FLEX_CHECK on divergence). Defaults on under
   * sanitized builds (-DFLEX_AGG_VERIFY, set by FLEX_SANITIZE); always
   * settable explicitly for tests.
   */
#ifdef FLEX_AGG_VERIFY
  bool verify_aggregation = true;
#else
  bool verify_aggregation = false;
#endif

  /**
   * Optional instrumentation sink. When set, the harness binds it to its
   * internal clock and propagates it into the pipeline, controller,
   * rack-manager, and battery sub-configs.
   */
  obs::Observability* obs = nullptr;

  /**
   * Optional live observability mailbox (obs/http_export.hpp). Every
   * sample tick publishes snapshot copies — metrics (the obs registry's
   * when obs is set, a synthesized minimum otherwise), reaction-trace
   * and flight-recorder tails, and a health rollup — that an HTTP
   * scraper reads from its own thread. Publishing copies state *out*;
   * nothing is ever read back, so wiring a hub cannot change a single
   * simulated event. Safe to share one hub across parallel sweep lanes
   * (last writer wins). Not owned.
   */
  obs::LiveHub* live = nullptr;

  /**
   * Optional stall watchdog. The harness registers one heartbeat entry
   * per RoomEmulation (named by seed) and beats it from the sample
   * loop, so a wedged sim thread is flagged on /healthz. Not owned.
   */
  obs::StallWatchdog* watchdog = nullptr;

  /**
   * Optional live solver-progress sink for the placement MILP solves
   * that build the room (wave occupancy, open nodes, warm-basis hits).
   * The solver only ever writes it; the HTTP plane reads it through
   * AddLiveGauge callbacks. Not owned.
   */
  solver::LiveSolverStats* solver_live = nullptr;

  /**
   * Deterministic time-series history + alert rules (obs/alerts.hpp).
   * When enabled, every sample tick folds a metrics snapshot — the obs
   * registry's when obs is set, the synthesized rows otherwise — into a
   * lane-local TimeSeriesStore and evaluates the rule set on simulated
   * time. Fully functional headless: the store, the engine, and their
   * fingerprints in the report exist with no LiveHub and no obs sink,
   * which is what lets sweep lanes prove bit-identity at any thread
   * count.
   */
  obs::AlertsConfig alerts;
};

/** One point of the recorded time series. */
struct EmulationSample {
  double t_seconds = 0.0;
  std::vector<double> ups_mw;    ///< true per-UPS power
  double total_rack_mw = 0.0;
  int racks_off = 0;
  int racks_capped = 0;
};

/** Everything the emulation measured. */
struct EmulationReport {
  std::vector<EmulationSample> series;

  int total_racks = 0;
  int sr_racks = 0;
  int capable_racks = 0;
  int noncap_racks = 0;

  /** Peak counts of acted racks during the failover episode. */
  int sr_shutdown_peak = 0;
  int capable_capped_peak = 0;
  /** As fractions of their categories (paper: 64% and 51%). */
  double sr_shutdown_fraction = 0.0;
  double capable_capped_fraction = 0.0;
  /** Non-cap-able racks must never be acted on. */
  int noncap_acted = 0;

  /** Detection -> all actions enforced, first episode (paper: ~2 s). */
  double enforcement_latency_seconds = 0.0;
  /** Failover -> power back under every UPS limit. */
  double time_to_safe_seconds = 0.0;
  /** p99.9 telemetry data latency (paper: < 1.5 s). */
  double data_latency_p999 = 0.0;

  /** p95 latency inflation of throttled cap-able racks (paper: +4.7%). */
  double p95_increase_mean = 0.0;
  /** Worst per-rack inflation (paper: 14%). */
  double p95_increase_worst = 0.0;

  /** True if any UPS stayed above rated capacity past its tolerance. */
  bool safety_violated = false;
  double worst_overload_fraction = 0.0;
  double overload_duration_seconds = 0.0;
  /** True if any UPS battery exhausted its ride-through energy. */
  bool battery_tripped = false;
  /** Lowest battery state of charge seen on any UPS (1.0 = full). */
  double min_battery_state_of_charge = 1.0;

  /** Software-redundant service continuity through the emergency. */
  double sr_capacity_min_fraction = 1.0;
  /** Capacity once the remote AZ absorbed the shutdowns. */
  double sr_capacity_after_scaleout = 1.0;
  /** Local auto-recovery attempts the notification inhibited (want 0). */
  int sr_inhibited_auto_recoveries = 0;
  /** Power-emergency notifications published by the controllers. */
  int notifications_published = 0;

  /** Aggregated controller stats across replicas. */
  int overdraw_events = 0;
  int throttle_commands = 0;
  int shutdown_commands = 0;

  /** Simulation-engine accounting (for the room-scale bench). */
  std::uint64_t events_executed = 0;
  std::uint64_t aggregate_deltas = 0;   ///< O(1) incremental updates
  std::uint64_t aggregate_resyncs = 0;  ///< exact O(PDU) resyncs
  std::uint64_t verify_rescans = 0;     ///< debug cross-check rescans
  std::uint64_t monitor_ticks = 0;      ///< safety-monitor evaluations

  /** Alerting results (populated when EmulationConfig::alerts.enabled). */
  std::uint64_t alerts_fired = 0;
  std::vector<obs::AlertTransition> alert_timeline;
  std::uint64_t alert_fingerprint = 0;  ///< engine timeline + states
  std::uint64_t store_fingerprint = 0;  ///< full time-series contents
  std::uint64_t store_samples = 0;
};

/**
 * A lock-free, allocation-free view of one room's state at an epoch
 * barrier. The fleet engine fills one per lane (in serial room order)
 * instead of copying reports mid-run.
 */
struct RoomEpochView {
  double t_seconds = 0.0;
  double total_rack_mw = 0.0;
  double max_ups_load_fraction = 0.0;
  std::uint64_t events_executed = 0;
  int racks_off = 0;
  int racks_capped = 0;
  bool safety_violated = false;
  bool battery_tripped = false;
  std::uint64_t samples_recorded = 0;
  std::uint64_t alert_edges = 0;   ///< alert timeline length so far
  std::uint64_t alerts_fired = 0;  ///< cumulative firing edges
};

/**
 * The emulation harness. Also the telemetry pipeline's ground-truth
 * power source.
 *
 * Two driving modes share one timeline: Run() executes it monolithically,
 * while the epoch-bounded API — StartTimeline() / AdvanceTo() / Finish()
 * — lets an external driver (emulation/fleet_emulation.hpp) tile the same
 * timeline into fixed simulated-time epochs. EventQueue::RunUntil tiles
 * exactly, so the two modes execute bit-identical event traces.
 */
class RoomEmulation : public telemetry::PowerSource {
 public:
  explicit RoomEmulation(EmulationConfig config);
  ~RoomEmulation() override;

  /** Runs the full timeline and returns the report. */
  EmulationReport Run();

  // --- Epoch-bounded driving (the fleet engine's lane API) ---------------
  /**
   * Schedules the full timeline and starts the pipeline without running
   * any events. Also reserves the report's sample series at its final
   * size, so steady-state epoch stepping records samples without
   * allocating. Call once; Run() calls it internally.
   */
  void StartTimeline();
  /**
   * Executes all events up to and including @p horizon (clamped to the
   * timeline end) and leaves the clock at the horizon. @return events
   * executed in this segment.
   */
  std::uint64_t AdvanceTo(Seconds horizon);
  /** Earliest pending event, +inf when drained (lane idle detection). */
  Seconds NextEventTime() { return queue_.NextEventTime(); }
  /**
   * Stops the pipeline, drains the delivery tail, and assembles the
   * report. Requires the clock to have reached the timeline end.
   */
  EmulationReport Finish();
  /** Fills @p out from current state; no allocation, no side effects. */
  void SnapshotEpoch(RoomEpochView* out) const;
  /**
   * Fleet coupling channel (barrier path only): records the latest
   * fleet-level substation overload fraction so the room's metric
   * snapshots carry the shared-feed context. Purely observational — the
   * value is never read by any control decision, so wiring it cannot
   * change the room's event trace.
   */
  void SetFleetOverloadGauge(double overload_fraction);

  const EmulationConfig& config() const { return config_; }
  /** Racks the placement actually produced (known after construction). */
  int total_racks() const { return report_.total_racks; }

  // telemetry::PowerSource:
  Watts CurrentPower(telemetry::DeviceId device) const override;
  void CurrentPowerBatch(telemetry::DeviceKind kind,
                         std::vector<Watts>& out) const override;

  const power::RoomTopology& topology() const { return topology_; }
  const offline::Placement& placement() const { return placement_; }

  /** Telemetry pipeline access, e.g. for pre-run fault injection. */
  telemetry::TelemetryPipeline& pipeline() { return *pipeline_; }

  /** Time-series store / alert engine; nullptr unless alerts.enabled. */
  const obs::TimeSeriesStore* timeseries() const { return ts_store_.get(); }
  const obs::AlertEngine* alert_engine() const {
    return alert_engine_.get();
  }

 private:
  void BuildRoom();
  void StepWorkloads();
  void RecordSample();
  /**
   * The metrics view of the current tick: the obs registry's snapshot
   * when obs is set, otherwise synthesized sorted rows covering the
   * emulation + pipeline essentials. Shared by the store sampler and
   * the live publisher so both see identical values.
   */
  obs::MetricsSnapshot BuildLiveSnapshot();
  /** Copies fresh snapshots into config_.live / beats the watchdog. */
  void PublishLive(const obs::MetricsSnapshot& snapshot);
  /** One-time forensic dump when a rule fires (alerts.forensics_root). */
  void DumpAlertBundle(const obs::AlertStatus& status,
                       const obs::AlertTransition& edge);
  /** Overload + trip-curve tracking against the given true UPS loads. */
  void MonitorTick(const std::vector<Watts>& ups);
  void OnRackStateChanged(int rack_id);
  void RebuildAggregates();
  void VerifyAggregates();
  /** Rack power from the SoA state + actuation mirrors. */
  double ComputeRackPowerW(int rack_id, double ramp) const;
  double RampNow() const;

  EmulationConfig config_;
  power::RoomTopology topology_;
  sim::EventQueue queue_;
  Rng rng_;

  offline::Placement placement_;
  std::vector<offline::Rack> layout_;

  // --- Rack state, structure-of-arrays (index == rack id == layout_
  // index; BuildRoom asserts the invariant). The actuation plane owns
  // the authoritative on/cap state; rack_on_/rack_cap_w_ mirror it so
  // the hot loops never chase through RackManager objects.
  std::vector<OuProcess> rack_util_;
  std::vector<double> rack_alloc_w_;
  std::vector<std::int32_t> rack_pdu_;
  std::vector<workload::Category> rack_category_;
  std::vector<double> rack_power_w_;  // cached true power (piecewise const)
  std::vector<char> rack_on_;
  std::vector<double> rack_cap_w_;  // active cap in watts; < 0 = none
  // Tail-latency tracking (cap-able racks only, but full-size for flat
  // indexing).
  std::vector<double> latency_factor_integral_;
  std::vector<double> latency_window_seconds_;
  std::vector<double> worst_latency_factor_;
  std::vector<char> was_throttled_;
  std::vector<int> sr_rack_ids_;
  std::vector<int> capable_rack_ids_;

  // Incremental aggregation state.
  power::IncrementalUpsLoads agg_;
  power::PduPairLoads pdu_scratch_;
  int off_count_ = 0;           // racks powered off
  int capped_count_ = 0;        // racks on with an active cap
  int noncap_acted_count_ = 0;  // non-cap-able racks off or capped
  std::uint64_t verify_rescans_ = 0;

  std::unique_ptr<actuation::ActuationPlane> plane_;
  std::unique_ptr<telemetry::TelemetryPipeline> pipeline_;
  std::vector<std::unique_ptr<online::FlexController>> controllers_;
  online::NotificationBus notifications_;
  std::unique_ptr<ScaleOutModel> sr_scale_out_;

  power::UpsId failed_ups_ = -1;
  int watchdog_id_ = -1;  ///< heartbeat slot in config_.watchdog
  // Epoch-bounded driving state.
  bool timeline_started_ = false;
  bool finished_ = false;
  double time_to_safe_ = -1.0;  ///< failover -> under-limit latency
  /** Latest fleet substation overload fraction; < 0 until the fleet
      barrier publishes one (standalone rooms never see it). */
  double fleet_overload_fraction_ = -1.0;
  std::unique_ptr<obs::TimeSeriesStore> ts_store_;
  std::unique_ptr<obs::AlertEngine> alert_engine_;
  bool alert_bundle_written_ = false;
  double max_ups_load_fraction_ = 0.0;  ///< latest sample's worst UPS
  EmulationReport report_;
  // Overload bookkeeping for the safety check.
  std::vector<double> overload_since_;  // per UPS; <0 = not overloaded
  std::vector<power::BatteryModel> batteries_;  // per UPS
};

}  // namespace flex::emulation

#endif  // FLEX_EMULATION_ROOM_EMULATION_HPP_
