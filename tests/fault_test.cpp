/**
 * @file
 * Tests for the deterministic fault-injection engine: plan scheduling,
 * envelope-respecting fuzzing, seed replay, each fault kind in
 * isolation, and the safety-invariant monitor's detectors — plus the
 * forensic-bundle dump/replay loop built on top of them.
 */
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_fuzzer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/forensics.hpp"
#include "fault/invariant_monitor.hpp"
#include "fault/scenario.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/forensics.hpp"
#include "obs/http_export.hpp"

namespace flex::fault {
namespace {

using telemetry::DeviceKind;

FaultEvent
MakeEvent(double at, FaultKind kind, int target, double duration,
          double magnitude = 0.0)
{
  FaultEvent event;
  event.at = Seconds(at);
  event.kind = kind;
  event.target = target;
  event.magnitude = magnitude;
  event.duration = Seconds(duration);
  return event;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, SortByTimeIsStableForEqualTimes)
{
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kPollerCrash, 0, 1.0));
  plan.Add(MakeEvent(2.0, FaultKind::kBusOutage, 1, 1.0));
  plan.Add(MakeEvent(5.0, FaultKind::kBusOutage, 0, 1.0));
  plan.Add(MakeEvent(2.0, FaultKind::kPollerCrash, 1, 1.0));
  plan.SortByTime();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kBusOutage);
  EXPECT_EQ(plan.events()[0].target, 1);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kPollerCrash);
  EXPECT_EQ(plan.events()[1].target, 1);
  // Equal-time events keep insertion order (poller before bus at t=5).
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kPollerCrash);
  EXPECT_EQ(plan.events()[2].target, 0);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kBusOutage);
  EXPECT_EQ(plan.events()[3].target, 0);
}

TEST(FaultPlanTest, LastEndTimeSpansBeginPlusDuration)
{
  FaultPlan plan;
  EXPECT_NEAR(plan.LastEndTime().value(), 0.0, 1e-12);
  plan.Add(MakeEvent(10.0, FaultKind::kUpsFailover, 0, 30.0));
  plan.Add(MakeEvent(35.0, FaultKind::kPollerCrash, 0, 2.0));
  EXPECT_NEAR(plan.LastEndTime().value(), 40.0, 1e-12);
}

TEST(FaultPlanTest, DebugStringNamesEveryEvent)
{
  FaultPlan plan;
  plan.Add(MakeEvent(1.0, FaultKind::kUpsFailover, 2, 10.0));
  FaultEvent meter = MakeEvent(2.0, FaultKind::kMeterDrift, 4, 5.0, 0.01);
  meter.device_kind = DeviceKind::kRack;
  meter.meter_index = 1;
  plan.Add(meter);
  const std::string text = plan.DebugString();
  EXPECT_NE(text.find("ups_failover"), std::string::npos);
  EXPECT_NE(text.find("meter_drift"), std::string::npos);
  EXPECT_NE(text.find("rack=4 meter=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FaultFuzzer: determinism and envelope
// ---------------------------------------------------------------------------

TEST(FaultFuzzerTest, SameSeedSamplesIdenticalPlan)
{
  const FaultFuzzer fuzzer{ScenarioShape{}};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_EQ(fuzzer.SamplePlan(seed).DebugString(),
              fuzzer.SamplePlan(seed).DebugString())
        << "seed " << seed;
  }
}

TEST(FaultFuzzerTest, DifferentSeedsSampleDifferentPlans)
{
  const FaultFuzzer fuzzer{ScenarioShape{}};
  std::set<std::string> plans;
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    plans.insert(fuzzer.SamplePlan(seed).DebugString());
  EXPECT_GT(plans.size(), 15u);  // near-universal distinctness
}

TEST(FaultFuzzerTest, PlansStayInsideToleratedEnvelope)
{
  const ScenarioShape shape;
  const FaultFuzzer fuzzer{shape};
  const FuzzerConfig& config = fuzzer.config();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FaultPlan plan = fuzzer.SamplePlan(seed);
    std::vector<std::pair<double, double>> failovers;
    std::set<std::pair<int, int>> meter_devices;
    int pollers = 0;
    int outages = 0;
    int unreachable = 0;
    int pauses = 0;
    for (const FaultEvent& event : plan.events()) {
      EXPECT_GE(event.at.value(), 0.0);
      EXPECT_LE((event.at).value(),
                shape.horizon.value() - config.settle_tail.value());
      switch (event.kind) {
        case FaultKind::kUpsFailover:
          EXPECT_LT(event.target, shape.num_ups);
          failovers.push_back({event.at.value(),
                               (event.at + event.duration).value()});
          break;
        case FaultKind::kMeterFailure:
        case FaultKind::kMeterStuck:
        case FaultKind::kMeterDrift:
          EXPECT_LT(event.meter_index, shape.meters_per_device);
          EXPECT_TRUE(
              meter_devices
                  .insert({static_cast<int>(event.device_kind), event.target})
                  .second)
              << "two meter faults on one device would break the quorum";
          EXPECT_LE(std::abs(event.magnitude), config.max_drift_rate);
          break;
        case FaultKind::kPollerCrash:
          EXPECT_LT(event.target, shape.num_pollers);
          ++pollers;
          break;
        case FaultKind::kBusOutage:
          EXPECT_LT(event.target, shape.num_buses);
          ++outages;
          break;
        case FaultKind::kBusDelay:
          EXPECT_LE(event.magnitude, config.max_bus_delay.value());
          break;
        case FaultKind::kBusDuplicate:
          break;
        case FaultKind::kRackManagerTimeout:
          EXPECT_LT(event.target, shape.num_racks);
          EXPECT_LE(event.magnitude,
                    config.max_rack_manager_extra.value());
          break;
        case FaultKind::kRackManagerUnreachable:
          EXPECT_LT(event.target, shape.num_racks);
          ++unreachable;
          break;
        case FaultKind::kControllerPause:
          EXPECT_LT(event.target, shape.num_controllers);
          ++pauses;
          break;
      }
    }
    // Failovers never overlap: xN/y tolerates one failure at a time.
    std::sort(failovers.begin(), failovers.end());
    for (std::size_t i = 1; i < failovers.size(); ++i) {
      EXPECT_GE(failovers[i].first,
                failovers[i - 1].second + config.failover_gap.value() - 1e-9);
    }
    EXPECT_LE(pollers, 1) << "one poller must survive";
    EXPECT_LE(outages, 1) << "one bus must survive";
    EXPECT_LE(unreachable, 1);
    EXPECT_LE(pauses, shape.num_controllers - 1);
  }
}

// ---------------------------------------------------------------------------
// FaultInjector: validation and single-fault application
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, RejectsOutOfRangeTargets)
{
  FaultScenario scenario({}, 1);
  FaultInjector injector(scenario.targets());
  FaultPlan bad_bus;
  bad_bus.Add(MakeEvent(1.0, FaultKind::kBusOutage, 7, 1.0));
  EXPECT_THROW(injector.Arm(bad_bus), ConfigError);
  FaultPlan bad_ups;
  bad_ups.Add(MakeEvent(1.0, FaultKind::kUpsFailover, 3, 1.0));
  EXPECT_THROW(injector.Arm(bad_ups), ConfigError);
  FaultPlan bad_time;
  bad_time.Add(MakeEvent(-1.0, FaultKind::kPollerCrash, 0, 1.0));
  EXPECT_THROW(injector.Arm(bad_time), ConfigError);
  EXPECT_EQ(injector.scheduled_count(), 0);
}

TEST(FaultInjectorTest, SchedulesBeginAndRepairPerDurationFault)
{
  FaultScenario scenario({}, 1);
  FaultInjector injector(scenario.targets());
  FaultPlan plan;
  plan.Add(MakeEvent(1.0, FaultKind::kPollerCrash, 0, 5.0));
  plan.Add(MakeEvent(2.0, FaultKind::kBusOutage, 0, 0.0));  // never repaired
  injector.Arm(plan);
  EXPECT_EQ(injector.scheduled_count(), 3);
  scenario.queue().RunUntil(Seconds(4.0));  // before the t=6 repair
  ASSERT_EQ(injector.executed_trace().size(), 2u);
  EXPECT_NE(injector.executed_trace()[0].find("begin"), std::string::npos);
  EXPECT_NE(injector.executed_trace()[0].find("poller_crash"),
            std::string::npos);
  EXPECT_NE(injector.executed_trace()[1].find("bus_outage"),
            std::string::npos);
  scenario.queue().RunUntil(Seconds(20.0));
  ASSERT_EQ(injector.executed_trace().size(), 3u);
  EXPECT_NE(injector.executed_trace()[2].find("repair"), std::string::npos);
  EXPECT_NE(injector.executed_trace()[2].find("poller_crash"),
            std::string::npos);
}

TEST(FaultInjectorTest, UpsFailoverTogglesAndRestores)
{
  FaultScenario scenario({}, 7);
  FaultInjector injector(scenario.targets());
  FaultPlan plan;
  plan.Add(MakeEvent(10.0, FaultKind::kUpsFailover, 1, 15.0));
  injector.Arm(plan);
  scenario.queue().RunUntil(Seconds(12.0));
  EXPECT_EQ(scenario.failed_ups(), 1);
  scenario.queue().RunUntil(Seconds(30.0));
  EXPECT_EQ(scenario.failed_ups(), -1);
}

TEST(FaultInjectorTest, RackManagerFaultsApplyAndRepair)
{
  FaultScenario scenario({}, 7);
  FaultInjector injector(scenario.targets());
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kRackManagerTimeout, 3, 10.0, 2.5));
  plan.Add(MakeEvent(5.0, FaultKind::kRackManagerUnreachable, 6, 10.0));
  injector.Arm(plan);
  scenario.queue().RunUntil(Seconds(8.0));
  EXPECT_NEAR(scenario.plane().rack(3).extra_latency().value(), 2.5, 1e-12);
  EXPECT_TRUE(scenario.plane().rack(6).unreachable());
  scenario.queue().RunUntil(Seconds(20.0));
  EXPECT_NEAR(scenario.plane().rack(3).extra_latency().value(), 0.0, 1e-12);
  EXPECT_FALSE(scenario.plane().rack(6).unreachable());
}

TEST(FaultInjectorTest, ControllerPauseSuspendsOneReplica)
{
  FaultScenario scenario({}, 7);
  InjectorTargets targets = scenario.targets();
  FaultInjector injector(targets);
  FaultPlan plan;
  plan.Add(MakeEvent(5.0, FaultKind::kControllerPause, 1, 8.0));
  injector.Arm(plan);
  scenario.queue().RunUntil(Seconds(6.0));
  EXPECT_FALSE(targets.controllers[0]->suspended());
  EXPECT_TRUE(targets.controllers[1]->suspended());
  scenario.queue().RunUntil(Seconds(14.0));
  EXPECT_FALSE(targets.controllers[1]->suspended());
}

TEST(FaultInjectorTest, TelemetrySurvivesEachPipelineFaultInIsolation)
{
  // One faulty stage at a time must never stop the data: redundant
  // meters, pollers, and buses are exactly the paper's no-SPOF claim.
  const FaultKind kinds[] = {
      FaultKind::kMeterFailure, FaultKind::kMeterStuck,
      FaultKind::kMeterDrift,   FaultKind::kPollerCrash,
      FaultKind::kBusOutage,    FaultKind::kBusDelay,
      FaultKind::kBusDuplicate,
  };
  for (const FaultKind kind : kinds) {
    ScenarioConfig config;
    config.shape.horizon = Seconds(40.0);
    FaultScenario scenario(config, 11);
    FaultEvent event = MakeEvent(5.0, kind, 0, 20.0);
    if (kind == FaultKind::kMeterDrift)
      event.magnitude = 0.01;
    if (kind == FaultKind::kBusDelay)
      event.magnitude = 0.5;
    FaultPlan plan;
    plan.Add(event);
    const ScenarioReport report = scenario.Run(plan);
    EXPECT_GT(report.readings_delivered, 500u)
        << FaultKindName(kind) << " starved the pipeline";
    EXPECT_TRUE(report.violations.empty())
        << FaultKindName(kind) << ":\n"
        << report.violation_summary;
  }
}

// ---------------------------------------------------------------------------
// Seed replay: the tentpole determinism guarantee
// ---------------------------------------------------------------------------

TEST(SeedReplayTest, SameSeedReproducesIdenticalRun)
{
  const ScenarioConfig config;
  for (const std::uint64_t seed : {3ull, 17ull, 92ull}) {
    std::string trace_a;
    std::string trace_b;
    const ScenarioReport a = RunFuzzedScenario(config, seed, &trace_a);
    const ScenarioReport b = RunFuzzedScenario(config, seed, &trace_b);
    EXPECT_EQ(trace_a, trace_b) << "plan diverged for seed " << seed;
    EXPECT_EQ(a.fault_trace, b.fault_trace)
        << "interleaving diverged for seed " << seed;
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.readings_delivered, b.readings_delivered);
    EXPECT_EQ(a.throttle_commands, b.throttle_commands);
    EXPECT_EQ(a.shutdown_commands, b.shutdown_commands);
    EXPECT_EQ(a.restore_commands, b.restore_commands);
    EXPECT_DOUBLE_EQ(a.worst_overload_fraction, b.worst_overload_fraction);
  }
}

// ---------------------------------------------------------------------------
// InvariantMonitor detectors
// ---------------------------------------------------------------------------

TEST(InvariantMonitorTest, FlagsIllegalCapAndIllegalShutdown)
{
  FaultScenario scenario({}, 5);
  // Rack 3 is non-cap-able (pattern index % 4): capping it is illegal.
  scenario.plane().rack(3).Throttle(KiloWatts(25.0), [](bool) {});
  // Rack 1 is cap-able but not software-redundant: power-off is illegal.
  scenario.plane().rack(1).Shutdown([](bool) {});
  scenario.queue().RunUntil(Seconds(5.0));
  const auto& violations = scenario.monitor().violations();
  ASSERT_EQ(violations.size(), 2u) << scenario.monitor().Summary();
  EXPECT_EQ(violations[0].invariant, "illegal-action");
  EXPECT_EQ(violations[1].invariant, "illegal-action");
  EXPECT_NE(scenario.monitor().Summary().find("illegally"),
            std::string::npos);
}

TEST(InvariantMonitorTest, LegalActionsRaiseNoViolation)
{
  FaultScenario scenario({}, 5);
  scenario.plane().rack(1).Throttle(KiloWatts(25.0), [](bool) {});  // cap-able
  scenario.plane().rack(0).Shutdown([](bool) {});  // software-redundant
  scenario.queue().RunUntil(Seconds(5.0));
  EXPECT_TRUE(scenario.monitor().violations().empty())
      << scenario.monitor().Summary();
}

TEST(InvariantMonitorTest, DetectsMissedOverloadAndTripWhenUnmanaged)
{
  // Freeze utilization at the cap and suspend every replica: the
  // failover overload then persists unanswered, which must trip both
  // the missed-overload deadline and, later, the trip-curve bound.
  ScenarioConfig config;
  config.mean_utilization = 0.84;
  config.utilization_sigma = 0.0;
  config.min_utilization = 0.84;
  config.max_utilization = 0.84;
  config.utilization_jitter = 0.0;
  config.shape.horizon = Seconds(70.0);
  FaultScenario scenario(config, 13);
  for (online::FlexController* controller : scenario.targets().controllers)
    controller->SetSuspended(true);
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 0.0));  // no repair
  const ScenarioReport report = scenario.Run(plan);
  // Survivors carry 1.5x their share: 12 racks * 50 kW * 0.84 / 2 = 252 kW
  // per 200 kW UPS.
  EXPECT_NEAR(report.worst_overload_fraction, 1.26, 0.01);
  std::set<std::string> kinds;
  for (const Violation& violation : report.violations)
    kinds.insert(violation.invariant);
  EXPECT_TRUE(kinds.count("missed-overload")) << report.violation_summary;
  EXPECT_TRUE(kinds.count("ups-trip")) << report.violation_summary;
}

TEST(InvariantMonitorTest, ManagedFailoverStaysViolationFree)
{
  // The same overload with live controllers must be answered in time:
  // zero violations and at least one corrective command.
  ScenarioConfig config;
  config.shape.horizon = Seconds(90.0);
  FaultScenario scenario(config, 21);
  FaultPlan plan;
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 14.0));
  const ScenarioReport report = scenario.Run(plan);
  EXPECT_GT(report.worst_overload_fraction, 1.0);
  EXPECT_TRUE(report.violations.empty()) << report.violation_summary;
  EXPECT_GT(report.throttle_commands + report.shutdown_commands, 0);
  EXPECT_GT(scenario.monitor().checks_run(), 500u);
}

// ---------------------------------------------------------------------------
// Forensic bundles: dump on violation, replay, divergence detection
// ---------------------------------------------------------------------------

/**
 * Utilization frozen at the cap plus an all-replica pause: the fault
 * plan itself induces the violation, so the recipe replays from the
 * persisted plan alone (unlike the monitor tests above, which suspend
 * controllers by hand).
 */
ScenarioConfig
InducedViolationConfig()
{
  ScenarioConfig config;
  config.mean_utilization = 0.84;
  config.utilization_sigma = 0.0;
  config.min_utilization = 0.84;
  config.max_utilization = 0.84;
  config.utilization_jitter = 0.0;
  config.shape.horizon = Seconds(70.0);
  return config;
}

FaultPlan
InducedViolationPlan()
{
  FaultPlan plan;
  // Pause both replicas for the whole run (duration 0 = never repaired),
  // then fail over a UPS: the overload persists unanswered.
  plan.Add(MakeEvent(0.5, FaultKind::kControllerPause, 0, 0.0));
  plan.Add(MakeEvent(0.5, FaultKind::kControllerPause, 1, 0.0));
  plan.Add(MakeEvent(20.0, FaultKind::kUpsFailover, 0, 0.0));
  return plan;
}

/** Plan inputs whose doubles need all 17 digits to survive a round trip. */
FaultPlan
RoundTripPlan()
{
  FaultPlan plan;
  plan.Add(MakeEvent(81.16920958214399, FaultKind::kUpsFailover, 1,
                     14.000000000000002));
  plan.Add(MakeEvent(12.25, FaultKind::kBusDelay, 0, 30.0, 0.75));
  FaultEvent meter = MakeEvent(3.5, FaultKind::kMeterDrift, 4, 60.0, 0.01);
  meter.device_kind = DeviceKind::kRack;
  meter.meter_index = 1;
  plan.Add(meter);
  return plan;
}

TEST(FaultForensicsTest, PlanJsonlRoundTripIsExact)
{
  const FaultPlan plan = RoundTripPlan();
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlanJsonl(FaultPlanToJsonl(plan), &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FaultEvent& a = plan.events()[i];
    const FaultEvent& b = parsed.events()[i];
    // Bit-exact: one LSB of drift in a fault time walks the replay off
    // the recorded timeline.
    EXPECT_EQ(a.at.value(), b.at.value());
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.device_kind, b.device_kind);
    EXPECT_EQ(a.meter_index, b.meter_index);
    EXPECT_EQ(a.magnitude, b.magnitude);
    EXPECT_EQ(a.duration.value(), b.duration.value());
  }
}

TEST(FaultForensicsTest, PlanJsonlRejectsFieldsOutsideTheirDomain)
{
  // One event line; each edit makes exactly one field invalid. An
  // unchecked parser casts 1e300 to int (undefined), hands device kind
  // 7 to the telemetry layer as a rack, or replays a fault at t=inf.
  const std::string line =
      "{\"at\":12.25,\"kind\":6,\"target\":0,\"device_kind\":1,"
      "\"meter_index\":1,\"magnitude\":0.75,\"duration\":30}";
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlanJsonl(line + "\n", &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.events()[0].device_kind, DeviceKind::kRack);

  const std::vector<std::pair<std::string, std::string>> edits = {
      {"\"target\":0", "\"target\":1e300"},
      {"\"target\":0", "\"target\":-2147483649"},
      {"\"target\":0", "\"target\":0.5"},
      {"\"meter_index\":1", "\"meter_index\":nan"},
      {"\"kind\":6", "\"kind\":6.5"},
      {"\"kind\":6", "\"kind\":11"},
      {"\"device_kind\":1", "\"device_kind\":7"},
      {"\"device_kind\":1", "\"device_kind\":-1"},
      {"\"at\":12.25", "\"at\":inf"},
      {"\"at\":12.25", "\"at\":nan"},
      {"\"magnitude\":0.75", "\"magnitude\":-inf"},
      {"\"duration\":30", "\"duration\":nan"},
  };
  for (const auto& [from, to] : edits) {
    std::string bad = line;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    error.clear();
    EXPECT_FALSE(ParseFaultPlanJsonl("\n" + bad + "\n", &parsed, &error))
        << bad;
    EXPECT_EQ(error, "malformed fault event at line 2") << bad;
  }
}

TEST(FaultForensicsTest, InducedViolationDumpsBundleAndReplaysExactly)
{
  const ScenarioConfig config = InducedViolationConfig();
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics";

  const RecordedRun run =
      RunRecordedPlan(config, 13, InducedViolationPlan(), options);
  ASSERT_FALSE(run.report.violations.empty())
      << "recipe no longer induces a violation";
  EXPECT_TRUE(run.dump_error.empty()) << run.dump_error;
  ASSERT_FALSE(run.bundle_dir.empty()) << "violation did not trigger a dump";
  EXPECT_FALSE(run.records.empty());

  const ReplayReport replay = ReplayBundle(run.bundle_dir, config);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_EQ(replay.manifest.trigger, "invariant-violation");
  EXPECT_TRUE(replay.manifest.replayable);
  EXPECT_GT(replay.compared, 0u);
  EXPECT_FALSE(replay.divergence.has_value())
      << replay.divergence->Summary();
  // Same seed, same plan: the replay reproduces the identical failure.
  EXPECT_EQ(replay.report.violation_summary, run.report.violation_summary);
  EXPECT_EQ(replay.report.violations.size(), run.report.violations.size());
}

TEST(FaultForensicsTest, PerturbedBundleRecordIsReportedAsDivergence)
{
  ForensicsOptions options;
  options.root_dir = ::testing::TempDir() + "fault-forensics-perturbed";
  options.force_dump = true;

  const ScenarioConfig config;
  const RecordedRun run = RunRecordedScenario(config, 42, options);
  ASSERT_FALSE(run.bundle_dir.empty()) << run.dump_error;

  // Corrupt one mid-timeline record's value in events.jsonl.
  const std::string events_path = run.bundle_dir + "/events.jsonl";
  std::vector<obs::FlightRecord> records;
  {
    std::ifstream in(events_path);
    std::ostringstream raw;
    raw << in.rdbuf();
    std::string error;
    ASSERT_TRUE(obs::ParseRecordsJsonl(raw.str(), &records, &error)) << error;
  }
  ASSERT_GT(records.size(), 2u);
  const std::size_t victim = records.size() / 2;
  records[victim].value += 1.0;
  {
    std::ofstream out(events_path, std::ios::trunc);
    out << obs::RecordsToJsonl(records);
  }

  const ReplayReport replay = ReplayBundle(run.bundle_dir, config);
  ASSERT_TRUE(replay.loaded) << replay.error;
  ASSERT_TRUE(replay.divergence.has_value())
      << "perturbed record went undetected";
  EXPECT_EQ(replay.divergence->sequence, records[victim].sequence);
  EXPECT_EQ(replay.divergence->field, "value");
}

// ---------------------------------------------------------------------------
// Parser mutation sweep: every parser behind the obs JSON codec, fed
// mutated copies of the round-trip fixtures. The contract: each call
// answers true or false; nothing throws, and under ASan/UBSan nothing
// reads out of bounds or casts out of range.
// ---------------------------------------------------------------------------

/**
 * Seeded byte-level mutator: bit flips, truncation, splices from another
 * corpus entry, repeated slices, and oversize or hostile tokens. A fixed
 * seed makes every failing input reproducible.
 */
class Mutator {
 public:
  Mutator(std::vector<std::string> corpus, std::uint64_t seed)
      : corpus_(std::move(corpus)), rng_(seed)
  {
  }

  /** A corpus entry with one to four mutations applied. */
  std::string
  Next()
  {
    std::string out = corpus_[Index(corpus_.size())];
    const int rounds = static_cast<int>(rng_.UniformInt(1, 4));
    for (int i = 0; i < rounds; ++i)
      Mutate(&out);
    return out;
  }

 private:
  std::size_t
  Index(std::size_t size)
  {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(size) - 1));
  }

  /** A position in [0, size]: insertion points include the end. */
  std::size_t
  Position(const std::string& text)
  {
    return Index(text.size() + 1);
  }

  void
  Mutate(std::string* text)
  {
    static const std::vector<std::string> kTokens = {
        "-1", "1e300", "-2147483649", "18446744073709551616", "nan", "inf",
        "0.5", "0x1p4", "\"", "\\", "\\u00", "\\u", "[", "]", ",", ":",
        "\"seq\":", "\"id\":", "\"kind\":", "\"notes\": [", "\n", "&", "=",
        std::string(4096, '9'), "\"" + std::string(4096, 'x'),
        std::string(1024, '\\'), std::string(256, '\n'),
    };
    switch (rng_.UniformInt(0, 4)) {
      case 0:  // bit flip
        if (!text->empty())
          (*text)[Index(text->size())] ^=
              static_cast<char>(1 << rng_.UniformInt(0, 7));
        break;
      case 1:  // truncation
        text->resize(Position(*text));
        break;
      case 2: {  // splice: this prefix + another entry's suffix
        const std::string& other = corpus_[Index(corpus_.size())];
        *text = text->substr(0, Position(*text)) +
                other.substr(Position(other));
        break;
      }
      case 3: {  // repeat a slice in place
        const std::size_t begin = Position(*text);
        const std::size_t length = Index(text->size() - begin + 1);
        const std::string slice = text->substr(begin, length);
        const int copies = static_cast<int>(rng_.UniformInt(1, 8));
        for (int i = 0; i < copies; ++i)
          text->insert(begin, slice);
        break;
      }
      default:  // oversize or hostile token
        text->insert(Position(*text), kTokens[Index(kTokens.size())]);
    }
  }

  std::vector<std::string> corpus_;
  Rng rng_;
};

constexpr std::uint64_t kMutationSeed = 0x5EED0F1A5u;
constexpr int kMutations = 5000;

std::vector<obs::FlightRecord>
FixtureRecords()
{
  obs::FlightRecorder recorder(obs::RecorderConfig{8});
  recorder.Record(Seconds(1.0), obs::RecordKind::kMeterSample, 0, 1, 150e3);
  recorder.Record(Seconds(2.0), obs::RecordKind::kRackCommand, 5, 0, 25e3);
  recorder.Record(Seconds(12.25), obs::RecordKind::kViolation, 3, -1, 0.125,
                  "say \"no\"\\path\nline2\ttab [ups-trip]");
  return recorder.Records();
}

obs::ReactionTrace
FixtureTrace()
{
  obs::ReactionTrace trace;
  trace.id = 7;
  trace.detecting_replica = 2;
  trace.ups_index = 1;
  trace.actions = 42;
  trace.sampled_at = Seconds(12.25);
  trace.delivered_at = Seconds(12.5);
  trace.detected_at = Seconds(12.625);
  trace.decided_at = Seconds(12.75);
  trace.enforced_at = Seconds(13.125);
  trace.complete = true;
  trace.budget = Seconds(10.0);
  return trace;
}

TEST(ParserMutationTest, RecorderJsonlAnswersEveryMutation)
{
  const std::vector<obs::FlightRecord> records = FixtureRecords();
  std::vector<std::string> corpus = {obs::RecordsToJsonl(records)};
  for (const obs::FlightRecord& record : records)
    corpus.push_back(obs::RecordToJson(record));
  Mutator mutator(corpus, kMutationSeed);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutator.Next();
    std::vector<obs::FlightRecord> parsed;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = obs::ParseRecordsJsonl(input, &parsed, &error))
        << input;
    if (!ok)
      continue;
    ++accepted;
    // Whatever was accepted re-encodes to a timeline that parses again.
    std::vector<obs::FlightRecord> again;
    EXPECT_TRUE(obs::ParseRecordsJsonl(obs::RecordsToJsonl(parsed), &again,
                                       &error))
        << input;
    EXPECT_EQ(again.size(), parsed.size());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations);
}

TEST(ParserMutationTest, FaultPlanJsonlAnswersEveryMutation)
{
  const std::string jsonl = FaultPlanToJsonl(RoundTripPlan());
  Mutator mutator({jsonl, jsonl.substr(0, jsonl.find('\n') + 1)},
                  kMutationSeed);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutator.Next();
    FaultPlan parsed;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = ParseFaultPlanJsonl(input, &parsed, &error))
        << input;
    if (!ok)
      continue;
    ++accepted;
    FaultPlan again;
    EXPECT_TRUE(ParseFaultPlanJsonl(FaultPlanToJsonl(parsed), &again, &error))
        << input;
    EXPECT_EQ(again.size(), parsed.size());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations);
}

TEST(ParserMutationTest, ReactionTraceJsonAnswersEveryMutation)
{
  obs::ReactionTrace open_trace = FixtureTrace();
  open_trace.id = 8;
  open_trace.complete = false;
  open_trace.closed = true;
  Mutator mutator({obs::ReactionTraceToJson(FixtureTrace()),
                   obs::ReactionTraceToJson(open_trace)},
                  kMutationSeed);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutator.Next();
    obs::ReactionTrace parsed;
    bool ok = false;
    ASSERT_NO_THROW(ok = obs::ParseReactionTraceJson(input, &parsed))
        << input;
    if (!ok)
      continue;
    ++accepted;
    obs::ReactionTrace again;
    EXPECT_TRUE(
        obs::ParseReactionTraceJson(obs::ReactionTraceToJson(parsed), &again))
        << input;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations);
}

TEST(ParserMutationTest, HttpQueryParamAnswersEveryMutation)
{
  Mutator mutator({"metric=unit.level&window=20&res=30", "metric=",
                   "metric", "window=60&&metric=a.b&res"},
                  kMutationSeed);
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutator.Next();
    for (const char* key : {"metric", "window", "res", ""}) {
      std::string value;
      bool ok = false;
      ASSERT_NO_THROW(ok = obs::HttpQueryParam(input, key, &value)) << input;
      if (ok) {
        EXPECT_LE(value.size(), input.size());
      }
    }
  }
}

TEST(ParserMutationTest, ForensicBundleLoaderAnswersEveryMutation)
{
  obs::BundleSpec spec;
  spec.trigger = "invariant-violation";
  spec.scenario = "fault-fuzz";
  spec.seed = 777;
  spec.sim_time_s = 12.25;
  spec.horizon_s = 120.0;
  spec.replayable = true;
  spec.records = FixtureRecords();
  spec.fault_plan_jsonl = FaultPlanToJsonl(RoundTripPlan());
  spec.notes = {"t=2 [ups-trip] \"quoted\" detail", "second note"};
  const std::string dir = obs::UniqueBundleDir(
      ::testing::TempDir(), "fault-test-mutated-bundle");
  std::string error;
  ASSERT_TRUE(obs::WriteForensicBundle(dir, spec, &error)) << error;

  const char* const kFiles[] = {"manifest.json", "events.jsonl",
                                "fault_plan.jsonl"};
  std::vector<std::string> originals;
  for (const char* name : kFiles) {
    std::ifstream in(dir + "/" + name);
    std::ostringstream raw;
    raw << in.rdbuf();
    originals.push_back(raw.str());
  }
  obs::LoadedBundle bundle;
  ASSERT_TRUE(obs::LoadForensicBundle(dir, &bundle, &error)) << error;
  EXPECT_EQ(bundle.manifest.notes, spec.notes);

  // One file at a time, so most loads get past the manifest and reach
  // the timeline; the corpus holds all three files' contents.
  Mutator mutator(originals, kMutationSeed);
  Rng pick(kMutationSeed + 1);
  for (int i = 0; i < kMutations / 8; ++i) {
    const std::size_t victim =
        static_cast<std::size_t>(pick.UniformInt(0, 2));
    for (std::size_t f = 0; f < originals.size(); ++f) {
      std::ofstream out(dir + "/" + kFiles[f], std::ios::trunc);
      out << (f == victim ? mutator.Next() : originals[f]);
    }
    bool ok = false;
    ASSERT_NO_THROW(ok = obs::LoadForensicBundle(dir, &bundle, &error));
    if (!ok) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    FaultPlan plan;
    ASSERT_NO_THROW(ParseFaultPlanJsonl(bundle.fault_plan_jsonl, &plan));
  }
}

}  // namespace
}  // namespace flex::fault
