/**
 * @file
 * Tests for the emulation module: workload models and a shortened
 * end-to-end room emulation (the full Section V-C run lives in
 * bench_end_to_end).
 */
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "emulation/room_emulation.hpp"
#include "emulation/sweep.hpp"
#include "emulation/workload_model.hpp"

namespace flex::emulation {
namespace {

TEST(OuProcessTest, StaysWithinBounds)
{
  OuProcessConfig config;
  config.min = 0.4;
  config.max = 0.9;
  OuProcess process(config, 0.8);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const double value = process.Step(Seconds(1.0), rng);
    EXPECT_GE(value, 0.4);
    EXPECT_LE(value, 0.9);
  }
}

TEST(OuProcessTest, RevertsTowardTheMean)
{
  OuProcessConfig config;
  config.mean = 0.8;
  config.volatility = 0.0;  // deterministic decay
  config.reversion_rate = 0.1;
  OuProcess process(config, 0.5);
  Rng rng(2);
  double previous = process.value();
  for (int i = 0; i < 50; ++i) {
    const double value = process.Step(Seconds(1.0), rng);
    EXPECT_GE(value, previous - 1e-12);
    previous = value;
  }
  EXPECT_NEAR(previous, 0.8, 0.01);
}

TEST(OuProcessTest, LongRunAverageNearMean)
{
  OuProcessConfig config;
  config.mean = 0.75;
  OuProcess process(config, 0.75);
  Rng rng(3);
  double sum = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i)
    sum += process.Step(Seconds(1.0), rng);
  EXPECT_NEAR(sum / steps, 0.75, 0.05);
}

TEST(OuProcessTest, ClampsInitialValueAndValidates)
{
  OuProcessConfig config;
  config.min = 0.4;
  config.max = 0.9;
  EXPECT_NEAR(OuProcess(config, 2.0).value(), 0.9, 1e-12);
  config.min = 1.0;
  config.max = 0.0;
  EXPECT_THROW(OuProcess(config, 0.5), ConfigError);
}

TEST(LatencyModelTest, NoSlowdownMeansNoInflation)
{
  const LatencyModel model(0.5);
  EXPECT_NEAR(model.P95Factor(1.0), 1.0, 1e-12);
}

TEST(LatencyModelTest, InflationGrowsAsSpeedDrops)
{
  const LatencyModel model(0.5);
  double previous = model.P95Factor(1.0);
  for (double speed = 0.95; speed > 0.55; speed -= 0.05) {
    const double factor = model.P95Factor(speed);
    EXPECT_GT(factor, previous);
    previous = factor;
  }
}

TEST(LatencyModelTest, SaturatesNearQueueCollapse)
{
  const LatencyModel model(0.5);
  EXPECT_NEAR(model.P95Factor(0.5), 50.0, 1e-9);
  EXPECT_NEAR(model.P95Factor(0.2), 50.0, 1e-9);
}

TEST(LatencyModelTest, SpeedUnderCap)
{
  EXPECT_NEAR(LatencyModel::SpeedUnderCap(KiloWatts(10.0), KiloWatts(8.5)),
              0.85, 1e-12);
  // Demand below the cap: full speed.
  EXPECT_NEAR(LatencyModel::SpeedUnderCap(KiloWatts(8.0), KiloWatts(8.5)),
              1.0, 1e-12);
  EXPECT_NEAR(LatencyModel::SpeedUnderCap(Watts(0.0), KiloWatts(8.5)), 1.0,
              1e-12);
}

TEST(LatencyModelTest, RejectsBadInputs)
{
  EXPECT_THROW(LatencyModel(0.0), ConfigError);
  EXPECT_THROW(LatencyModel(1.0), ConfigError);
  const LatencyModel model(0.5);
  EXPECT_THROW(model.P95Factor(0.0), ConfigError);
}

/** A compressed end-to-end run: same stages, shorter timeline. */
TEST(RoomEmulationTest, ShortEndToEndRunReproducesTheStages)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(240.0);
  config.end_at = Seconds(360.0);
  config.controller.release_delay = Seconds(20.0);
  config.seed = 7;

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();

  // The room placed a realistic number of racks.
  EXPECT_GT(report.total_racks, 250);
  EXPECT_GT(report.sr_racks, 0);
  EXPECT_GT(report.capable_racks, 0);
  EXPECT_GT(report.noncap_racks, 0);

  // Overdraw was detected and corrected within the UPS tolerance.
  EXPECT_GT(report.overdraw_events, 0);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_GT(report.time_to_safe_seconds, 0.0);
  EXPECT_LT(report.time_to_safe_seconds, 10.0);  // the paper's budget

  // Corrective actions hit the right categories and nothing else.
  EXPECT_GT(report.sr_shutdown_peak + report.capable_capped_peak, 0);
  EXPECT_EQ(report.noncap_acted, 0);

  // Telemetry stayed within the paper's production envelope.
  EXPECT_GT(report.data_latency_p999, 0.0);
  EXPECT_LT(report.data_latency_p999, 1.5);

  // Batteries rode through the overload without exhausting.
  EXPECT_FALSE(report.battery_tripped);
  EXPECT_GT(report.min_battery_state_of_charge, 0.0);

  // The software-redundant service was notified, scaled out in the
  // other AZ, and never fought the controller with local restarts.
  if (report.sr_shutdown_peak > 0) {
    EXPECT_GT(report.notifications_published, 0);
    EXPECT_GE(report.sr_capacity_after_scaleout,
              report.sr_capacity_min_fraction);
  }
  EXPECT_EQ(report.sr_inhibited_auto_recoveries, 0);

  // The series covers the whole timeline and shows the failover dip.
  ASSERT_FALSE(report.series.empty());
  EXPECT_NEAR(report.series.back().t_seconds, 360.0, 10.0);
  bool saw_failed_ups = false;
  for (const EmulationSample& s : report.series) {
    if (s.t_seconds > 125.0 && s.t_seconds < 235.0 &&
        s.ups_mw[static_cast<std::size_t>(config.failed_ups)] < 0.01)
      saw_failed_ups = true;
  }
  EXPECT_TRUE(saw_failed_ups);
}

TEST(RoomEmulationTest, ActionsAreReleasedAfterRestore)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(400.0);
  config.controller.release_delay = Seconds(15.0);
  config.seed = 11;

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  ASSERT_FALSE(report.series.empty());
  const EmulationSample& last = report.series.back();
  EXPECT_EQ(last.racks_capped, 0);
  EXPECT_EQ(last.racks_off, 0);
}

TEST(RoomEmulationTest, SurvivesDegradedTelemetryDuringFailover)
{
  // One poller, one bus, and one physical meter of every UPS are dead
  // for the whole run: the redundant pipeline still feeds the
  // controllers and the room is still saved within the budget.
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(240.0);
  config.end_at = Seconds(300.0);
  config.seed = 21;

  RoomEmulation emulation(config);
  emulation.pipeline().SetPollerFailed(0, true);
  emulation.pipeline().SetBusFailed(1, true);
  for (int u = 0; u < emulation.topology().NumUpses(); ++u) {
    emulation.pipeline().SetMeterFailed(
        {telemetry::DeviceKind::kUps, u}, 0, true);
  }

  const EmulationReport report = emulation.Run();
  EXPECT_GT(report.overdraw_events, 0);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_FALSE(report.battery_tripped);
  EXPECT_GT(report.time_to_safe_seconds, 0.0);
  EXPECT_LT(report.time_to_safe_seconds, 10.0);
}

/** The room is symmetric: any UPS can be the one that fails. */
class FailedUpsSweepTest : public ::testing::TestWithParam<int> {
};

TEST_P(FailedUpsSweepTest, AnySingleUpsFailureIsHandled)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(240.0);
  config.failed_ups = GetParam();
  config.seed = 100 + static_cast<std::uint64_t>(GetParam());

  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  EXPECT_GT(report.overdraw_events, 0);
  EXPECT_FALSE(report.safety_violated);
  EXPECT_FALSE(report.battery_tripped);
  EXPECT_LT(report.time_to_safe_seconds, 10.0);
  EXPECT_EQ(report.noncap_acted, 0);
}

INSTANTIATE_TEST_SUITE_P(AllUpses, FailedUpsSweepTest,
                         ::testing::Values(0, 1, 2, 3));

/** Shared short failover timeline for the tests below. */
EmulationConfig
ShortTimelineConfig(std::uint64_t seed)
{
  EmulationConfig config;
  config.setup_duration = Seconds(30.0);
  config.failover_at = Seconds(120.0);
  config.restore_at = Seconds(200.0);
  config.end_at = Seconds(260.0);
  config.seed = seed;
  // Node-budgeted placement: several tests build the same room twice
  // and compare runs sample-for-sample, so a wall-clock solve budget
  // would let machine load truncate the two placements differently.
  config.placement_solve_seconds = 1e9;
  config.placement_max_nodes = 2000;
  return config;
}

TEST(RoomEmulationTest, VerifyAggregationCrossChecksEverySample)
{
  // The debug cross-check (on by default under FLEX_SANITIZE) rescans
  // every UPS and every rack's actuation state at every sample and
  // FLEX_CHECKs the running sums and the off/capped/non-cap-acted
  // counters against it; a clean run proves the incremental path never
  // diverged.
  EmulationConfig config = ShortTimelineConfig(33);
  config.verify_aggregation = true;
  RoomEmulation emulation(config);
  const EmulationReport report = emulation.Run();
  EXPECT_GE(report.verify_rescans, report.series.size());
  EXPECT_FALSE(report.safety_violated);
  // The failover sheds and caps racks, so the counter checks compared
  // nonzero counts at some samples rather than a room that never acted.
  EXPECT_GT(report.sr_shutdown_peak, 0);
  EXPECT_GT(report.capable_capped_peak, 0);
  int samples_with_off = 0;
  int samples_with_capped = 0;
  for (const EmulationSample& sample : report.series) {
    samples_with_off += sample.racks_off > 0 ? 1 : 0;
    samples_with_capped += sample.racks_capped > 0 ? 1 : 0;
  }
  EXPECT_GT(samples_with_off, 0);
  EXPECT_GT(samples_with_capped, 0);
}

TEST(RoomEmulationTest, DedicatedMonitorRefinesOverloadTracking)
{
  // Monitoring is observation only — it must not perturb the dynamics.
  // A dedicated 20 Hz monitor evaluates the overload state at a strict
  // superset of the 5 s sampler's instants, so it can only see a worse
  // (or equal) peak overload, never a smaller one.
  const EmulationReport sampled = [] {
    RoomEmulation emulation(ShortTimelineConfig(35));
    return emulation.Run();
  }();
  EmulationConfig config = ShortTimelineConfig(35);
  config.monitor_period = Seconds(0.05);
  RoomEmulation emulation(config);
  const EmulationReport monitored = emulation.Run();

  // Folded into the sampler: one monitor evaluation per sample.
  EXPECT_EQ(sampled.monitor_ticks, sampled.series.size());
  // Dedicated cadence: ~100x the evaluations over the same timeline.
  EXPECT_GT(monitored.monitor_ticks, sampled.monitor_ticks * 50);
  // The fine cadence tracks at least the peak the coarse sampler saw.
  // Not exactly: at coincident timestamps (every workload step lands on
  // a monitor tick) the evaluation order can straddle the step, and
  // corrective actions can land within the 50 ms to the next tick — so
  // allow a sliver below the sampled peak.
  EXPECT_GE(monitored.worst_overload_fraction,
            sampled.worst_overload_fraction - 1e-2);
  // Identical dynamics: the recorded series must not change at all.
  ASSERT_EQ(monitored.series.size(), sampled.series.size());
  for (std::size_t i = 0; i < monitored.series.size(); ++i) {
    EXPECT_EQ(monitored.series[i].total_rack_mw,
              sampled.series[i].total_rack_mw)
        << "sample " << i;
  }
  EXPECT_FALSE(monitored.safety_violated);
}

TEST(EmulationSweepTest, ParallelSweepIsBitIdenticalToSerial)
{
  // Variants fan out across pool lanes but merge serially in seed
  // order; the full-series fingerprint must not depend on the thread
  // count. Placement solves are truncated by a node budget instead of
  // wall clock (solve_seconds effectively infinite), so the placements
  // — and therefore the hashes — cannot depend on machine speed either.
  SweepConfig sweep;
  sweep.base = ShortTimelineConfig(2021);
  sweep.base.restore_at = Seconds(150.0);
  sweep.base.end_at = Seconds(180.0);
  sweep.base.placement_solve_seconds = 1e9;
  sweep.base.placement_max_nodes = 2000;
  sweep.variants = 2;
  sweep.threads = 1;
  const SweepResult serial = RunEmulationSweep(sweep);
  sweep.threads = 2;
  const SweepResult parallel = RunEmulationSweep(sweep);

  EXPECT_EQ(serial.lanes, 1);
  EXPECT_EQ(parallel.lanes, 2);
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  ASSERT_EQ(static_cast<int>(serial.reports.size()), sweep.variants);
  EXPECT_EQ(serial.sample_hash, parallel.sample_hash);
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(HashEmulationReport(serial.reports[i]),
              HashEmulationReport(parallel.reports[i]))
        << "variant " << i;
  }
  // Different seeds produce different traces; the hash is not a
  // constant.
  EXPECT_NE(HashEmulationReport(serial.reports[0]),
            HashEmulationReport(serial.reports[1]));
}

TEST(RoomEmulationTest, ValidatesTimeline)
{
  EmulationConfig config;
  config.failover_at = Minutes(20.0);
  config.restore_at = Minutes(10.0);
  EXPECT_THROW(RoomEmulation{config}, ConfigError);
  config = EmulationConfig{};
  config.failed_ups = 9;
  EXPECT_THROW(RoomEmulation{config}, ConfigError);
  config = EmulationConfig{};
  config.target_utilization = 0.0;
  EXPECT_THROW(RoomEmulation{config}, ConfigError);
}

}  // namespace
}  // namespace flex::emulation
