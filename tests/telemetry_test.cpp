/**
 * @file
 * Unit tests for the telemetry substrate: meters, consensus, pipeline.
 */
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/meter.hpp"
#include "telemetry/pipeline.hpp"

namespace flex::telemetry {
namespace {

TEST(PhysicalMeterTest, ReadsTrackTruthWithinNoise)
{
  MeterConfig config;
  config.noise_fraction = 0.01;
  config.refresh_interval = Seconds(0.0);
  PhysicalMeter meter(config, Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto reading = meter.Sample(Seconds(i), KiloWatts(100.0));
    ASSERT_TRUE(reading.has_value());
    EXPECT_NEAR(reading->kilowatts(), 100.0, 5.0);
  }
}

TEST(PhysicalMeterTest, StuckReadingsRepeatWithinRefreshInterval)
{
  MeterConfig config;
  config.refresh_interval = Seconds(5.0);  // the paper's legacy UPS meters
  PhysicalMeter meter(config, Rng(2));
  const auto first = meter.Sample(Seconds(0.0), KiloWatts(100.0));
  // Truth changes, but polls inside the window return the cached value.
  const auto second = meter.Sample(Seconds(2.0), KiloWatts(500.0));
  const auto third = meter.Sample(Seconds(4.9), KiloWatts(900.0));
  ASSERT_TRUE(first && second && third);
  EXPECT_DOUBLE_EQ(first->value(), second->value());
  EXPECT_DOUBLE_EQ(first->value(), third->value());
  // After the window the meter refreshes.
  const auto fourth = meter.Sample(Seconds(5.1), KiloWatts(900.0));
  ASSERT_TRUE(fourth);
  EXPECT_NEAR(fourth->kilowatts(), 900.0, 50.0);
}

TEST(PhysicalMeterTest, FailedMeterReturnsNothing)
{
  PhysicalMeter meter(MeterConfig{}, Rng(3));
  meter.SetFailed(true);
  EXPECT_FALSE(meter.Sample(Seconds(0.0), KiloWatts(10.0)).has_value());
  meter.SetFailed(false);
  EXPECT_TRUE(meter.Sample(Seconds(1.0), KiloWatts(10.0)).has_value());
}

TEST(PhysicalMeterTest, RejectsBadConfig)
{
  MeterConfig bad;
  bad.noise_fraction = -0.1;
  EXPECT_THROW(PhysicalMeter(bad, Rng(4)), ConfigError);
  bad = MeterConfig{};
  bad.misread_probability = 1.5;
  EXPECT_THROW(PhysicalMeter(bad, Rng(4)), ConfigError);
}

TEST(LogicalMeterTest, MedianMasksOneMisreadingMeter)
{
  MeterConfig config;
  config.noise_fraction = 0.001;
  config.refresh_interval = Seconds(0.0);
  config.misread_probability = 0.0;
  Rng rng(5);
  LogicalMeter logical(3, config, rng);
  // Make one meter grossly misread by failing it and checking consensus
  // still works, then observe median behaviour with all three healthy.
  const auto healthy = logical.Read(Seconds(0.0), KiloWatts(100.0));
  ASSERT_TRUE(healthy);
  EXPECT_NEAR(healthy->kilowatts(), 100.0, 2.0);
}

TEST(LogicalMeterTest, MisreadingsAreFilteredByMedian)
{
  // One of three meters misreads on every refresh: the median must stay
  // near truth anyway.
  MeterConfig config;
  config.noise_fraction = 0.001;
  config.refresh_interval = Seconds(0.0);
  Rng rng(6);
  LogicalMeter logical(3, config, rng);
  logical.meter(0).SetFailed(false);
  // Rebuild meter 0 as a chronically misreading meter is not directly
  // supported; instead verify the end-to-end property statistically with
  // a per-read misread probability on all meters. P(two simultaneous
  // misreads) = 3 * 0.1^2 ~ 3%, so the vast majority of reads are good.
  MeterConfig flaky = config;
  flaky.misread_probability = 0.1;
  Rng rng2(7);
  LogicalMeter flaky_logical(3, flaky, rng2);
  int good = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const auto reading =
        flaky_logical.Read(Seconds(static_cast<double>(i)), KiloWatts(100.0));
    ASSERT_TRUE(reading);
    if (std::abs(reading->kilowatts() - 100.0) < 10.0)
      ++good;
  }
  EXPECT_GT(good, trials * 9 / 10);
}

TEST(LogicalMeterTest, ToleratesOneFailedMeter)
{
  Rng rng(8);
  LogicalMeter logical(3, MeterConfig{}, rng);
  logical.meter(1).SetFailed(true);
  const auto reading = logical.Read(Seconds(0.0), KiloWatts(100.0));
  ASSERT_TRUE(reading);
  EXPECT_NEAR(reading->kilowatts(), 100.0, 5.0);
}

TEST(LogicalMeterTest, LosesQuorumWithTwoFailedMeters)
{
  Rng rng(9);
  LogicalMeter logical(3, MeterConfig{}, rng);
  logical.meter(0).SetFailed(true);
  logical.meter(2).SetFailed(true);
  EXPECT_FALSE(logical.Read(Seconds(0.0), KiloWatts(100.0)).has_value());
}

class PipelineTest : public ::testing::Test, public PowerSource {
 protected:
  PipelineTest()
  {
    config_.meter.refresh_interval = Seconds(0.5);
  }

  Watts
  CurrentPower(DeviceId device) const override
  {
    return device.kind == DeviceKind::kUps ? KiloWatts(1000.0)
                                           : KiloWatts(10.0 + device.index);
  }

  sim::EventQueue queue_;
  PipelineConfig config_;
};

TEST_F(PipelineTest, DeliversReadingsToSubscribers)
{
  TelemetryPipeline pipeline(queue_, *this, 4, 8, config_, 1);
  int ups_readings = 0;
  int rack_readings = 0;
  pipeline.Subscribe([&](const DeviceReading& r) {
    if (r.device.kind == DeviceKind::kUps)
      ++ups_readings;
    else
      ++rack_readings;
    EXPECT_GE(r.DataLatency().value(), 0.0);
  });
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_GT(ups_readings, 0);
  EXPECT_GT(rack_readings, 0);
  EXPECT_GT(pipeline.delivered_count(), 0u);
}

TEST_F(PipelineTest, DataLatencyIsUnderOneSecond)
{
  // The paper's observed pipeline latency is < 1 s.
  TelemetryPipeline pipeline(queue_, *this, 4, 16, config_, 2);
  pipeline.Subscribe([](const DeviceReading&) {});
  pipeline.Start();
  queue_.RunUntil(Seconds(30.0));
  ASSERT_GT(pipeline.latency_stats().count(), 0u);
  EXPECT_LT(pipeline.latency_stats().max(), 1.0);
}

TEST_F(PipelineTest, SurvivesSinglePollerFailure)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 3);
  std::size_t readings = 0;
  pipeline.Subscribe([&](const DeviceReading&) { ++readings; });
  pipeline.Start();
  pipeline.SetPollerFailed(0, true);
  queue_.RunUntil(Seconds(10.0));
  EXPECT_GT(readings, 0u);
  // Every reading came through poller 1.
}

TEST_F(PipelineTest, SurvivesSingleBusFailure)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 4);
  std::size_t readings = 0;
  pipeline.Subscribe([&](const DeviceReading& r) {
    ++readings;
    EXPECT_EQ(r.bus, 1);  // bus 0 is down
  });
  pipeline.SetBusFailed(0, true);
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_GT(readings, 0u);
}

TEST_F(PipelineTest, AllPollersDownStopsDelivery)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 5);
  std::size_t readings = 0;
  pipeline.Subscribe([&](const DeviceReading&) { ++readings; });
  pipeline.SetPollerFailed(0, true);
  pipeline.SetPollerFailed(1, true);
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_EQ(readings, 0u);
}

TEST_F(PipelineTest, MeterFailureDropsOnlyThatDevice)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 6);
  std::size_t ups0 = 0;
  std::size_t ups1 = 0;
  pipeline.Subscribe([&](const DeviceReading& r) {
    if (r.device.kind != DeviceKind::kUps)
      return;
    if (r.device.index == 0)
      ++ups0;
    else
      ++ups1;
  });
  // Take out two of UPS 0's three meters: quorum lost for UPS 0 only.
  pipeline.SetMeterFailed(DeviceId{DeviceKind::kUps, 0}, 0, true);
  pipeline.SetMeterFailed(DeviceId{DeviceKind::kUps, 0}, 1, true);
  pipeline.Start();
  queue_.RunUntil(Seconds(10.0));
  EXPECT_EQ(ups0, 0u);
  EXPECT_GT(ups1, 0u);
}

TEST_F(PipelineTest, RedundantDeliveryProducesDuplicates)
{
  // 2 pollers x 2 buses = up to 4 copies of each device sample window.
  TelemetryPipeline pipeline(queue_, *this, 1, 0, config_, 7);
  std::size_t readings = 0;
  pipeline.Subscribe([&](const DeviceReading&) { ++readings; });
  pipeline.Start();
  queue_.RunUntil(Seconds(config_.ups_poll_period.value() * 4));
  // More readings than polling rounds of a single poller/bus pair.
  EXPECT_GT(readings, 4u);
}

TEST_F(PipelineTest, StopHaltsPolling)
{
  TelemetryPipeline pipeline(queue_, *this, 2, 2, config_, 8);
  pipeline.Subscribe([](const DeviceReading&) {});
  pipeline.Start();
  queue_.RunUntil(Seconds(5.0));
  const std::size_t at_stop = pipeline.delivered_count();
  EXPECT_GT(at_stop, 0u);
  pipeline.Stop();
  queue_.RunUntil(Seconds(30.0));
  // In-flight deliveries may land, but no new polls happen.
  EXPECT_LE(pipeline.delivered_count(), at_stop + 64);
}

TEST_F(PipelineTest, RejectsBadConfig)
{
  PipelineConfig bad = config_;
  bad.num_pollers = 0;
  EXPECT_THROW(TelemetryPipeline(queue_, *this, 1, 1, bad, 9), ConfigError);
  bad = config_;
  bad.ups_poll_period = Seconds(0.0);
  EXPECT_THROW(TelemetryPipeline(queue_, *this, 1, 1, bad, 9), ConfigError);
}

TEST_F(PipelineTest, RackPollGroupsMustCoverEveryRackExactlyOnce)
{
  TelemetryPipeline pipeline(queue_, *this, 1, 6, config_, 10);
  // Out-of-range rack id.
  EXPECT_THROW(pipeline.SetRackPollGroups({{0, 1, 2}, {3, 4, 6}}),
               ConfigError);
  // Duplicate rack.
  EXPECT_THROW(pipeline.SetRackPollGroups({{0, 1, 2}, {2, 3, 4, 5}}),
               ConfigError);
  // Missing rack.
  EXPECT_THROW(pipeline.SetRackPollGroups({{0, 1, 2}, {3, 4}}), ConfigError);
  // Exact cover in any order, with empty groups dropped, is fine.
  EXPECT_NO_THROW(pipeline.SetRackPollGroups({{5, 0}, {}, {2, 4}, {1, 3}}));
  EXPECT_NO_THROW(pipeline.SetRackPollGroups({{3, 1, 4, 0, 5, 2}}));
}

TEST_F(PipelineTest, GroupedPollingDeliversIdenticalReadings)
{
  // Splitting a rack tick into per-group batches must not change the
  // delivered readings in any way — same values, same timestamps, same
  // order — because all of a tick's batches share the per-bus delivery
  // delays. Only the event-queue granularity differs.
  struct Delivered {
    double now;
    int index;
    double value;
    double sampled_at;
    int poller;
    int bus;
  };
  const auto run = [this](const std::vector<std::vector<int>>* groups) {
    sim::EventQueue queue;
    TelemetryPipeline pipeline(queue, *this, 2, 8, config_, 11);
    if (groups != nullptr)
      pipeline.SetRackPollGroups(*groups);
    std::vector<Delivered> log;
    pipeline.Subscribe([&](const DeviceReading& r) {
      if (r.device.kind != DeviceKind::kRack)
        return;
      log.push_back({queue.Now().value(), r.device.index, r.value.value(),
                     r.sampled_at.value(), r.poller, r.bus});
    });
    pipeline.Start();
    queue.RunUntil(Seconds(20.0));
    return log;
  };

  const std::vector<Delivered> single = run(nullptr);
  const std::vector<std::vector<int>> groups = {{0, 1, 2}, {3}, {4, 5, 6, 7}};
  const std::vector<Delivered> grouped = run(&groups);

  ASSERT_GT(single.size(), 0u);
  ASSERT_EQ(single.size(), grouped.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].now, grouped[i].now) << "reading " << i;
    EXPECT_EQ(single[i].index, grouped[i].index) << "reading " << i;
    EXPECT_EQ(single[i].value, grouped[i].value) << "reading " << i;
    EXPECT_EQ(single[i].sampled_at, grouped[i].sampled_at) << "reading " << i;
    EXPECT_EQ(single[i].poller, grouped[i].poller) << "reading " << i;
    EXPECT_EQ(single[i].bus, grouped[i].bus) << "reading " << i;
  }
}

TEST_F(PipelineTest, SteadyStatePollingReusesReadingBatches)
{
  TelemetryPipeline pipeline(queue_, *this, 4, 32, config_, 12);
  pipeline.SetRackPollGroups({{0, 1, 2, 3, 4, 5, 6, 7},
                              {8, 9, 10, 11, 12, 13, 14, 15},
                              {16, 17, 18, 19, 20, 21, 22, 23},
                              {24, 25, 26, 27, 28, 29, 30, 31}});
  pipeline.Subscribe([](const DeviceReading&) {});
  pipeline.Start();
  // Warm up the batch arena, then verify the free list recycles batches
  // for the rest of the run: the arena must track the in-flight
  // high-water mark (a rare phase alignment can add one or two), not
  // grow with the number of ticks.
  queue_.RunUntil(Seconds(30.0));
  const std::size_t warm = pipeline.batch_arena_size();
  ASSERT_GT(warm, 0u);
  const std::size_t delivered_warm = pipeline.delivered_count();
  queue_.RunUntil(Seconds(600.0));
  EXPECT_LE(pipeline.batch_arena_size(), warm + 2);
  // ~1900 further batch publications got recycled through the arena.
  EXPECT_GT(pipeline.delivered_count(), delivered_warm * 10);
}

}  // namespace
}  // namespace flex::telemetry
