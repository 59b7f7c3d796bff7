#include "pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace flex::telemetry {

TelemetryPipeline::TelemetryPipeline(sim::EventQueue& queue,
                                     const PowerSource& source, int num_ups,
                                     int num_racks, PipelineConfig config,
                                     std::uint64_t seed)
    : queue_(queue),
      source_(source),
      config_(config),
      num_ups_(num_ups),
      num_racks_(num_racks)
{
  FLEX_REQUIRE(num_ups_ >= 0 && num_racks_ >= 0, "negative device count");
  FLEX_REQUIRE(config_.num_pollers >= 1, "need at least one poller");
  FLEX_REQUIRE(config_.num_buses >= 1, "need at least one bus");
  FLEX_REQUIRE(config_.meters_per_device >= 1, "need at least one meter");
  FLEX_REQUIRE(config_.ups_poll_period.value() > 0.0 &&
                   config_.rack_poll_period.value() > 0.0,
               "poll periods must be positive");

  Rng seed_rng(seed);
  jitter_rng_ = seed_rng.Fork();
  ups_meters_.reserve(static_cast<std::size_t>(num_ups_));
  for (int i = 0; i < num_ups_; ++i)
    ups_meters_.emplace_back(config_.meters_per_device, config_.meter,
                             seed_rng);
  rack_meters_.reserve(static_cast<std::size_t>(num_racks_));
  for (int i = 0; i < num_racks_; ++i)
    rack_meters_.emplace_back(config_.meters_per_device, config_.meter,
                              seed_rng);
  poller_failed_.assign(static_cast<std::size_t>(config_.num_pollers), false);
  bus_failed_.assign(static_cast<std::size_t>(config_.num_buses), false);
  bus_extra_delay_.assign(static_cast<std::size_t>(config_.num_buses),
                          Seconds(0.0));
  bus_duplicate_.assign(static_cast<std::size_t>(config_.num_buses), false);

  if (config_.obs != nullptr) {
    obs::MetricsRegistry& metrics = config_.obs->metrics();
    readings_delivered_metric_ = &metrics.counter("pipeline.readings_delivered");
    no_quorum_metric_ = &metrics.counter("pipeline.meter_no_quorum");
    poller_skipped_metric_ = &metrics.counter("pipeline.poller_skipped_ticks");
    publish_lag_metric_ = &metrics.histogram("pipeline.publish_lag_s");
    recorder_ = &config_.obs->recorder();
  }
}

void
TelemetryPipeline::Subscribe(Subscriber subscriber)
{
  FLEX_REQUIRE(static_cast<bool>(subscriber), "null subscriber");
  subscribers_.push_back(std::move(subscriber));
}

void
TelemetryPipeline::SetRackPollGroups(std::vector<std::vector<int>> groups)
{
  std::size_t covered = 0;
  std::vector<char> seen(static_cast<std::size_t>(num_racks_), 0);
  for (const std::vector<int>& group : groups) {
    for (const int rack : group) {
      FLEX_REQUIRE(rack >= 0 && rack < num_racks_, "rack index out of range");
      FLEX_REQUIRE(!seen[static_cast<std::size_t>(rack)],
                   "duplicate rack in poll groups");
      seen[static_cast<std::size_t>(rack)] = 1;
      ++covered;
    }
  }
  FLEX_REQUIRE(covered == static_cast<std::size_t>(num_racks_),
               "poll groups must cover every rack exactly once");
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const std::vector<int>& g) {
                                return g.empty();
                              }),
               groups.end());
  rack_poll_groups_ = std::move(groups);
}

void
TelemetryPipeline::Start()
{
  FLEX_REQUIRE(!running_, "pipeline already started");
  running_ = true;
  for (int poller = 0; poller < config_.num_pollers; ++poller) {
    const Seconds stagger = config_.poller_stagger * static_cast<double>(poller);
    // UPS schedule.
    queue_.Schedule(stagger, [this, poller] {
      if (!running_)
        return;
      PollerTick(poller, DeviceKind::kUps);
      sim::SchedulePeriodic(queue_, config_.ups_poll_period, [this, poller] {
        if (!running_)
          return false;
        PollerTick(poller, DeviceKind::kUps);
        return true;
      });
    });
    // Rack schedule.
    queue_.Schedule(stagger, [this, poller] {
      if (!running_)
        return;
      PollerTick(poller, DeviceKind::kRack);
      sim::SchedulePeriodic(queue_, config_.rack_poll_period, [this, poller] {
        if (!running_)
          return false;
        PollerTick(poller, DeviceKind::kRack);
        return true;
      });
    });
  }
}

void
TelemetryPipeline::Stop()
{
  running_ = false;
}

LogicalMeter&
TelemetryPipeline::MeterFor(DeviceId device)
{
  if (device.kind == DeviceKind::kUps) {
    FLEX_REQUIRE(device.index >= 0 && device.index < num_ups_,
                 "UPS index out of range");
    return ups_meters_[static_cast<std::size_t>(device.index)];
  }
  FLEX_REQUIRE(device.index >= 0 && device.index < num_racks_,
               "rack index out of range");
  return rack_meters_[static_cast<std::size_t>(device.index)];
}

void
TelemetryPipeline::SetMeterFailed(DeviceId device, int meter_index,
                                  bool failed)
{
  MeterFor(device).meter(meter_index).SetFailed(failed);
}

void
TelemetryPipeline::SetMeterStuck(DeviceId device, int meter_index,
                                 bool stuck)
{
  MeterFor(device).meter(meter_index).SetStuck(stuck);
}

void
TelemetryPipeline::SetMeterDrift(DeviceId device, int meter_index,
                                 double rate_per_second)
{
  MeterFor(device).meter(meter_index).SetDrift(rate_per_second, queue_.Now());
}

void
TelemetryPipeline::ClearMeterDrift(DeviceId device, int meter_index)
{
  MeterFor(device).meter(meter_index).ClearDrift();
}

void
TelemetryPipeline::SetPollerFailed(int poller, bool failed)
{
  FLEX_REQUIRE(poller >= 0 && poller < config_.num_pollers,
               "poller index out of range");
  poller_failed_[static_cast<std::size_t>(poller)] = failed;
}

void
TelemetryPipeline::SetBusFailed(int bus, bool failed)
{
  FLEX_REQUIRE(bus >= 0 && bus < config_.num_buses, "bus index out of range");
  bus_failed_[static_cast<std::size_t>(bus)] = failed;
}

void
TelemetryPipeline::SetBusLag(int bus, Seconds extra)
{
  FLEX_REQUIRE(bus >= 0 && bus < config_.num_buses, "bus index out of range");
  FLEX_REQUIRE(extra.value() >= 0.0, "negative bus lag");
  bus_extra_delay_[static_cast<std::size_t>(bus)] = extra;
}

void
TelemetryPipeline::SetBusDuplicate(int bus, bool duplicate)
{
  FLEX_REQUIRE(bus >= 0 && bus < config_.num_buses, "bus index out of range");
  bus_duplicate_[static_cast<std::size_t>(bus)] = duplicate;
}

TelemetryPipeline::Batch*
TelemetryPipeline::AcquireBatch()
{
  if (batch_free_.empty()) {
    batch_arena_.push_back(std::make_unique<Batch>());
    batch_free_.push_back(batch_arena_.back().get());
  }
  Batch* batch = batch_free_.back();
  batch_free_.pop_back();
  batch->readings.clear();
  batch->refs = 0;
  return batch;
}

void
TelemetryPipeline::DeliverBatch(Batch* batch, int bus)
{
  for (const DeviceReading& original : batch->readings) {
    DeviceReading reading = original;
    reading.bus = bus;
    reading.delivered_at = queue_.Now();
    ++delivered_count_;
    const double latency = reading.DataLatency().value();
    latency_stats_.Add(latency);
    latency_samples_.push_back(latency);
    if (readings_delivered_metric_ != nullptr) {
      readings_delivered_metric_->Increment();
      publish_lag_metric_->Observe(latency);
    }
    // UPS deliveries only: rack readings arrive every tick per rack
    // and would flush the ring's useful window in seconds.
    if (recorder_ != nullptr && reading.device.kind == DeviceKind::kUps)
      recorder_->Record(reading.delivered_at, obs::RecordKind::kMeterSample,
                        reading.device.index, bus, reading.value.value());
    for (const Subscriber& subscriber : subscribers_)
      subscriber(reading);
  }
  if (--batch->refs == 0)
    batch_free_.push_back(batch);
}

void
TelemetryPipeline::PollerTick(int poller, DeviceKind kind)
{
  if (poller_failed_[static_cast<std::size_t>(poller)]) {
    if (poller_skipped_metric_ != nullptr)
      poller_skipped_metric_->Increment();
    return;
  }

  const int count = kind == DeviceKind::kUps ? num_ups_ : num_racks_;
  // Sampling happens after the meter-to-poller network hop. Ground truth
  // for the whole tick comes from one batch call: sources with aggregate
  // state answer it without a per-device scan.
  const Seconds sampled_at = queue_.Now();
  truth_scratch_.assign(static_cast<std::size_t>(count), Watts(0.0));
  source_.CurrentPowerBatch(kind, truth_scratch_);

  // Every batch published this tick shares the same per-bus delivery
  // delays, drawn up front (one jitter draw per live bus, plus the
  // redelivery draw on duplicating buses — the same draws the
  // single-batch path makes). Splitting the poll into per-group batches
  // therefore changes neither the jitter stream nor any delivered
  // reading's value, order, or timestamp.
  bus_delay_scratch_.assign(static_cast<std::size_t>(config_.num_buses),
                            Seconds(0.0));
  bus_redelivery_scratch_.assign(static_cast<std::size_t>(config_.num_buses),
                                 Seconds(0.0));
  for (int bus = 0; bus < config_.num_buses; ++bus) {
    if (bus_failed_[static_cast<std::size_t>(bus)])
      continue;
    const Seconds delay =
        config_.network_latency + config_.bus_latency +
        bus_extra_delay_[static_cast<std::size_t>(bus)] +
        Seconds(jitter_rng_.Uniform(0.0, config_.delivery_jitter.value()));
    bus_delay_scratch_[static_cast<std::size_t>(bus)] = delay;
    if (bus_duplicate_[static_cast<std::size_t>(bus)]) {
      bus_redelivery_scratch_[static_cast<std::size_t>(bus)] =
          delay +
          Seconds(jitter_rng_.Uniform(0.0, config_.delivery_jitter.value()));
    }
  }

  // Reads every device in @p ids into @p batch (quorum permitting).
  const auto read_into = [&](const int i, Batch* batch) {
    const DeviceId device{kind, i};
    const Watts truth = truth_scratch_[static_cast<std::size_t>(i)];
    const auto reading = MeterFor(device).Read(sampled_at, truth);
    if (!reading) {
      // No quorum: data missing for this device this tick.
      if (no_quorum_metric_ != nullptr)
        no_quorum_metric_->Increment();
      FLEX_LOG_RATE_LIMITED(obs::LogLevel::kWarn, "telemetry",
                            "meter quorum lost on %s %d",
                            kind == DeviceKind::kUps ? "ups" : "rack", i);
      return;
    }
    DeviceReading r;
    r.device = device;
    r.value = *reading;
    r.sampled_at = sampled_at;
    r.poller = poller;
    batch->readings.push_back(r);
  };

  // Publishes through every live bus; subscribers see duplicates, which
  // is intended (redundant delivery; controller actions are idempotent).
  // Deliveries share the pooled batch; the refcount returns it to the
  // free list after the last one lands.
  const auto publish = [&](Batch* batch) {
    if (batch->readings.empty()) {
      batch_free_.push_back(batch);
      return;
    }
    for (int bus = 0; bus < config_.num_buses; ++bus) {
      if (bus_failed_[static_cast<std::size_t>(bus)])
        continue;
      const auto deliver = [this, batch, bus] { DeliverBatch(batch, bus); };
      ++batch->refs;
      queue_.Schedule(bus_delay_scratch_[static_cast<std::size_t>(bus)],
                      deliver);
      if (bus_duplicate_[static_cast<std::size_t>(bus)]) {
        // At-least-once redelivery: the same batch lands a second time.
        ++batch->refs;
        queue_.Schedule(
            bus_redelivery_scratch_[static_cast<std::size_t>(bus)], deliver);
      }
    }
    if (batch->refs == 0)
      batch_free_.push_back(batch);  // every bus was down: nothing in flight
  };

  if (kind == DeviceKind::kRack && !rack_poll_groups_.empty()) {
    // One batch — one delivery event per bus — per poll group.
    for (const std::vector<int>& group : rack_poll_groups_) {
      Batch* batch = AcquireBatch();
      batch->readings.reserve(group.size());
      for (const int i : group)
        read_into(i, batch);
      publish(batch);
    }
    return;
  }
  Batch* batch = AcquireBatch();
  batch->readings.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    read_into(i, batch);
  publish(batch);
}

}  // namespace flex::telemetry
