/**
 * @file
 * Highly available power telemetry pipeline (paper Section IV-C, Fig. 7).
 *
 * Wires logical meters (triple-redundant physical meters) through
 * redundant pollers and redundant pub/sub buses to subscribers (the Flex
 * controllers). Every stage can be failed independently; as long as one
 * poller, one bus, and a meter quorum survive, readings keep flowing —
 * there is no single point of failure.
 */
#ifndef FLEX_TELEMETRY_PIPELINE_HPP_
#define FLEX_TELEMETRY_PIPELINE_HPP_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/observability.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/meter.hpp"

namespace flex::telemetry {

/** What kind of power device a reading describes. */
enum class DeviceKind { kUps, kRack };

/** Identifies a monitored device. */
struct DeviceId {
  DeviceKind kind = DeviceKind::kUps;
  int index = 0;

  bool
  operator==(const DeviceId& other) const
  {
    return kind == other.kind && index == other.index;
  }
};

/** A delivered power reading. */
struct DeviceReading {
  DeviceId device;
  Watts value;
  Seconds sampled_at;    ///< when the meter was read
  Seconds delivered_at;  ///< when the subscriber received it
  int poller = -1;
  int bus = -1;

  /** End-to-end data latency for this reading. */
  Seconds DataLatency() const { return delivered_at - sampled_at; }
};

/** Supplies instantaneous ground-truth power for each device. */
class PowerSource {
 public:
  virtual ~PowerSource() = default;
  virtual Watts CurrentPower(DeviceId device) const = 0;

  /**
   * Fills @p out (pre-sized to the device count by the caller) with the
   * instantaneous power of every device of @p kind. The pipeline polls
   * through this batch entry point so sources that maintain aggregate
   * state (e.g. RoomEmulation's incremental per-UPS sums) answer a whole
   * tick in one call instead of one virtual call per device. The default
   * falls back to per-device CurrentPower().
   */
  virtual void
  CurrentPowerBatch(DeviceKind kind, std::vector<Watts>& out) const
  {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = CurrentPower(DeviceId{kind, static_cast<int>(i)});
  }
};

/** Configuration of the telemetry pipeline. */
struct PipelineConfig {
  int meters_per_device = 3;  ///< physical meters per logical meter
  int num_pollers = 2;        ///< independent pollers (separate fault domains)
  int num_buses = 2;          ///< independent pub/sub systems
  Seconds ups_poll_period = Seconds(1.5);   ///< paper: ~1.5 s UPS telemetry
  Seconds rack_poll_period = Seconds(2.0);  ///< paper: ~2 s rack telemetry
  /** Stagger between pollers so they do not sample in lockstep. */
  Seconds poller_stagger = Seconds(0.4);
  /** Meter-to-poller network latency. */
  Seconds network_latency = Milliseconds(60.0);
  /** Pub/sub delivery latency (poller to subscriber). */
  Seconds bus_latency = Milliseconds(250.0);
  /**
   * Uniform jitter added on top of each delivery (network queueing and
   * pub/sub batching variability; the paper's "windowing delay").
   */
  Seconds delivery_jitter = Milliseconds(400.0);
  MeterConfig meter;
  /** Optional instrumentation sink (null: not instrumented). */
  obs::Observability* obs = nullptr;
};

/**
 * The end-to-end telemetry pipeline, driven by a sim::EventQueue.
 */
class TelemetryPipeline {
 public:
  using Subscriber = std::function<void(const DeviceReading&)>;

  TelemetryPipeline(sim::EventQueue& queue, const PowerSource& source,
                    int num_ups, int num_racks, PipelineConfig config,
                    std::uint64_t seed);

  /** Registers a subscriber; all buses deliver to all subscribers. */
  void Subscribe(Subscriber subscriber);

  /**
   * Splits each rack poll tick into one batch per group (RoomEmulation
   * passes racks grouped by their PDU pair's primary UPS, so each batch
   * covers one electrical domain). The groups together must cover
   * [0, num_racks) exactly once; empty groups are dropped. All batches
   * of a tick share the same per-bus delivery delays, so the delivered
   * readings — values, order, and timestamps — are identical to the
   * single-batch path; only the event granularity changes: the queue
   * sees one delivery event per group per bus instead of one monolithic
   * room-sized event.
   */
  void SetRackPollGroups(std::vector<std::vector<int>> groups);

  /** Begins the periodic polling schedules. */
  void Start();

  /** Stops future polls (events already in flight still deliver). */
  void Stop();

  // --- Fault injection ----------------------------------------------------

  /** Fails/restores one physical meter of a device's logical meter. */
  void SetMeterFailed(DeviceId device, int meter_index, bool failed);
  /** Freezes/unfreezes one physical meter at its cached value. */
  void SetMeterStuck(DeviceId device, int meter_index, bool stuck);
  /** Starts a calibration drift on one physical meter (per-second rate). */
  void SetMeterDrift(DeviceId device, int meter_index,
                     double rate_per_second);
  /** Clears a meter drift started with SetMeterDrift. */
  void ClearMeterDrift(DeviceId device, int meter_index);
  /** Fails/restores a poller (it skips its ticks while failed). */
  void SetPollerFailed(int poller, bool failed);
  /** Fails/restores a pub/sub bus (it drops deliveries while failed). */
  void SetBusFailed(int bus, bool failed);
  /** Adds @p extra delivery delay on a bus (congestion); 0 clears it. */
  void SetBusLag(int bus, Seconds extra);
  /** Makes a bus deliver every batch twice (at-least-once redelivery). */
  void SetBusDuplicate(int bus, bool duplicate);

  // --- Introspection --------------------------------------------------------

  /** Count of readings delivered to subscribers so far. */
  std::size_t delivered_count() const { return delivered_count_; }

  /** Latency statistics over delivered readings. */
  const RunningStats& latency_stats() const { return latency_stats_; }

  /** Raw latency samples (seconds), for percentile reporting. */
  const std::vector<double>& latency_samples() const {
    return latency_samples_;
  }

  const PipelineConfig& config() const { return config_; }

  /**
   * Reading batches ever allocated. Steady-state polling recycles them
   * through a free list, so this stabilizes after the first few ticks —
   * asserted by the pipeline tests.
   */
  std::size_t batch_arena_size() const { return batch_arena_.size(); }

 private:
  /**
   * A reusable reading batch. Batches live in an arena owned by the
   * pipeline and cycle through a free list; `refs` counts scheduled bus
   * deliveries still holding the batch, and the last delivery returns it
   * to the free list. Steady-state polling therefore performs no
   * per-tick allocations once the arena and scratch buffers are warm.
   */
  struct Batch {
    std::vector<DeviceReading> readings;
    int refs = 0;
  };

  LogicalMeter& MeterFor(DeviceId device);

  /** One poller samples every device of @p kind and publishes. */
  void PollerTick(int poller, DeviceKind kind);

  /** Pops a batch from the free list (or grows the arena). */
  Batch* AcquireBatch();
  /** Delivers @p batch on @p bus and releases it when refs hits zero. */
  void DeliverBatch(Batch* batch, int bus);

  sim::EventQueue& queue_;
  const PowerSource& source_;
  PipelineConfig config_;
  int num_ups_;
  int num_racks_;
  bool running_ = false;

  Rng jitter_rng_{0};
  std::vector<LogicalMeter> ups_meters_;
  std::vector<LogicalMeter> rack_meters_;
  std::vector<bool> poller_failed_;
  std::vector<bool> bus_failed_;
  std::vector<Seconds> bus_extra_delay_;
  std::vector<bool> bus_duplicate_;
  std::vector<Subscriber> subscribers_;
  // Rack poll batches: each inner vector is one batch of rack ids per
  // tick. Empty: a single batch in rack-id order.
  std::vector<std::vector<int>> rack_poll_groups_;

  // Steady-state scratch: the arena recycles reading batches across
  // ticks; truth_scratch_ holds one tick's ground-truth powers, and the
  // bus scratch vectors hold the tick's shared per-bus delivery delays.
  std::vector<std::unique_ptr<Batch>> batch_arena_;
  std::vector<Batch*> batch_free_;
  std::vector<Watts> truth_scratch_;
  std::vector<Seconds> bus_delay_scratch_;
  std::vector<Seconds> bus_redelivery_scratch_;

  std::size_t delivered_count_ = 0;
  RunningStats latency_stats_;
  std::vector<double> latency_samples_;

  // Cached metric objects (registry lookups stay off the hot path).
  obs::Counter* readings_delivered_metric_ = nullptr;
  obs::Counter* no_quorum_metric_ = nullptr;
  obs::Counter* poller_skipped_metric_ = nullptr;
  obs::Histogram* publish_lag_metric_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace flex::telemetry

#endif  // FLEX_TELEMETRY_PIPELINE_HPP_
