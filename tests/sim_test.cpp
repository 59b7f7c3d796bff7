/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace flex::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Seconds(3.0), [&] { order.push_back(3); });
  q.Schedule(Seconds(1.0), [&] { order.push_back(1); });
  q.Schedule(Seconds(2.0), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(q.Now().value(), 3.0, 1e-12);
}

TEST(EventQueueTest, EqualTimestampsFireFifo)
{
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.Schedule(Seconds(1.0), [&order, i] { order.push_back(i); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtHorizon)
{
  EventQueue q;
  int fired = 0;
  q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Schedule(Seconds(5.0), [&] { ++fired; });
  const std::size_t executed = q.RunUntil(Seconds(2.0));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(q.Now().value(), 2.0, 1e-12);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(Seconds(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, TimeAdvancesToHorizonEvenWhenIdle)
{
  EventQueue q;
  q.RunUntil(Seconds(42.0));
  EXPECT_NEAR(q.Now().value(), 42.0, 1e-12);
}

TEST(EventQueueTest, NextEventTimeTracksEarliestPendingAcrossBackends)
{
  EventQueue q;
  EXPECT_TRUE(std::isinf(q.NextEventTime().value()));
  // Far event lands in the overflow heap, near event in the calendar
  // wheel; NextEventTime must report the minimum across both.
  q.Schedule(Seconds(5000.0), [] {});
  EXPECT_NEAR(q.NextEventTime().value(), 5000.0, 1e-12);
  const EventId near = q.Schedule(Seconds(1.0), [] {});
  EXPECT_NEAR(q.NextEventTime().value(), 1.0, 1e-12);
  q.Cancel(near);
  EXPECT_NEAR(q.NextEventTime().value(), 5000.0, 1e-12);
  q.RunAll();
  EXPECT_TRUE(std::isinf(q.NextEventTime().value()));
}

TEST(EventQueueTest, RunUntilTilesExactly)
{
  // The fleet engine drives each room in fixed epochs; a tiled drive
  // RunUntil(t1); RunUntil(t2) must be indistinguishable from one
  // RunUntil(t2), including events landing exactly on a tile boundary.
  std::vector<double> tiled;
  std::vector<double> whole;
  const auto load = [](EventQueue& q, std::vector<double>& out) {
    for (double t : {0.5, 2.0, 2.5, 3.999, 4.0, 7.25})
      q.ScheduleAt(Seconds(t), [&out, &q] { out.push_back(q.Now().value()); });
  };
  EventQueue a;
  load(a, tiled);
  std::size_t tiled_count = 0;
  for (double h = 2.0; h <= 8.0; h += 2.0)
    tiled_count += a.RunUntil(Seconds(h));
  EventQueue b;
  load(b, whole);
  const std::size_t whole_count = b.RunUntil(Seconds(8.0));
  EXPECT_EQ(tiled_count, whole_count);
  EXPECT_EQ(tiled, whole);
  EXPECT_NEAR(a.Now().value(), b.Now().value(), 1e-12);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Schedule(Seconds(2.0), [&] { ++fired; });
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelIsIdempotentAndToleratesBadIds)
{
  EventQueue q;
  const EventId id = q.Schedule(Seconds(1.0), [] {});
  q.Cancel(id);
  q.Cancel(id);
  q.Cancel(0);
  q.Cancel(9999);
  EXPECT_NO_THROW(q.RunAll());
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
  EventQueue q;
  std::vector<double> times;
  q.Schedule(Seconds(1.0), [&] {
    times.push_back(q.Now().value());
    q.Schedule(Seconds(1.0), [&] { times.push_back(q.Now().value()); });
  });
  q.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 1.0, 1e-12);
  EXPECT_NEAR(times[1], 2.0, 1e-12);
}

TEST(EventQueueTest, ScheduleAtAbsoluteTime)
{
  EventQueue q;
  q.RunUntil(Seconds(5.0));
  double fired_at = -1.0;
  q.ScheduleAt(Seconds(8.0), [&] { fired_at = q.Now().value(); });
  EXPECT_THROW(q.ScheduleAt(Seconds(3.0), [] {}), ConfigError);
  q.RunAll();
  EXPECT_NEAR(fired_at, 8.0, 1e-12);
}

TEST(EventQueueTest, RejectsNegativeDelay)
{
  EventQueue q;
  EXPECT_THROW(q.Schedule(Seconds(-1.0), [] {}), ConfigError);
}

TEST(EventQueueTest, StepRunsExactlyOneEvent)
{
  EventQueue q;
  int fired = 0;
  q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Schedule(Seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PeriodicTicksUntilCallbackReturnsFalse)
{
  EventQueue q;
  int ticks = 0;
  SchedulePeriodic(q, Seconds(1.5), [&] {
    ++ticks;
    return ticks < 4;
  });
  q.RunUntil(Seconds(100.0));
  EXPECT_EQ(ticks, 4);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PeriodicTickSpacingMatchesPeriod)
{
  EventQueue q;
  std::vector<double> times;
  SchedulePeriodic(q, Seconds(2.0), [&] {
    times.push_back(q.Now().value());
    return times.size() < 3;
  });
  q.RunAll();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 2.0, 1e-12);
  EXPECT_NEAR(times[1], 4.0, 1e-12);
  EXPECT_NEAR(times[2], 6.0, 1e-12);
}

TEST(EventQueueTest, PendingCountTracksLiveEvents)
{
  EventQueue q;
  const EventId a = q.Schedule(Seconds(1.0), [] {});
  q.Schedule(Seconds(2.0), [] {});
  EXPECT_EQ(q.PendingCount(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunAll();
  EXPECT_EQ(q.PendingCount(), 0u);
  EXPECT_TRUE(q.Empty());
}

// ---------------------------------------------------------------------------
// Regressions: lazy cancellation under churn must not disturb the FIFO
// guarantee for equal timestamps, and cancelled entries must never leak
// into execution or the executed-event count.
// ---------------------------------------------------------------------------

TEST(EventQueueTest, FifoOrderSurvivesHeavyCancelChurn)
{
  // Interleave live and doomed events at the same timestamp, cancel
  // every other one, and verify the survivors still fire in exact
  // insertion order. Lazy cancellation leaves tombstones in the heap;
  // popping them must not reorder equal-time survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      const int label = round * 100 + i;
      const EventId id =
          q.Schedule(Seconds(1.0), [&order, label] { order.push_back(label); });
      if (i % 2 == 1)
        doomed.push_back(id);
    }
  }
  for (const EventId id : doomed)
    q.Cancel(id);
  q.RunAll();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]) << "FIFO order broken at " << i;
  EXPECT_EQ(q.executed_count(), 100u);
}

TEST(EventQueueTest, CancellingAllEqualTimeEventsLeavesQueueClean)
{
  EventQueue q;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i)
    ids.push_back(q.Schedule(Seconds(2.0), [&] { ++fired; }));
  for (const EventId id : ids)
    q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), 0u);
  q.RunUntil(Seconds(5.0));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.executed_count(), 0u);
  EXPECT_TRUE(q.Empty());
  EXPECT_NEAR(q.Now().value(), 5.0, 1e-12);
}

TEST(EventQueueTest, CancelDuringExecutionSuppressesLaterEqualTimeEvent)
{
  // An event may cancel a sibling scheduled for the same instant that
  // has not yet run; the sibling must then be skipped even though it is
  // already at the top of the heap region being drained.
  EventQueue q;
  std::vector<int> order;
  EventId second = 0;
  q.Schedule(Seconds(1.0), [&] {
    order.push_back(1);
    q.Cancel(second);
  });
  second = q.Schedule(Seconds(1.0), [&] { order.push_back(2); });
  q.Schedule(Seconds(1.0), [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, ChurnedPeriodicRescheduleKeepsDeterministicOrder)
{
  // Cancel-and-reschedule loops (the pattern telemetry pollers use)
  // must produce the same trace every run: two identical queues driven
  // identically yield identical event sequences.
  const auto drive = [] {
    EventQueue q;
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> pending;
    for (int i = 0; i < 8; ++i) {
      const EventId id = q.Schedule(Seconds(1.0 + 0.5 * i), [&trace, &q, i] {
        trace.push_back({q.Now().value(), i});
      });
      pending.push_back(id);
    }
    // Churn: cancel half, reschedule replacements at colliding times.
    for (int i = 0; i < 8; i += 2)
      q.Cancel(pending[static_cast<std::size_t>(i)]);
    for (int i = 0; i < 8; i += 2) {
      q.Schedule(Seconds(2.0), [&trace, &q, i] {
        trace.push_back({q.Now().value(), 100 + i});
      });
    }
    q.RunAll();
    return trace;
  };
  EXPECT_EQ(drive(), drive());
}

TEST(EventQueueTest, ObserverSeesEveryExecutedEvent)
{
  EventQueue q;
  std::vector<double> observed;
  const ObserverId id =
      q.AddObserver([&](Seconds now) { observed.push_back(now.value()); });
  q.Schedule(Seconds(1.0), [] {});
  const EventId cancelled = q.Schedule(Seconds(1.5), [] {});
  q.Schedule(Seconds(2.0), [] {});
  q.Cancel(cancelled);
  q.RunAll();
  ASSERT_EQ(observed.size(), 2u);  // cancelled events are not observed
  EXPECT_NEAR(observed[0], 1.0, 1e-12);
  EXPECT_NEAR(observed[1], 2.0, 1e-12);
  EXPECT_EQ(q.executed_count(), 2u);

  // Step() drives the observer too, and the observer can be detached.
  q.Schedule(Seconds(3.0), [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(observed.size(), 3u);
  q.RemoveObserver(id);
  q.Schedule(Seconds(4.0), [] {});
  q.RunAll();
  EXPECT_EQ(observed.size(), 3u);
  EXPECT_EQ(q.executed_count(), 4u);
}

TEST(EventQueueTest, MultipleObserversAllSeeEachEvent)
{
  EventQueue q;
  int first = 0;
  int second = 0;
  const ObserverId first_id = q.AddObserver([&](Seconds) { ++first; });
  q.AddObserver([&](Seconds) { ++second; });
  EXPECT_EQ(q.observer_count(), 2u);
  q.Schedule(Seconds(1.0), [] {});
  q.Schedule(Seconds(2.0), [] {});
  q.RunAll();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);

  // Removing one observer leaves the other attached.
  q.RemoveObserver(first_id);
  EXPECT_EQ(q.observer_count(), 1u);
  q.Schedule(Seconds(3.0), [] {});
  q.RunAll();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 3);
  // Removing an already-removed id is a harmless no-op.
  EXPECT_NO_THROW(q.RemoveObserver(first_id));
  EXPECT_THROW(q.AddObserver(nullptr), ConfigError);
}

// ---------------------------------------------------------------------------
// Calendar-wheel geometry: every ordering guarantee must hold across
// bucket boundaries, wheel rotations and events past the wheel span
// (which the calendar parks in its far-future heap).
// ---------------------------------------------------------------------------

TEST(EventQueueImplTest, SameTimestampFifoStability)
{
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i)
    q.Schedule(Seconds(1.0), [&order, i] { order.push_back(i); });
  q.RunAll();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueImplTest, CancelThenRescheduleChurn)
{
  // The telemetry-poller pattern: cancel a pending event and put a
  // replacement at a colliding timestamp, repeatedly. Survivors and
  // replacements must fire in exact schedule order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> pending;
  for (int i = 0; i < 40; ++i) {
    pending.push_back(
        q.Schedule(Seconds(2.0 + 0.25 * (i % 4)), [&order, i] {
          order.push_back(i);
        }));
  }
  for (int i = 0; i < 40; i += 2)
    q.Cancel(pending[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 40; i += 2) {
    q.Schedule(Seconds(2.0 + 0.25 * (i % 4)), [&order, i] {
      order.push_back(1000 + i);
    });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), 40u);
  // Same timestamp bucket => original survivors (odd labels) precede the
  // rescheduled replacements, each group in insertion order.
  std::vector<int> expected;
  for (int slot = 0; slot < 4; ++slot) {
    for (int i = 0; i < 40; ++i)
      if (i % 4 == slot && i % 2 == 1)
        expected.push_back(i);
    for (int i = 0; i < 40; i += 2)
      if (i % 4 == slot)
        expected.push_back(1000 + i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueImplTest, ObserversFireInInstallationOrderAfterEachEvent)
{
  EventQueue q;
  std::vector<int> sequence;
  q.AddObserver([&](Seconds) { sequence.push_back(1); });
  q.AddObserver([&](Seconds) { sequence.push_back(2); });
  q.Schedule(Seconds(1.0), [&] { sequence.push_back(0); });
  q.Schedule(Seconds(2.0), [&] { sequence.push_back(0); });
  q.RunAll();
  EXPECT_EQ(sequence, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(EventQueueImplTest, FarFutureEventsBeyondTheWheelSpan)
{
  // The calendar wheel spans ~51.2 s; everything past it lives in the
  // far-future heap until the wheel rotates forward. Interleave near and
  // far events and verify global time order either way.
  EventQueue q;
  std::vector<double> fired;
  const auto record = [&] { fired.push_back(q.Now().value()); };
  q.Schedule(Seconds(500.0), record);
  q.Schedule(Seconds(1.0), record);
  q.Schedule(Seconds(100.0), record);
  q.Schedule(Seconds(51.3), record);
  q.Schedule(Seconds(0.01), record);
  q.Schedule(Seconds(2000.0), record);
  q.RunAll();
  const std::vector<double> expected{0.01, 1.0, 51.3, 100.0, 500.0, 2000.0};
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(fired[i], expected[i], 1e-9);
  EXPECT_NEAR(q.Now().value(), 2000.0, 1e-9);
}

TEST(EventQueueImplTest, EventsLandingBehindARebasedWheelStillRun)
{
  // After the wheel rebases onto a far-future event, a handler may
  // schedule a short-delay follow-up that lands "before" the new wheel
  // origin's bucket grid; it must still run, in order.
  EventQueue q;
  std::vector<double> fired;
  q.Schedule(Seconds(100.0), [&] {
    fired.push_back(q.Now().value());
    q.Schedule(Seconds(0.001), [&] { fired.push_back(q.Now().value()); });
    q.Schedule(Seconds(0.0), [&] { fired.push_back(q.Now().value()); });
  });
  q.RunAll();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_NEAR(fired[0], 100.0, 1e-9);
  EXPECT_NEAR(fired[1], 100.0, 1e-9);    // zero-delay follow-up
  EXPECT_NEAR(fired[2], 100.001, 1e-9);  // then the 1 ms one
}

TEST(EventQueueImplTest, PeriodicTicksAcrossManyWheelRotations)
{
  EventQueue q;
  int ticks = 0;
  double last = 0.0;
  SchedulePeriodic(q, Seconds(1.7), [&] {
    ++ticks;
    EXPECT_NEAR(q.Now().value() - last, 1.7, 1e-9);
    last = q.Now().value();
    return q.Now() < Seconds(400.0);
  });
  q.RunUntil(Seconds(500.0));
  EXPECT_EQ(ticks, 236);  // ceil(400 / 1.7): last tick at 401.2 s
}

TEST(EventQueueImplTest, CancelFarFutureEvent)
{
  EventQueue q;
  int fired = 0;
  const EventId far = q.Schedule(Seconds(300.0), [&] { ++fired; });
  q.Schedule(Seconds(400.0), [&] { ++fired; });
  q.Cancel(far);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(q.Now().value(), 400.0, 1e-9);
}

/**
 * Reference model of the queue contract: an ordered map keyed by
 * (when, schedule order) plus a set of cancelled schedule orders.
 */
class ReferenceQueue {
 public:
  double Now() const { return now_; }

  std::uint64_t
  Schedule(double delay, int label)
  {
    const std::uint64_t order = next_order_++;
    events_.emplace(std::make_pair(now_ + delay, order), label);
    return order;
  }

  void Cancel(std::uint64_t order) { cancelled_.insert(order); }

  /** Runs every live event at or before @p horizon, then jumps to it. */
  void
  RunUntil(double horizon)
  {
    Drain(horizon);
    now_ = horizon;
  }

  /** Runs every live event; the clock stays at the last one. */
  void RunAll() { Drain(std::numeric_limits<double>::infinity()); }

  const std::vector<std::pair<double, int>>& trace() const { return trace_; }

 private:
  void
  Drain(double horizon)
  {
    while (!events_.empty() && events_.begin()->first.first <= horizon) {
      const auto earliest = events_.begin();
      if (cancelled_.count(earliest->first.second) == 0) {
        now_ = earliest->first.first;
        trace_.push_back({now_, earliest->second});
      }
      events_.erase(earliest);
    }
  }

  double now_ = 0.0;
  std::uint64_t next_order_ = 0;
  std::map<std::pair<double, std::uint64_t>, int> events_;  // -> label
  std::set<std::uint64_t> cancelled_;
  std::vector<std::pair<double, int>> trace_;
};

TEST(EventQueueEquivalenceTest, RandomizedTraceMatchesBetweenImpls)
{
  // Drive the calendar queue and the reference model (the two
  // implementations of the contract) with the same pseudo-random
  // schedule / cancel / horizon workload and require identical
  // execution traces.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EventQueue q;
    ReferenceQueue model;
    Rng rng(seed);
    std::vector<std::pair<double, int>> trace;
    std::vector<std::pair<EventId, std::uint64_t>> live;
    int label = 0;
    for (int round = 0; round < 50; ++round) {
      const int burst = static_cast<int>(rng.UniformInt(1, 8));
      for (int i = 0; i < burst; ++i) {
        // Mix sub-bucket, cross-bucket, and far-future delays.
        const double delay = rng.Bernoulli(0.2)
                                 ? rng.Uniform(60.0, 300.0)
                                 : rng.Uniform(0.0, 10.0);
        const int this_label = label++;
        const EventId id =
            q.Schedule(Seconds(delay), [&trace, &q, this_label] {
              trace.push_back({q.Now().value(), this_label});
            });
        live.push_back({id, model.Schedule(delay, this_label)});
      }
      while (!live.empty() && rng.Bernoulli(0.3)) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        q.Cancel(live[victim].first);
        model.Cancel(live[victim].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      const Seconds horizon = q.Now() + Seconds(rng.Uniform(0.0, 20.0));
      q.RunUntil(horizon);
      model.RunUntil(horizon.value());
      ASSERT_EQ(q.Now().value(), model.Now()) << "seed " << seed;
    }
    q.RunAll();
    model.RunAll();
    EXPECT_EQ(trace, model.trace()) << "trace diverged at seed " << seed;
  }
}

}  // namespace
}  // namespace flex::sim
