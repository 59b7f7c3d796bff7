/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Drives every time-dependent component in the reproduction: meters poll,
 * pub/sub buses deliver, controllers tick, UPS batteries accumulate
 * overload, and workloads vary their power — all as events on a single
 * deterministic queue.
 *
 * The pending set is a two-level calendar queue. Near-future events land
 * in a fixed wheel of time buckets (O(1) insert, short linear scan per
 * pop); far-future events overflow into a heap that refills the wheel
 * whenever it drains. Timer-heavy rooms (thousands of periodic polls
 * within a few seconds of now) do not pay a per-event log factor.
 */
#ifndef FLEX_SIM_EVENT_QUEUE_HPP_
#define FLEX_SIM_EVENT_QUEUE_HPP_

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/units.hpp"

namespace flex::sim {

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/** Handle used to remove an installed observer. */
using ObserverId = std::uint64_t;

/**
 * A deterministic discrete-event queue.
 *
 * Events at equal timestamps fire in scheduling order (FIFO), which makes
 * multi-controller races reproducible. Cancellation is lazy: cancelled
 * events stay in their container but are skipped when reached.
 */
class EventQueue {
 public:
  using Callback = std::function<void()>;
  /** Invoked after every executed event with the event's timestamp. */
  using Observer = std::function<void(Seconds)>;

  EventQueue();

  /** Current simulated time. */
  Seconds Now() const { return now_; }

  /**
   * Installs an observer called after each executed event. Observers must
   * not schedule or cancel events (they watch the simulation, they do not
   * steer it); the invariant monitor in src/fault and the metrics layer
   * in src/obs are the main clients. Observers fire in installation
   * order. @return a handle for RemoveObserver().
   */
  ObserverId AddObserver(Observer observer);

  /** Removes an observer; removing a missing handle is a no-op. */
  void RemoveObserver(ObserverId id);

  /** Number of installed observers. */
  std::size_t observer_count() const { return observers_.size(); }

  /** Total events executed over the queue's lifetime. */
  std::uint64_t executed_count() const { return executed_count_; }

  /**
   * Schedules @p callback to run @p delay after the current time.
   * @return an id usable with Cancel().
   */
  EventId Schedule(Seconds delay, Callback callback);

  /** Schedules @p callback at absolute time @p when (>= Now()). */
  EventId ScheduleAt(Seconds when, Callback callback);

  /** Cancels a pending event; cancelling a fired/cancelled id is a no-op. */
  void Cancel(EventId id);

  /** True when no runnable events remain. */
  bool Empty() const { return pending_.empty(); }

  /** Number of pending (non-cancelled) events. */
  std::size_t PendingCount() const { return pending_.size(); }

  /**
   * Runs events until the queue drains or @p horizon is reached, whichever
   * comes first. Time advances to the horizon even if the queue drains
   * earlier, so repeated RunUntil calls tile a timeline predictably:
   * RunUntil(t1); RunUntil(t2) executes the exact event sequence of a
   * single RunUntil(t2). This is the epoch-bounded run API the fleet
   * engine advances its lanes with — each lane tiles its own timeline
   * into fixed epochs and the barriers merge between tiles.
   * @return the number of events executed.
   */
  std::size_t RunUntil(Seconds horizon);

  /**
   * Timestamp of the earliest still-runnable event, or +infinity when
   * none is pending. Purely observational with respect to the event
   * trace (cancelled entries encountered on the way are discarded, which
   * is invisible to execution order), so an epoch driver can poll it
   * between RunUntil tiles to detect drained lanes or skip empty epochs
   * without perturbing determinism.
   */
  Seconds NextEventTime();

  /** Runs a single event if one is pending. @return true if one ran. */
  bool Step();

  /** Runs until the queue is fully drained. @return events executed. */
  std::size_t RunAll();

 private:
  struct Entry {
    Seconds when;
    std::uint64_t sequence;  // tie-break: FIFO at equal timestamps
    EventId id;
    Callback callback;
  };

  struct Later {
    bool
    operator()(const Entry& a, const Entry& b) const
    {
      if (a.when != b.when)
        return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  struct ObserverEntry {
    ObserverId id;
    Observer callback;
  };

  // Calendar geometry. The wheel spans kNumBuckets * kBucketWidth
  // seconds (51.2 s) of simulated time from wheel_start_; everything
  // later waits in far_heap_ until the wheel advances onto it. Bucket
  // width is sized so a room's periodic timers (0.5–5 s periods) spread
  // across many buckets instead of piling into one.
  static constexpr std::size_t kNumBuckets = 1024;
  static constexpr double kBucketWidth = 0.05;

  void Insert(Entry entry);
  /**
   * Finds the earliest live event by (when, sequence), compacting
   * cancelled entries out of the buckets it scans and rebasing the wheel
   * from the far heap when the buckets run dry. The entry stays in its
   * bucket. @return nullptr when no live event is pending.
   */
  Entry* FindEarliest();
  /**
   * Pops the earliest live event if its timestamp is <= @p horizon
   * (pass infinity for "any"). @return false when nothing runnable is
   * within the horizon.
   */
  bool PopEarliest(double horizon, Entry& out);
  /** Moves the wheel onto the earliest far-heap event. @return false if none. */
  bool AdvanceWheel();
  void NotifyObservers(Seconds when);

  // Calendar store. wheel_entries_ counts entries resident in buckets,
  // live or cancelled (cancelled ones are discovered and dropped during
  // bucket scans). Invariant: far_heap_ holds only events at or beyond
  // wheel_start_ + kNumBuckets * kBucketWidth, re-established each time
  // AdvanceWheel() rebases the wheel. Events scheduled before
  // wheel_start_ (possible right after an advance) clamp into bucket 0,
  // which therefore covers "everything up to wheel_start_ + width" — the
  // min-scan keeps ordering exact regardless.
  std::vector<std::vector<Entry>> buckets_;
  std::priority_queue<Entry, std::vector<Entry>, Later> far_heap_;
  double wheel_start_ = 0.0;
  std::size_t cursor_ = 0;         // first possibly-nonempty bucket
  std::size_t wheel_entries_ = 0;  // entries resident in buckets_

  std::unordered_set<EventId> pending_;  // ids scheduled and not yet fired
  Seconds now_{0.0};
  std::uint64_t next_sequence_ = 0;
  EventId next_id_ = 1;
  std::vector<ObserverEntry> observers_;  // in installation order
  ObserverId next_observer_id_ = 1;
  std::uint64_t executed_count_ = 0;
};

/**
 * Convenience: schedules @p callback every @p period until it returns
 * false. Returns immediately; the ticking happens as the queue runs.
 */
void SchedulePeriodic(EventQueue& queue, Seconds period,
                      std::function<bool()> callback);

}  // namespace flex::sim

#endif  // FLEX_SIM_EVENT_QUEUE_HPP_
