// Deterministic discrete-event engine.
//
// One host thread runs the whole simulation. Simulated threads are
// coroutines; every timed operation computes a finish instant and then
// `co_await engine.resume_at(finish)`. The engine pops events in
// (time, sequence) order, so execution is bit-reproducible: ties resolve by
// scheduling order, never by host scheduling.
//
// Posting goes through post_at/post_in/post_now — the raw queue is an
// implementation detail. Same-instant posts (post_now, post_at(now()),
// clamped past posts) take an O(1) FIFO fast path instead of paying a heap
// push/pop; the run loop drains heap events due at the current instant
// before FIFO ones, which reproduces the (time, sequence) order of the
// single-heap design exactly: any heap event due at `now` was posted while
// the clock was still earlier, so its sequence number is smaller than that
// of every event the FIFO holds.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace numasim::sim {

/// Identifies a root task started on the engine.
using RootId = std::size_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated instant (the timestamp of the event being processed).
  Time now() const { return now_; }

  /// Post a raw coroutine resume at absolute instant `t` (>= now(); an
  /// earlier `t` is clamped to now()). Same-instant posts are O(1).
  void post_at(Time t, std::coroutine_handle<> h) {
    assert(t >= now_ && "cannot post into the simulated past");
    if (t <= now_) {
      fifo_.push_back(h);
    } else {
      queue_.push(Event{t, seq_++, h});
    }
  }

  /// Batch-post: every handle in `hs` resumes at instant `t`, in the given
  /// order (one heap insertion point, or the FIFO when `t` == now()).
  void post_at(Time t, std::span<const std::coroutine_handle<>> hs) {
    for (std::coroutine_handle<> h : hs) post_at(t, h);
  }

  /// Post a resume `d` nanoseconds from now.
  void post_in(Time d, std::coroutine_handle<> h) { post_at(now_ + d, h); }

  /// Post a resume at the current instant — always the O(1) FIFO path. The
  /// handle runs after every already-posted event due at now(), in posting
  /// order.
  void post_now(std::coroutine_handle<> h) { fifo_.push_back(h); }

  /// Awaitable: suspend the current coroutine and resume it at instant `t`.
  /// `t` may equal now(); the coroutine is then re-queued behind already
  /// scheduled same-instant events (deterministic FIFO ordering).
  auto resume_at(Time t) {
    struct Awaiter {
      Engine& engine;
      Time at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.post_at(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, t};
  }

  /// Awaitable: advance the current coroutine's clock by `d` nanoseconds.
  auto advance(Time d) { return resume_at(now_ + d); }

  /// Adopt `task` as a root coroutine and schedule its first resume at
  /// max(at, now()). Ownership of the coroutine frame moves to the engine.
  RootId start(Task<void> task, Time at = 0);

  /// As `start`, additionally invoking `on_done` (inside the simulation, at
  /// the root's completion instant) when the task finishes.
  RootId start_with_callback(Task<void> task, std::function<void()> on_done, Time at = 0);

  /// True once the given root task has run to completion.
  bool finished(RootId id) const;

  /// Process events until the queue drains. Rethrows the first exception
  /// that escaped any root task (after the queue is drained).
  void run();

  /// Number of events processed so far (diagnostics).
  std::uint64_t events_processed() const { return events_; }

  /// Number of root tasks that have not yet completed.
  std::size_t live_roots() const;

 private:
  struct RootState {
    std::coroutine_handle<Task<void>::promise_type> handle;
    bool done = false;
    std::function<void()> user_done;
    std::function<void()> hook;  // pointed to by the promise
  };

  struct Event {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::deque<std::coroutine_handle<>> fifo_;  // same-instant fast path
  std::vector<std::unique_ptr<RootState>> roots_;
};

}  // namespace numasim::sim
