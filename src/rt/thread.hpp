// Thread: the coroutine-facing facade a simulated thread's body programs
// against. Every operation calls into the (synchronous) kernel, then awaits
// the engine so concurrent threads interleave in global time order.
//
// One kernel call is one `Step`. An operation whose body is a single kernel
// call (compute, mmap, read, migrate_pages, ...) makes that call when it is
// called and returns a `Step`: a trivially destructible awaiter holding the
// engine, the thread's clock after the call and the call's result. Awaiting
// it posts the awaiting coroutine once, at that instant — one engine event
// and no coroutine frame per operation. Await a Step immediately; the
// kernel call has already happened, so a Step stored and awaited later
// would resume at a stale instant.
//
// Coroutines only sequence steps. Long operations (big touches, big
// move_pages requests) are split into kernel-batch-sized chunks with an
// await between chunks, so lock and link contention is modelled at
// realistic granularity; `touch` is a loop over `touch_step`, one chunk per
// step.
#pragma once

#include <coroutine>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "kern/kernel.hpp"
#include "rt/machine.hpp"
#include "sim/barrier.hpp"
#include "sim/task.hpp"

namespace numasim::rt {

class Thread {
 public:
  /// Pages processed per interleaving step in chunked operations.
  static constexpr std::size_t kChunkPages = 64;
  /// Bytes one touch_step may cover.
  static constexpr std::uint64_t kChunkBytes = kChunkPages * mem::kPageSize;

  /// What a one-step operation returns: its kernel call is already done;
  /// awaiting posts the awaiter at `at` and yields the call's result.
  /// Trivially destructible by construction (docs/gcc12-coroutine-bug.md:
  /// GCC 12 miscompiles temporary awaiters with non-trivial members).
  template <typename R = void>
  class [[nodiscard]] Step {
    struct None {};
    using Held = std::conditional_t<std::is_void_v<R>, None, R>;

   public:
    Step(sim::Engine& engine, sim::Time at, Held result = {})
        : engine_(&engine), at_(at), result_(result) {
      static_assert(std::is_trivially_destructible_v<Step>,
                    "a Step is awaited as a temporary: see docs/gcc12-coroutine-bug.md");
    }
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { engine_->post_at(at_, h); }
    R await_resume() const noexcept {
      if constexpr (std::is_void_v<R>) {
        return;
      } else {
        return result_;
      }
    }

   private:
    sim::Engine* engine_;
    sim::Time at_;
    [[no_unique_address]] Held result_;
  };

  Thread(Machine& m, kern::ThreadId tid, topo::CoreId core);

  kern::ThreadCtx& ctx() { return ctx_; }
  const kern::ThreadCtx& ctx() const { return ctx_; }
  Machine& machine() { return m_; }
  kern::Kernel& kernel() { return m_.kernel(); }
  sim::Time now() const { return ctx_.clock; }
  topo::CoreId core() const { return ctx_.core; }
  topo::NodeId node() const { return m_.topology().node_of_core(ctx_.core); }
  const sim::CostStats& stats() const { return ctx_.stats; }

  // --- observability annotations ----------------------------------------------
  /// Scoped phase annotation: emits an "app" span covering its lifetime into
  /// the kernel's trace sinks (a named slice on this thread's timeline in
  /// the Chrome trace). Free when no sink is attached; never advances
  /// simulated time.
  class Phase {
   public:
    Phase(Thread& th, std::string name)
        : th_(&th), name_(std::move(name)), begin_(th.ctx().clock) {}
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    ~Phase() { end(); }
    /// Close the span early (idempotent).
    void end() {
      if (th_ != nullptr) {
        th_->kernel().emit_span(th_->ctx(), name_, begin_);
        th_ = nullptr;
      }
    }

   private:
    Thread* th_;
    std::string name_;
    sim::Time begin_;
  };
  Phase phase(std::string name) { return Phase{*this, std::move(name)}; }

  /// Instant marker on this thread's timeline.
  void annotate(std::string_view name) { kernel().emit_instant(ctx_, name); }

  /// Re-synchronize with the engine (await until global clock == ctx.clock).
  Step<> sync();

  /// Spend `ns` of pure computation.
  Step<> compute(sim::Time ns);

  /// Move this thread to another core (sched_setaffinity + migration cost).
  Step<> migrate_to_core(topo::CoreId core);

  // --- memory mapping ---------------------------------------------------------
  Step<vm::Vaddr> mmap(std::uint64_t len, vm::Prot prot = vm::Prot::kReadWrite,
                       vm::MemPolicy policy = {}, std::string name = {});
  Step<kern::SyscallResult> munmap(vm::Vaddr addr, std::uint64_t len);
  Step<kern::SyscallResult> mprotect(vm::Vaddr addr, std::uint64_t len, vm::Prot prot);
  Step<kern::SyscallResult> madvise(vm::Vaddr addr, std::uint64_t len,
                                    kern::Advice advice);
  Step<kern::SyscallResult> mbind(vm::Vaddr addr, std::uint64_t len,
                                  vm::MemPolicy policy);
  Step<kern::SyscallResult> set_mempolicy(vm::MemPolicy policy);

  // --- data plane --------------------------------------------------------------
  /// Touch [addr, addr+len) (chunked). `stream_rate` in bytes/us; pass 0 to
  /// model a pointer-chase touch (faults only, no bandwidth charge).
  sim::Task<kern::AccessResult> touch(vm::Vaddr addr, std::uint64_t len,
                                      vm::Prot want = vm::Prot::kReadWrite,
                                      double stream_rate = -1.0);

  /// One chunk of touch(): a single kernel access of at most kChunkBytes
  /// (a longer `len` throws std::invalid_argument).
  Step<kern::AccessResult> touch_step(vm::Vaddr addr, std::uint64_t len,
                                      vm::Prot want = vm::Prot::kReadWrite,
                                      double stream_rate = -1.0);

  /// Touch one word at the start of every page in the range — the classic
  /// migration-microbenchmark access pattern.
  sim::Task<kern::AccessResult> touch_pages_sparse(vm::Vaddr addr, std::uint64_t len,
                                                   vm::Prot want = vm::Prot::kReadWrite);

  /// memcpy(dst, src, len) in user space (the Fig. 4 baseline).
  Step<int> memcpy_user(vm::Vaddr dst, vm::Vaddr src, std::uint64_t len);

  Step<int> read(vm::Vaddr addr, std::span<std::byte> out);
  Step<int> write(vm::Vaddr addr, std::span<const std::byte> in);

  // --- migration ----------------------------------------------------------------
  /// move_pages(2), chunked for realistic concurrency.
  sim::Task<kern::SyscallResult> move_pages(std::span<const vm::Vaddr> pages,
                                            std::span<const topo::NodeId> nodes,
                                            std::span<int> status);

  /// Convenience: synchronously migrate a whole range to `node`.
  /// count() = pages landed on `node`.
  sim::Task<kern::SyscallResult> move_range(vm::Vaddr addr, std::uint64_t len,
                                            topo::NodeId node);

  Step<kern::SyscallResult> migrate_pages(kern::Pid target, topo::NodeMask from,
                                          topo::NodeMask to);

  /// Async ranged migration: queue [addr, addr+len) -> node on the
  /// destination's kmigrated daemon. count() = pages queued.
  Step<kern::SyscallResult> move_range_async(vm::Vaddr addr, std::uint64_t len,
                                             topo::NodeId node);

  /// Wait until every kmigrated daemon has drained.
  Step<> kmigrated_drain();

  // --- synchronization -------------------------------------------------------------
  sim::Task<void> barrier(sim::Barrier& b);

 private:
  /// Package a finished kernel call: resume at this thread's clock. Taking
  /// the result as an argument orders the call before the clock is read.
  Step<> step() { return {m_.engine(), ctx_.clock}; }
  template <typename R>
  Step<R> step(R result) {
    return {m_.engine(), ctx_.clock, result};
  }

  Machine& m_;
  kern::ThreadCtx ctx_;
};

}  // namespace numasim::rt
