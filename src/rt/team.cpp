#include "rt/team.hpp"

#include <algorithm>
#include <coroutine>
#include <stdexcept>

namespace numasim::rt {

namespace {

/// Completion latch: the caller suspends until `remaining` workers finish.
struct JoinState {
  sim::Engine* engine = nullptr;
  unsigned remaining = 0;
  std::coroutine_handle<> waiter;

  void worker_done() {
    if (--remaining == 0 && waiter) engine->post_now(waiter);
  }
};

struct JoinAwaiter {
  std::shared_ptr<JoinState> state;
  bool await_ready() const noexcept { return state->remaining == 0; }
  void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
  void await_resume() const noexcept {}
};

}  // namespace

Team::Team(Machine& m, std::vector<topo::CoreId> cores)
    : m_(m), cores_(std::move(cores)) {
  if (cores_.empty()) throw std::invalid_argument{"Team: no cores"};
  for (topo::CoreId c : cores_) {
    if (c >= m.topology().num_cores())
      throw std::invalid_argument{"Team: core out of range"};
  }
}

Team Team::all_cores(Machine& m) {
  std::vector<topo::CoreId> cores(m.topology().num_cores());
  for (topo::CoreId c = 0; c < m.topology().num_cores(); ++c) cores[c] = c;
  return Team{m, std::move(cores)};
}

Team Team::node_cores(Machine& m, topo::NodeId node, unsigned count) {
  const auto node_set = m.topology().cores_of_node(node);
  if (count > node_set.size()) throw std::invalid_argument{"Team: node too small"};
  return Team{m, {node_set.begin(), node_set.begin() + count}};
}

sim::Task<void> Team::parallel(Thread& caller, WorkerFn fn, std::string region) {
  auto state = std::make_shared<JoinState>();
  state->engine = &m_.engine();
  state->remaining = size();

  kern::charge(caller.ctx(), m_.cost().thread_spawn,
               sim::CostKind::kOther);  // one fork episode
  const sim::Time start = caller.ctx().clock;

  std::vector<Thread*> workers;
  workers.reserve(size());
  for (unsigned i = 0; i < size(); ++i) {
    // Named locals, not literals: GCC 12 mishandles temporary closures with
    // non-trivial captures in coroutine bodies (docs/gcc12-coroutine-bug.md).
    Machine::Body body = [fn, i, region](Thread& th) -> sim::Task<void> {
      const sim::Time begin = th.ctx().clock;
      co_await fn(i, th);
      th.kernel().emit_span(th.ctx(), region, begin);
    };
    std::function<void()> on_done = [state] { state->worker_done(); };
    workers.push_back(m_.spawn(cores_[i], std::move(body), std::move(on_done), start));
  }

  // Named awaiter: GCC 12 double-destroys temporary awaiters with
  // non-trivial members (docs/gcc12-coroutine-bug.md).
  JoinAwaiter join{state};
  co_await join;
  caller.ctx().clock = m_.engine().now();

  last_stats_.reset();
  for (Thread* w : workers) last_stats_ += w->stats();
  last_span_ = caller.ctx().clock - start;
  m_.kernel().emit_span(caller.ctx(), region, start);
}

sim::Task<void> Team::parallel_for(Thread& caller, std::uint64_t begin,
                                   std::uint64_t end, IndexFn body,
                                   std::string region) {
  const std::uint64_t n = end > begin ? end - begin : 0;
  const std::uint64_t per = (n + size() - 1) / size();
  // NOTE: the worker lambda is named before the co_await on purpose — writing
  // a lambda literal inside a co_await expression miscompiles on GCC 12
  // (closure temporary destroyed at the suspension point; see
  // docs/gcc12-coroutine-bug.md). The same discipline applies to callers.
  WorkerFn worker = [=](unsigned tid, Thread& th) -> sim::Task<void> {
    const std::uint64_t lo = begin + std::min<std::uint64_t>(n, tid * per);
    const std::uint64_t hi = begin + std::min<std::uint64_t>(n, (tid + 1) * per);
    for (std::uint64_t i = lo; i < hi; ++i) co_await body(tid, th, i);
  };
  co_await parallel(caller, std::move(worker), std::move(region));
}

}  // namespace numasim::rt
