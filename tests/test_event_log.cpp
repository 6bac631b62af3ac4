// Tests for the kernel event-log trace subsystem.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  EventLogTest()
      : topo_(topo::Topology::quad_opteron()), k_(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom}) {
    pid_ = k_.create_process();
    k_.add_trace_sink(&log_);
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  topo::Topology topo_;
  kern::Kernel k_;
  EventLog log_;
  Pid pid_ = 0;
};

TEST_F(EventLogTest, RecordsFirstTouchFaults) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(log_.count(EventType::kMinorFault), 4u);
  const Event& e = log_.events().front();
  EXPECT_EQ(e.type, EventType::kMinorFault);
  EXPECT_EQ(e.to, 0u);
  EXPECT_EQ(e.vpn, vm::vpn_of(a));
}

TEST_F(EventLogTest, RecordsNextTouchLifecycle) {
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k_.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch);
  EXPECT_EQ(log_.count(EventType::kNextTouchMark), 1u);

  ThreadCtx t1 = ctx_on(4);
  t1.clock = t0.clock;
  k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(log_.count(EventType::kNextTouchMigrate), 8u);
  bool found = false;
  for (const Event& e : log_.events()) {
    if (e.type == EventType::kNextTouchMigrate) {
      EXPECT_EQ(e.from, 0u);
      EXPECT_EQ(e.to, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EventLogTest, RecordsMovePagesAndSignals) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  std::vector<vm::Vaddr> pages;
  for (std::uint64_t i = 0; i < len; i += mem::kPageSize) pages.push_back(a + i);
  std::vector<topo::NodeId> nodes(4, 2);
  std::vector<int> status(4, 0);
  k_.sys_move_pages(t, pages, nodes, status);
  EXPECT_EQ(log_.count(EventType::kMovePages), 1u);  // one batch

  k_.sys_mprotect(t, a, len, vm::Prot::kNone);
  k_.set_sigsegv_handler(pid_, [&](ThreadCtx& ht, const SigInfo&) {
    k_.sys_mprotect(ht, a, len, vm::Prot::kReadWrite);
  });
  k_.access(t, a, 8, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(log_.count(EventType::kSigsegv), 1u);
}

TEST_F(EventLogTest, RenderAndCsv) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 2 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  const std::string text = log_.render();
  EXPECT_NE(text.find("minor-fault"), std::string::npos);
  EXPECT_NE(text.find("to=N0"), std::string::npos);

  const std::string csv = log_.to_csv();
  EXPECT_NE(csv.find("time_ns,tid,type,vpn,pages,from,to"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
}

TEST_F(EventLogTest, BoundedCapacityDropsOldest) {
  EventLog small(4);
  k_.remove_trace_sink(&log_);
  k_.add_trace_sink(&small);
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 10 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 10 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(small.events().size(), 4u);
  EXPECT_EQ(small.dropped(), 6u);
  EXPECT_NE(small.render().find("older events dropped"), std::string::npos);
  small.clear();
  EXPECT_TRUE(small.events().empty());
  EXPECT_EQ(small.dropped(), 0u);
  k_.remove_trace_sink(&small);
}

TEST(EventLog, RoundTripsEveryEventType) {
  const EventType all[] = {
#define NUMASIM_EVENT_TYPE(e, name) EventType::e,
      NUMASIM_KERN_EVENTS(NUMASIM_EVENT_TYPE)
#undef NUMASIM_EVENT_TYPE
  };
  EventLog log;
  for (std::size_t i = 0; i < std::size(all); ++i) {
    obs::TraceEvent e;
    e.ts = 100 + i;
    e.tid = 7;
    e.name = event_type_name(all[i]);
    e.add_arg("vpn", static_cast<std::int64_t>(0x40 + i))
        .add_arg("pages", static_cast<std::int64_t>(i + 1))
        .add_arg("from", 1)
        .add_arg("to", 2);
    log.record(e);
  }
  ASSERT_EQ(log.events().size(), std::size(all));
  for (std::size_t i = 0; i < std::size(all); ++i) {
    const Event& ev = log.events()[i];
    EXPECT_EQ(ev.type, all[i]) << event_type_name(all[i]);
    EXPECT_EQ(ev.when, 100 + i);
    EXPECT_EQ(ev.tid, 7u);
    EXPECT_EQ(ev.vpn, 0x40 + i);
    EXPECT_EQ(ev.pages, i + 1);
    EXPECT_EQ(ev.from, 1u);
    EXPECT_EQ(ev.to, 2u);
  }
}

TEST_F(EventLogTest, DetachedLogRecordsNothing) {
  k_.remove_trace_sink(&log_);
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_TRUE(log_.events().empty());
}

}  // namespace
}  // namespace numasim::kern
